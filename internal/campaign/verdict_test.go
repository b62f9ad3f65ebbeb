package campaign

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/faultinject"
	"repro/internal/fuzz"
	"repro/internal/memo"
	"repro/internal/scanner"
	"repro/internal/static/absint"
)

// verdict_test.go holds the engine-level differential for the
// abstract-interpretation verdict engine: Config.Verdicts may only ever
// change which jobs execute (proven-negative skips, confirmed-first
// ordering), never the findings, and must compose with every other engine
// layer — memoization, fault-injected retries, and journal kill+resume.
//
// Unlike the golden-digest tests, only FindingsDigest is compared across
// the off/on pair: a verdict skip deliberately does no work, so the
// state digest's coverage counters differ by design.

// verdictDigests runs the same population with the flag off and on and
// requires the findings digests to match byte for byte.
func verdictDigests(t *testing.T, mk func() []Job, cfg Config) (off, on *Report) {
	t.Helper()
	offCfg, onCfg := cfg, cfg
	offCfg.Verdicts = false
	onCfg.Verdicts = true
	off, err := Run(context.Background(), mk(), offCfg)
	if err != nil {
		t.Fatalf("verdicts-off run: %v", err)
	}
	on, err = Run(context.Background(), mk(), onCfg)
	if err != nil {
		t.Fatalf("verdicts-on run: %v", err)
	}
	if got, want := on.FindingsDigest(), off.FindingsDigest(); got != want {
		t.Errorf("FindingsDigest diverged under -verdicts:\n got: %s\nwant: %s", got, want)
	}
	return off, on
}

// TestVerdictDigestInvariance is the flag's core contract at every worker
// count the determinism suite uses: both legs must reproduce the golden
// findings digest of the same population (golden_test.go), so worker
// count and flag state are both witnessed at once and the two legs cannot
// drift together. The verdicts-on runs must also be state-identical to
// each other across worker counts — skipping is deterministic, not
// scheduling-dependent.
func TestVerdictDigestInvariance(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	var refOnState string
	for i, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			off, on := verdictDigests(t, mk, Config{Workers: workers, BaseSeed: 7})
			for leg, rep := range map[string]*Report{"off": off, "on": on} {
				if got := sha256Hex(rep.FindingsDigest()); got != goldenFindings16 {
					t.Errorf("verdicts-%s FindingsDigest sha256 %s, want %s", leg, got, goldenFindings16)
				}
			}
			if i == 0 {
				refOnState = on.StateDigest()
				return
			}
			if on.StateDigest() != refOnState {
				t.Errorf("verdicts-on state digest drifted across worker counts")
			}
		})
	}
}

// TestVerdictResolvesJobs checks the engine actually does triage work: some
// jobs skip on all-negative proofs, and every skipped job's digest line
// still matches the executed reference (already asserted by
// verdictDigests). The canonical fixtures all carry db writes and sends, so
// the on-chain-data scenario classes are correctly Unknown on them and they
// must execute; boilerplate contracts with no host intrinsics are the
// fully-provable population, mirroring the wild distribution where
// trivial contracts dominate.
func TestVerdictResolvesJobs(t *testing.T) {
	mk := func() []Job {
		jobs := testJobs(t, 16, 30, 13)
		for i := 0; i < 4; i++ {
			c := contractgen.Trivial()
			jobs = append(jobs, Job{
				Name:   fmt.Sprintf("trivial-%d", i),
				Module: c.Module,
				ABI:    c.ABI,
				Config: fuzz.Config{Iterations: 30, SolverConflicts: 50_000},
			})
		}
		return jobs
	}
	off, on := verdictDigests(t, mk, Config{Workers: 4, BaseSeed: 7})
	if off.Skipped != 0 {
		t.Fatalf("verdicts-off run skipped %d jobs with triage disabled", off.Skipped)
	}
	if on.Skipped == 0 {
		t.Error("verdicts-on run skipped nothing: no all-negative proofs on the test population")
	}
	t.Logf("verdict skips: %d/%d jobs", on.Skipped, len(on.Results))
}

// TestVerdictComposesWithEverything stacks the verdict engine on top of
// cross-job memoization: both layers promise digest invariance, and this
// is the witness that the promises hold together.
func TestVerdictComposesWithEverything(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	verdictDigests(t, mk, Config{
		Workers:  4,
		BaseSeed: 7,
		Memo:     memo.ModeOn,
	})
}

// TestVerdictComposesWithChaos injects faults with retries enabled on both
// sides of the differential. Verdict analysis runs outside the attempt
// loop on the decoded module alone, so fault injection cannot perturb it;
// skipped jobs consume no fault slots, which is safe because the injector
// plans faults per job ID, not from a shared sequence.
func TestVerdictComposesWithChaos(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	off, _ := verdictDigests(t, mk, Config{
		Workers:  4,
		BaseSeed: 7,
		Faults:   &faultinject.Plan{Seed: 99, Rate: 0.2},
		Retry:    RetryPolicy{MaxAttempts: 3},
	})
	if off.Failed != 0 {
		t.Fatalf("%d terminal failures at 20%% fault rate with retries", off.Failed)
	}
}

// TestVerdictKillResume kills a verdict-enabled campaign mid-flight and
// resumes it from the journal: the stitched result's findings must match a
// verdicts-off reference byte for byte. Replayed records short-circuit
// before the verdict check, so a job skipped in the first run stays
// skipped in the resume.
func TestVerdictKillResume(t *testing.T) {
	const nJobs = 12
	mk := func() []Job { return testJobs(t, nJobs, 30, 21) }
	cfg := Config{Workers: 4, BaseSeed: 5}
	ref, err := Run(context.Background(), mk(), cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	vcfg := cfg
	vcfg.Verdicts = true
	vcfg.Journal = journal
	e, err := Start(ctx, vcfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	go func() {
		defer e.Close()
		jobs := mk()
		for i := range jobs {
			jobs[i].ID = i
			if err := e.Submit(jobs[i]); err != nil {
				return // engine cancelled mid-submission; expected
			}
		}
	}()
	completed := 0
	for jr := range e.Results() {
		if jr.Err == nil {
			completed++
		}
		if completed == 4 {
			cancel()
		}
	}
	if completed < 4 {
		t.Fatalf("interrupted run completed only %d jobs before draining", completed)
	}

	rcfg := vcfg
	rcfg.Resume = true
	rep, err := Run(context.Background(), mk(), rcfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if rep.Replayed == 0 {
		t.Fatal("resumed run replayed nothing from the journal")
	}
	if got, want := rep.FindingsDigest(), ref.FindingsDigest(); got != want {
		t.Errorf("FindingsDigest diverged after verdict kill+resume:\n got: %s\nwant: %s", got, want)
	}
}

// triageTestJobs is testJobs plus trivial (provably-negative) contracts
// appended, so the verdict skip has something to skip.
func triageTestJobs(tb testing.TB, n, iterations int, seed int64) []Job {
	tb.Helper()
	jobs := testJobs(tb, n, iterations, seed)
	for i := 0; i < 4; i++ {
		c := contractgen.Trivial()
		jobs = append(jobs, Job{
			Name:   "trivial",
			Module: c.Module,
			ABI:    c.ABI,
			Config: fuzz.Config{Iterations: iterations, SolverConflicts: 50_000},
		})
	}
	return jobs
}

// TestTriageFindingsIdentical: the same batch, verdicts off vs. on, must
// report byte-identical findings, the on run must skip the trivial
// contracts, and the on run's state digest — skips included — must not
// depend on the worker count.
func TestTriageFindingsIdentical(t *testing.T) {
	jobs := triageTestJobs(t, 10, 25, 17)
	base, err := Run(context.Background(), jobs, Config{Workers: 4, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	triaged, err := Run(context.Background(), jobs, Config{Workers: 4, BaseSeed: 7, Verdicts: true})
	if err != nil {
		t.Fatal(err)
	}
	if triaged.Skipped < 4 {
		t.Errorf("triage skipped %d jobs; the 4 trivial contracts are provably negative", triaged.Skipped)
	}
	if base.Skipped != 0 {
		t.Errorf("baseline skipped %d jobs with triage disabled", base.Skipped)
	}
	if b, tr := base.FindingsDigest(), triaged.FindingsDigest(); b != tr {
		t.Errorf("triage changed findings:\n--- baseline ---\n%s\n--- triage ---\n%s", b, tr)
	}
	again, err := Run(context.Background(), jobs, Config{Workers: 2, BaseSeed: 7, Verdicts: true})
	if err != nil {
		t.Fatal(err)
	}
	if triaged.StateDigest() != again.StateDigest() {
		t.Error("triage run not deterministic across worker counts")
	}
}

// TestTriageNeverSkipsCandidates: the generated benchmark contracts write
// to the database and send, so their on-chain-data classes stay Unknown
// and they must run dynamically even under verdict triage.
func TestTriageNeverSkipsCandidates(t *testing.T) {
	jobs := testJobs(t, 5, 20, 23)
	rep, err := Run(context.Background(), jobs, Config{Workers: 2, BaseSeed: 3, Verdicts: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 0 {
		t.Errorf("triage skipped %d candidate-bearing contracts", rep.Skipped)
	}
}

// TestTriageRespectsCustomDetectors pins verdictSkippable's observer
// guards: a job with a custom detector, or one keeping its traces,
// observes behaviour the verdicts say nothing about, so even a contract
// with every class proven negative must run.
func TestTriageRespectsCustomDetectors(t *testing.T) {
	c := contractgen.Trivial()
	rep := absint.Analyze(c.Module, abiActions(c.ABI))
	job := Job{Module: c.Module, ABI: c.ABI}
	if !verdictSkippable(job, rep) {
		t.Fatal("trivial job without observers should be skippable")
	}
	job.Config.CustomDetectors = []scanner.CustomDetector{
		scanner.NewAPICallDetector("probe", c.Module, "current_time"),
	}
	if verdictSkippable(job, rep) {
		t.Error("job with a custom detector must not be skippable")
	}
	job.Config.CustomDetectors = nil
	job.Config.KeepTraces = true
	if verdictSkippable(job, rep) {
		t.Error("job keeping traces must not be skippable")
	}
}

// TestTriageRunsObservedJobs is the engine-level form of the observer
// guards, on the streaming engine and on the adaptive driver: a trivial
// job is skipped without an attempt, and the same job with a custom
// detector or trace capture executes exactly once.
func TestTriageRunsObservedJobs(t *testing.T) {
	c := contractgen.Trivial()
	rows := []struct {
		name    string
		observe func(*fuzz.Config)
		skipped bool
	}{
		{"plain", func(*fuzz.Config) {}, true},
		{"custom-detector", func(cfg *fuzz.Config) {
			cfg.CustomDetectors = []scanner.CustomDetector{
				scanner.NewAPICallDetector("probe", c.Module, "current_time"),
			}
		}, false},
		{"keep-traces", func(cfg *fuzz.Config) { cfg.KeepTraces = true }, false},
	}
	for _, adaptive := range []bool{false, true} {
		for _, row := range rows {
			t.Run(fmt.Sprintf("%s/adaptive=%v", row.name, adaptive), func(t *testing.T) {
				job := Job{Name: "trivial", Module: c.Module, ABI: c.ABI,
					Config: fuzz.Config{Iterations: 5, SolverConflicts: 50_000}}
				row.observe(&job.Config)
				rep, err := Run(context.Background(), []Job{job}, Config{Workers: 1, Verdicts: true, Adaptive: adaptive})
				if err != nil {
					t.Fatal(err)
				}
				jr := rep.Results[0]
				if jr.Err != nil {
					t.Fatal(jr.Err)
				}
				wantSkipped, wantAttempts := 0, 1
				if row.skipped {
					wantSkipped, wantAttempts = 1, 0
				}
				if rep.Skipped != wantSkipped || jr.Attempts != wantAttempts {
					t.Errorf("Skipped=%d Attempts=%d, want Skipped=%d Attempts=%d",
						rep.Skipped, jr.Attempts, wantSkipped, wantAttempts)
				}
			})
		}
	}
}
