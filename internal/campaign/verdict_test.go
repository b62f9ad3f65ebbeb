package campaign

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/fuzz"
	"repro/internal/scanner"
	"repro/internal/wal"
)

// verdict_test.go holds the engine tests around the contracts whose every
// class the abstract-interpretation verdict engine proves negative
// (contractgen.Trivial). The engine triages nothing before execution, so
// those contracts fuzz like any other, and a journal that records one as
// answered without execution still resumes.

// trivialJob is a job over a contractgen.Trivial contract.
func trivialJob(name string, iterations int) Job {
	c := contractgen.Trivial()
	return Job{Name: name, Module: c.Module, ABI: c.ABI,
		Config: fuzz.Config{Iterations: iterations, SolverConflicts: 50_000}}
}

// TestVerdictDigestInvariance: the golden population with four trivial
// contracts appended runs every job at 1, 4 and 8 workers, to one state
// digest, and the appended jobs leave the golden jobs' digests as pinned.
func TestVerdictDigestInvariance(t *testing.T) {
	const golden = 16
	mk := func() []Job {
		jobs := testJobs(t, golden, 30, 13)
		for i := 0; i < 4; i++ {
			jobs = append(jobs, trivialJob(fmt.Sprintf("trivial-%d", i), 30))
		}
		return jobs
	}
	var refState string
	for i, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rep, err := Run(context.Background(), mk(), Config{Workers: workers, BaseSeed: 7})
			if err != nil {
				t.Fatal(err)
			}
			pinned := Aggregate(rep.Results[:golden], 0)
			if got := sha256Hex(pinned.FindingsDigest()); got != goldenFindings16 {
				t.Errorf("golden jobs' FindingsDigest sha256 %s, want %s", got, goldenFindings16)
			}
			if got := sha256Hex(pinned.StateDigest()); got != goldenState16 {
				t.Errorf("golden jobs' StateDigest sha256 %s, want %s", got, goldenState16)
			}
			for _, jr := range rep.Results[golden:] {
				if jr.Err != nil {
					t.Fatalf("%s: %v", jr.Job.Name, jr.Err)
				}
				if jr.Attempts != 1 || jr.Result.Iterations != 30 {
					t.Errorf("%s: %d attempts, %d iterations; want one attempt of 30", jr.Job.Name, jr.Attempts, jr.Result.Iterations)
				}
			}
			if i == 0 {
				refState = rep.StateDigest()
				return
			}
			if rep.StateDigest() != refState {
				t.Error("state digest drifted across worker counts")
			}
		})
	}
}

// TestTriageRunsObservedJobs: no triage decides whether a job runs. A
// trivial job runs exactly one attempt whether or not a custom detector or
// trace capture observes it, with Adaptive off and on, and the observers
// deliver what they observed.
func TestTriageRunsObservedJobs(t *testing.T) {
	rows := []struct {
		name    string
		observe func(*Job)
		check   func(*fuzz.Result) error
	}{
		{"plain", func(*Job) {}, func(*fuzz.Result) error { return nil }},
		{"custom-detector", func(job *Job) {
			job.Config.CustomDetectors = []scanner.CustomDetector{
				scanner.NewAPICallDetector("probe", job.Module, "current_time"),
			}
		}, func(res *fuzz.Result) error {
			if fired, ok := res.Custom["probe"]; !ok || fired {
				return fmt.Errorf("custom verdicts %v, want probe=false", res.Custom)
			}
			return nil
		}},
		{"keep-traces", func(job *Job) { job.Config.KeepTraces = true }, func(res *fuzz.Result) error {
			if len(res.Traces) == 0 {
				return fmt.Errorf("no traces kept")
			}
			return nil
		}},
	}
	for _, adaptive := range []bool{false, true} {
		for _, row := range rows {
			t.Run(fmt.Sprintf("%s/adaptive=%v", row.name, adaptive), func(t *testing.T) {
				job := trivialJob("trivial", 5)
				row.observe(&job)
				rep, err := Run(context.Background(), []Job{job}, Config{Workers: 1, Adaptive: adaptive})
				if err != nil {
					t.Fatal(err)
				}
				jr := rep.Results[0]
				if jr.Err != nil {
					t.Fatal(jr.Err)
				}
				if jr.Attempts != 1 || jr.Result.Iterations == 0 {
					t.Errorf("%d attempts, %d iterations; want one attempt that fuzzed", jr.Attempts, jr.Result.Iterations)
				}
				if err := row.check(jr.Result); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestVerdictKillResume resumes a journal written before the verdict skip
// was removed: next to the ordinary records of a campaign killed after
// four jobs, it holds a trivial job's record as that engine wrote it for a
// job it answered without execution, "skipped":true and no flags. The
// resume replays that job and reproduces the uninterrupted findings.
func TestVerdictKillResume(t *testing.T) {
	jobs := append(testJobs(t, 8, 30, 21), trivialJob("trivial", 30))
	trivialID := len(jobs) - 1
	// One worker journals the records in job order.
	cfg := Config{Workers: 1, BaseSeed: 5, Journal: filepath.Join(t.TempDir(), "campaign.jsonl"), JournalSync: 1}
	ref, err := Run(context.Background(), jobs, cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	keepJournalPrefix(t, cfg.Journal, 4)
	log, _, err := wal.Open(cfg.Journal, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append([]byte(fmt.Sprintf(`{"id":%d,"name":"trivial","skipped":true}`, trivialID))); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Workers, rcfg.Resume = 4, true
	rep, err := Run(context.Background(), jobs, rcfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if rep.Replayed != 5 || !rep.Results[trivialID].Replayed {
		t.Errorf("replayed %d jobs (trivial job replayed=%v), want the 4 kept records and the trivial job",
			rep.Replayed, rep.Results[trivialID].Replayed)
	}
	if got, want := rep.FindingsDigest(), ref.FindingsDigest(); got != want {
		t.Errorf("FindingsDigest diverged after resuming the old journal:\n got: %s\nwant: %s", got, want)
	}
}
