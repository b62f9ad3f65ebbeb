package campaign

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/fuzz"
	"repro/internal/memo"
)

// onchain_determinism_test.go pins the engine contract for the on-chain-data
// scenario oracles (StateTamper, OrderDep, CrossContract): their verdicts
// ride the same digest-invariance promises as the five trace oracles. The
// scenario driver replays fixed scripts on fresh held-block chains, so
// nothing about worker scheduling, memoization, triage, the incremental
// solver, the fast execution engine, or a journal kill+resume may move a
// scenario verdict.

// onchainSpecs is the deterministic spec list behind onchainJobs; job IDs
// index into it, so runs can be scored against generator ground truth.
func onchainSpecs() []contractgen.Spec {
	classes := []contractgen.Class{
		contractgen.ClassStateTamper,
		contractgen.ClassOrderDep,
		contractgen.ClassCrossContract,
	}
	var specs []contractgen.Spec
	for _, seed := range []int64{3, 9} {
		for _, class := range classes {
			for _, vul := range []bool{true, false} {
				specs = append(specs, contractgen.Spec{Class: class, Vulnerable: vul, Seed: seed})
			}
		}
	}
	return specs
}

// onchainJobs builds a population of only the scenario-class fixtures, both
// polarities across a few generator seeds.
func onchainJobs(tb testing.TB, iterations int) []Job {
	tb.Helper()
	var jobs []Job
	for _, spec := range onchainSpecs() {
		c, err := contractgen.Generate(spec)
		if err != nil {
			tb.Fatalf("generate %v/%v seed=%d: %v", spec.Class, spec.Vulnerable, spec.Seed, err)
		}
		jobs = append(jobs, Job{
			Name:   fmt.Sprintf("%s-vul=%v-seed=%d", spec.Class, spec.Vulnerable, spec.Seed),
			Module: c.Module,
			ABI:    c.ABI,
			Config: fuzz.Config{Iterations: iterations, SolverConflicts: 50_000},
		})
	}
	return jobs
}

// checkOnchainVerdicts guards against vacuous digest equality: every
// vulnerable scenario fixture must be flagged for its own class and every
// safe one must be clean, in whichever run the caller hands over.
func checkOnchainVerdicts(t *testing.T, rep *Report) {
	t.Helper()
	specs := onchainSpecs()
	for _, jr := range rep.Results {
		if jr.Err != nil {
			t.Fatalf("job %q failed: %v", jr.Job.Name, jr.Err)
		}
		if jr.Skipped {
			t.Fatalf("job %q skipped: scenario fixtures carry db writes and sends, no triage layer may prove them clean", jr.Job.Name)
		}
		spec := specs[jr.Job.ID]
		if got := jr.Result.Report.Vulnerable[spec.Class]; got != spec.Vulnerable {
			t.Errorf("%s: %s verdict = %v, ground truth %v", jr.Job.Name, spec.Class, got, spec.Vulnerable)
		}
	}
}

// TestOnChainOracleDeterminism runs the scenario-class population at 1, 4
// and 8 workers, plain and with every engine layer stacked (memoization,
// candidate triage, verdict triage), and
// requires byte-identical findings digests throughout — plus identical
// state digests across worker counts of the plain configuration.
func TestOnChainOracleDeterminism(t *testing.T) {
	mk := func() []Job { return onchainJobs(t, 30) }
	ref, err := Run(context.Background(), mk(), Config{Workers: 1, BaseSeed: 7})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	checkOnchainVerdicts(t, ref)
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			plain, err := Run(context.Background(), mk(), Config{Workers: workers, BaseSeed: 7})
			if err != nil {
				t.Fatalf("plain run: %v", err)
			}
			if got, want := plain.FindingsDigest(), ref.FindingsDigest(); got != want {
				t.Errorf("plain FindingsDigest diverged:\n got: %s\nwant: %s", got, want)
			}
			if got, want := plain.StateDigest(), ref.StateDigest(); got != want {
				t.Errorf("plain StateDigest diverged:\n got: %s\nwant: %s", got, want)
			}
			layered, err := Run(context.Background(), mk(), Config{
				Workers:      workers,
				BaseSeed:     7,
				Memo:         memo.ModeOn,
				StaticTriage: true,
				Verdicts:     true,
			})
			if err != nil {
				t.Fatalf("layered run: %v", err)
			}
			checkOnchainVerdicts(t, layered)
			if got, want := layered.FindingsDigest(), ref.FindingsDigest(); got != want {
				t.Errorf("layered FindingsDigest diverged:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestOnChainOracleKillResume composes the scenario oracles with the
// journal: a fully layered campaign killed mid-flight and resumed must
// reproduce the uninterrupted findings digest.
func TestOnChainOracleKillResume(t *testing.T) {
	mk := func() []Job { return onchainJobs(t, 30) }
	cfg := Config{
		Workers:  4,
		BaseSeed: 5,
		Memo:     memo.ModeOn,
		Verdicts: true,
	}
	ref, err := Run(context.Background(), mk(), cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	checkOnchainVerdicts(t, ref)

	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	icfg := cfg
	icfg.Journal = journal
	e, err := Start(ctx, icfg)
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
		if completed == 3 {
			cancel()
		}
	}
	if completed < 3 {
		t.Fatalf("interrupted run completed only %d jobs before draining", completed)
	}

	rcfg := cfg
	rcfg.Journal = journal
	rcfg.Resume = true
	rep, err := Run(context.Background(), mk(), rcfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if rep.Replayed == 0 {
		t.Fatal("resumed run replayed nothing from the journal")
	}
	if got, want := rep.FindingsDigest(), ref.FindingsDigest(); got != want {
		t.Errorf("FindingsDigest diverged after kill+resume:\n got: %s\nwant: %s", got, want)
	}
}
