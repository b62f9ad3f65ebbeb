package campaign

import (
	"fmt"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/fuzz"
	"repro/internal/memo"
	"repro/internal/wasm"
)

// Golden digests of sharedModuleJobs with BaseSeed 11, captured before
// jobs shared per-bytecode artifacts, when every job instrumented and
// compiled its own copy and kept its replay outcomes to itself. They are
// SHA-256 hex of the FindingsDigest and StateDigest text.
const (
	// Fault-free, adaptive or not: every job finds the same.
	goldenSharedFindings = "f185f319ac1bb22aa86a0afbb9fc4c27b9b44bcd7143d06ed39ccb596c7e5ca4"
	goldenSharedState    = "f679b63e6560342849b3451ee9e836d37117a4292fef3e9960e644f7a09294d9"
	// Adaptive with SaturationWindow 8: the fuel ledger regrants 30
	// iterations.
	goldenSharedAdaptiveState = "ece7971ccf6ce5b5d57c0dfcd6e83d4f7ac7b407ef0f3ec991f6d4c92529c7a1"
	// faultinject.Plan{Seed: 99, Rate: 0.2} with three attempts: one job
	// retries degraded.
	goldenSharedChaosFindings = "d660ace777d22b92a7f996823febe1baa56e75d86dddcfa8e9f095184f105583"
	goldenSharedChaosState    = "3c3ea00935329b35ba3eebed8945e67acd64ea77e7283a8ea86a1769cdc7199e"
)

// sharedModuleJobs is a campaign in which three modules appear four times
// each, interleaved with six modules that appear once. Repeats share the
// *wasm.Module pointer, so their jobs share an artifact on each worker.
func sharedModuleJobs(tb testing.TB) []Job {
	tb.Helper()
	base := testJobs(tb, 9, 30, 17)
	pattern := []int{0, 3, 1, 0, 4, 2, 1, 0, 5, 2, 6, 1, 2, 7, 0, 8, 1, 2}
	jobs := make([]Job, len(pattern))
	for i, k := range pattern {
		jobs[i] = base[k]
		jobs[i].Name = fmt.Sprintf("contract-%d-job-%d", k, i)
	}
	return jobs
}

// sharedGoldenRows are the five campaigns over sharedModuleJobs at one
// worker count, each with the digests it must reproduce.
func sharedGoldenRows(t *testing.T, workers int) []struct {
	name            string
	run             func(*testing.T) *Report
	findings, state string
} {
	mk := func() []Job { return sharedModuleJobs(t) }
	bare := Config{Workers: workers, BaseSeed: 11}
	full := bare
	full.Memo = memo.ModeOn
	adaptive := bare
	adaptive.Adaptive, adaptive.SaturationWindow = true, 8
	chaos := bare
	chaos.Faults, chaos.Retry = &faultinject.Plan{Seed: 99, Rate: 0.2}, RetryPolicy{MaxAttempts: 3}
	return []struct {
		name            string
		run             func(*testing.T) *Report
		findings, state string
	}{
		{"bare", runJobs(mk, bare), goldenSharedFindings, goldenSharedState},
		{"memo-verdicts", runJobs(mk, full), goldenSharedFindings, goldenSharedState},
		{"adaptive", runJobs(mk, adaptive), goldenSharedFindings, goldenSharedAdaptiveState},
		{"chaos", runJobs(mk, chaos), goldenSharedChaosFindings, goldenSharedChaosState},
		{"kill-resume", killResume(mk, bare), goldenSharedFindings, goldenSharedState},
	}
}

// TestSharedModuleGolden pins campaigns whose jobs share modules, bare,
// with memo, adaptive with fuel moving, under chaos with
// retries and across a kill and resume, at 1, 4 and 8 workers.
func TestSharedModuleGolden(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		for _, r := range sharedGoldenRows(t, workers) {
			t.Run(fmt.Sprintf("%s/workers=%d", r.name, workers), func(t *testing.T) {
				rep := requireGolden(t, r.run, r.findings, r.state)
				if r.name == "adaptive" && rep.Sched.FuelReallocated == 0 {
					t.Fatalf("the fuel ledger moved no fuel: %+v", rep.Sched)
				}
				if r.name == "chaos" && rep.Retried == 0 {
					t.Fatal("no job retried")
				}
			})
		}
	}
}

// TestArtifactTableBound: with room for two artifacts per worker, a
// campaign over nine distinct modules still reproduces every golden
// digest of TestSharedModuleGolden.
func TestArtifactTableBound(t *testing.T) {
	defer func(n int) { maxWorkerArtifacts = n }(maxWorkerArtifacts)
	maxWorkerArtifacts = 2
	for _, workers := range []int{1, 4} {
		for _, r := range sharedGoldenRows(t, workers) {
			t.Run(fmt.Sprintf("%s/workers=%d", r.name, workers), func(t *testing.T) {
				requireGolden(t, r.run, r.findings, r.state)
			})
		}
	}
}

// TestArtifactCacheEvictsLeastRecentlyUsed: a worker's table never holds
// more than maxWorkerArtifacts, hands back the artifact it holds for a
// module, and evicts the least recently used entry to make room.
func TestArtifactCacheEvictsLeastRecentlyUsed(t *testing.T) {
	defer func(n int) { maxWorkerArtifacts = n }(maxWorkerArtifacts)
	maxWorkerArtifacts = 3
	jobs := testJobs(t, 5, 1, 23)
	var c artifactCache
	built := map[*wasm.Module]*fuzz.Artifact{}
	use := func(k int) *fuzz.Artifact {
		t.Helper()
		a, err := c.artifact(jobs[k].Module)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.byModule) > maxWorkerArtifacts || len(c.order) != len(c.byModule) {
			t.Fatalf("table holds %d artifacts in %d order slots, cap %d", len(c.byModule), len(c.order), maxWorkerArtifacts)
		}
		return a
	}
	for k := 0; k < 3; k++ {
		built[jobs[k].Module] = use(k)
	}
	if use(0) != built[jobs[0].Module] {
		t.Error("the table built a second artifact for a module it holds")
	}
	use(3) // evicts module 1, the least recently used
	use(4) // evicts module 2
	if use(0) != built[jobs[0].Module] {
		t.Error("the most recently used old artifact was evicted")
	}
	if use(1) == built[jobs[1].Module] {
		t.Error("the least recently used artifact was not evicted")
	}
}

// TestParkedJobsShareArtifactsAcrossWorkers: eight adaptive jobs on one
// module park after phase 1 holding the artifacts of the workers that ran
// them, and resume after the fuel ledger on whichever worker is free, so
// jobs on one artifact record replay outcomes from different workers at
// once. Run it under -race; the digests must not depend on the worker
// count.
func TestParkedJobsShareArtifactsAcrossWorkers(t *testing.T) {
	mk := func() []Job {
		base := testJobs(t, 1, 40, 29)[0]
		jobs := make([]Job, 8)
		for i := range jobs {
			jobs[i] = base
			jobs[i].Name = fmt.Sprintf("fork-%d", i)
		}
		return jobs
	}
	cfg := Config{Workers: 1, BaseSeed: 2, Adaptive: true, SaturationWindow: 8}
	ref := runJobs(mk, cfg)(t)
	if ref.Failed != 0 || ref.Sched.FuelReallocated == 0 {
		t.Fatalf("reference: %d failed, %d iterations reallocated", ref.Failed, ref.Sched.FuelReallocated)
	}
	for _, workers := range []int{2, 4} {
		cfg.Workers = workers
		rep := runJobs(mk, cfg)(t)
		if rep.FindingsDigest() != ref.FindingsDigest() || rep.StateDigest() != ref.StateDigest() {
			t.Errorf("workers=%d: digests differ from one worker's", workers)
		}
	}
}
