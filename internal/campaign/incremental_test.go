package campaign

import (
	"fmt"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/memo"
	"repro/internal/symbolic"
)

// incremental_test.go holds the solver-level witness for the fresh solver
// pool, the only solver path since the incremental prefix-sharing pre-pass
// was deleted: a solver-side layer may only ever change solver work, never
// digests, and must compose with memoization, fault-injected retries, and
// journal kill+resume. The pre-pass-off side
// of the former off/on differential is pinned twice: as the golden digests
// of golden_test.go and as the solver work below.

// Solver work of the golden populations, captured with the golden digests
// (fresh pool, pre-pass off). Each query's work is deterministic, so the
// merged counters are worker-count invariant and survive a journal resume.
var (
	goldenSolver16 = symbolic.SolverStats{Queries: 50, FastPathHits: 48, SATCalls: 2, Propagations: 1103}
	goldenSolver12 = symbolic.SolverStats{Queries: 32, FastPathHits: 30, SATCalls: 2, Propagations: 1230}
)

// requireSolverWork requires the campaign's merged solver statistics.
func requireSolverWork(t *testing.T, rep *Report, want symbolic.SolverStats) {
	t.Helper()
	if rep.SolverStats != want {
		t.Errorf("SolverStats %+v, want %+v", rep.SolverStats, want)
	}
}

// TestIncrementalDigestInvariance is the solver path's core contract at
// every worker count the determinism suite uses: reference digests and
// reference solver work at each.
func TestIncrementalDigestInvariance(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rep := requireGolden(t, runJobs(mk, Config{Workers: workers, BaseSeed: 7}), goldenFindings16, goldenState16)
			requireSolverWork(t, rep, goldenSolver16)
		})
	}
}

// TestIncrementalComposesWithMemoAndTriage stacks the pool on top of
// cross-job memoization. The pool answers memo hits
// before it starts workers and still counts each as a query, so Queries
// matches the reference; which of two workers racing on one key misses
// first is scheduling-dependent, so the other counters are not pinned.
func TestIncrementalComposesWithMemoAndTriage(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	rep := requireGolden(t, runJobs(mk, Config{
		Workers:  4,
		BaseSeed: 7,
		Memo:     memo.ModeOn,
	}), goldenFindings16, goldenState16)
	if got, want := rep.SolverStats.Queries, goldenSolver16.Queries; got != want {
		t.Errorf("SolverStats.Queries %d, want %d", got, want)
	}
}

// TestIncrementalComposesWithChaos injects faults with retries enabled.
// The injector's per-query call count is deterministic, so every verdict
// must match the reference's, and the accepted attempts do the fault-free
// solver work.
func TestIncrementalComposesWithChaos(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	rep := requireGolden(t, runJobs(mk, Config{
		Workers:  4,
		BaseSeed: 7,
		Faults:   &faultinject.Plan{Seed: 99, Rate: 0.2},
		Retry:    RetryPolicy{MaxAttempts: 3},
	}), goldenChaosFindings16, goldenChaosState16)
	requireSolverWork(t, rep, goldenSolver16)
}

// TestIncrementalKillResume kills a campaign mid-flight and resumes it
// from the journal: the stitched result must match the uninterrupted
// reference bit for bit, solver work included.
func TestIncrementalKillResume(t *testing.T) {
	mk := func() []Job { return testJobs(t, 12, 30, 21) }
	rep := requireGolden(t, killResume(mk, Config{Workers: 4, BaseSeed: 5}), goldenFindings12, goldenState12)
	requireSolverWork(t, rep, goldenSolver12)
}
