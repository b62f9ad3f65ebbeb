package campaign

import (
	"fmt"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/memo"
)

// fastvm_test.go holds the engine-level witness for the decoded-IR
// execution engine, the chain's only engine: it may only ever change
// execution throughput, never digests, and must compose with every other
// engine layer — memoization, static triage, fault-injected retries, and
// journal kill+resume. The tree-walker side of the former off/on
// differential is pinned as the golden digests of golden_test.go.

// TestFastVMDigestInvariance is the engine's core contract at every worker
// count the determinism suite uses, each checked against the same
// tree-walker reference.
func TestFastVMDigestInvariance(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			requireGolden(t, runJobs(mk, Config{Workers: workers, BaseSeed: 7}), goldenFindings16, goldenState16)
		})
	}
}

// TestFastVMComposesWithMemoTriageIncremental stacks the engine on top of
// cross-job memoization and static triage: each layer promises digest
// invariance, and this is the witness that the promises hold together, not
// just one at a time. The incremental solver it once also stacked is
// deleted; the fresh pool it deferred to is the one the golden pins.
func TestFastVMComposesWithMemoTriageIncremental(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	requireGolden(t, runJobs(mk, Config{
		Workers:      4,
		BaseSeed:     7,
		Memo:         memo.ModeOn,
		StaticTriage: true,
	}), goldenFindings16, goldenState16)
}

// TestFastVMComposesWithChaos injects faults with retries enabled. The
// engines are observably identical, so the injector's deterministic
// host-call count lands each fault on the same call the tree-walker
// reference saw, and every verdict must match it.
func TestFastVMComposesWithChaos(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	requireGolden(t, runJobs(mk, Config{
		Workers:  4,
		BaseSeed: 7,
		Faults:   &faultinject.Plan{Seed: 99, Rate: 0.2},
		Retry:    RetryPolicy{MaxAttempts: 3},
	}), goldenChaosFindings16, goldenChaosState16)
}

// TestFastVMKillResume kills a campaign mid-flight and resumes it from the
// journal: the stitched result must match the fault-free tree-walker
// reference bit for bit.
func TestFastVMKillResume(t *testing.T) {
	mk := func() []Job { return testJobs(t, 12, 30, 21) }
	requireGolden(t, killResume(mk, Config{Workers: 4, BaseSeed: 5}), goldenFindings12, goldenState12)
}
