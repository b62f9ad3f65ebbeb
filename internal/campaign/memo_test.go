package campaign

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/memo"
)

// TestMemoDifferentialWorkers is the cache layer's hard invariant: the
// same batch run cache-off and cache-on produces byte-identical
// FindingsDigest and StateDigest at 1, 4 and 8 workers, equal to the golden
// digests — and the cache actually absorbs work (non-zero hits, no extra
// solving).
func TestMemoDifferentialWorkers(t *testing.T) {
	mk := func() []Job { return testJobs(t, 18, 30, 42) }
	ref := requireGolden(t, runJobs(mk, Config{Workers: 1, BaseSeed: 7}), goldenFindings18, goldenState18)
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, mode := range []memo.Mode{memo.ModeOff, memo.ModeOn} {
				rep, err := Run(context.Background(), mk(), Config{Workers: workers, BaseSeed: 7, Memo: mode})
				if err != nil {
					t.Fatalf("memo=%s: %v", mode, err)
				}
				if got, want := rep.FindingsDigest(), ref.FindingsDigest(); got != want {
					t.Errorf("memo=%s FindingsDigest diverged:\n got: %s\nwant: %s", mode, got, want)
				}
				if got, want := rep.StateDigest(), ref.StateDigest(); got != want {
					t.Errorf("memo=%s StateDigest diverged:\n got: %s\nwant: %s", mode, got, want)
				}
				if mode == memo.ModeOn {
					if rep.Memo == nil {
						t.Fatal("memo=on report carries no cache stats")
					}
					if rep.Memo.SolverHits == 0 {
						t.Error("memo=on run recorded zero solver cache hits; nothing was memoized")
					}
					if rep.SolverStats.SATCalls > ref.SolverStats.SATCalls {
						t.Errorf("memo=on did more DPLL work than off: %d > %d",
							rep.SolverStats.SATCalls, ref.SolverStats.SATCalls)
					}
				} else if rep.Memo != nil {
					t.Error("memo=off report carries cache stats")
				}
			}
		})
	}
}

// TestMemoComposesWithTriageAndRetries runs the cache together with static
// triage and the retry policy: the composed configuration must still match
// the plain run's findings (triage legitimately changes StateDigest for
// skipped jobs, so only FindingsDigest is compared).
func TestMemoComposesWithTriageAndRetries(t *testing.T) {
	mk := func() []Job { return testJobs(t, 12, 25, 11) }
	ref, err := Run(context.Background(), mk(), Config{Workers: 2, BaseSeed: 3})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	rep, err := Run(context.Background(), mk(), Config{
		Workers:      4,
		BaseSeed:     3,
		Memo:         memo.ModeOn,
		StaticTriage: true,
		Retry:        RetryPolicy{MaxAttempts: 2},
	})
	if err != nil {
		t.Fatalf("composed run: %v", err)
	}
	if got, want := rep.FindingsDigest(), ref.FindingsDigest(); got != want {
		t.Errorf("memo+triage+retry FindingsDigest diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestMemoKillResumeDigestIdentity composes the cache with the journal:
// a memoized campaign killed mid-flight and resumed (with a fresh cache —
// ModeOn — and again with the process-shared cache) must reproduce the
// uninterrupted memo-off digests, which equal the golden digests.
func TestMemoKillResumeDigestIdentity(t *testing.T) {
	const nJobs = 12
	mk := func() []Job { return testJobs(t, nJobs, 30, 21) }
	cfg := Config{Workers: 4, BaseSeed: 5}
	ref := requireGolden(t, runJobs(mk, cfg), goldenFindings12, goldenState12)

	for _, mode := range []memo.Mode{memo.ModeOn, memo.ModeShared} {
		t.Run(string(mode), func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "campaign.jsonl")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			icfg := cfg
			icfg.Journal = journal
			icfg.Memo = mode
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
						return
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

			rcfg := cfg
			rcfg.Journal = journal
			rcfg.Resume = true
			rcfg.Memo = mode
			rep, err := Run(context.Background(), mk(), rcfg)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if rep.Replayed == 0 {
				t.Fatal("resumed run replayed nothing from the journal")
			}
			if got, want := rep.FindingsDigest(), ref.FindingsDigest(); got != want {
				t.Errorf("FindingsDigest diverged after kill+resume with memo:\n got: %s\nwant: %s", got, want)
			}
			if got, want := rep.StateDigest(), ref.StateDigest(); got != want {
				t.Errorf("StateDigest diverged after kill+resume with memo:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestFaultMemoMatrix is the fault×memo hygiene proof: for every fault
// kind, a faulted campaign sharing a cache must (a) never read or write
// the solver tier from faulted attempts — with every attempt of every job
// faulted, the shared cache's solver counters stay zero — and (b) never
// poison shared state: a clean campaign run against the post-fault cache
// must match the memo-off reference byte for byte.
func TestFaultMemoMatrix(t *testing.T) {
	mk := func() []Job { return testJobs(t, 8, 20, 31) }
	ref, err := Run(context.Background(), mk(), Config{Workers: 2, BaseSeed: 13})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	for _, kind := range faultinject.AllKinds {
		t.Run(kind.String(), func(t *testing.T) {
			cache := memo.New()
			// Fault every attempt of every job so no attempt is eligible
			// for memoization; terminal failures are expected and fine.
			plan := &faultinject.Plan{Seed: 99, Rate: 1.0, Kinds: []faultinject.Kind{kind}, Attempts: 1 << 20}
			_, err := Run(context.Background(), mk(), Config{
				Workers:   2,
				BaseSeed:  13,
				Faults:    plan,
				Retry:     RetryPolicy{MaxAttempts: 2},
				MemoCache: cache,
			})
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			st := cache.Snapshot()
			if st.SolverHits != 0 || st.SolverUnsatHits != 0 || st.SolverMisses != 0 {
				t.Fatalf("faulted attempts touched the solver cache: %+v", st)
			}

			// The same cache then serves a clean campaign: if any faulted
			// state leaked in, these digests change.
			rep, err := Run(context.Background(), mk(), Config{Workers: 4, BaseSeed: 13, MemoCache: cache})
			if err != nil {
				t.Fatalf("clean run on post-fault cache: %v", err)
			}
			if got, want := rep.FindingsDigest(), ref.FindingsDigest(); got != want {
				t.Errorf("FindingsDigest diverged on post-fault cache:\n got: %s\nwant: %s", got, want)
			}
			if got, want := rep.StateDigest(), ref.StateDigest(); got != want {
				t.Errorf("StateDigest diverged on post-fault cache:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestMemoFaultedAttemptRetryUsesCache checks the converse boundary: with
// the default plan (only attempt 0 faulted), the retry attempt is clean
// and may use the cache — recovery must not disable memoization forever.
func TestMemoFaultedAttemptRetryUsesCache(t *testing.T) {
	mk := func() []Job { return testJobs(t, 8, 20, 31) }
	cache := memo.New()
	plan := &faultinject.Plan{Seed: 4, Rate: 0.5}
	rep, err := Run(context.Background(), mk(), Config{
		Workers:   2,
		BaseSeed:  13,
		Faults:    plan,
		Retry:     RetryPolicy{MaxAttempts: 3},
		MemoCache: cache,
	})
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if rep.Retried == 0 {
		t.Skip("plan faulted no jobs at this seed; nothing to check")
	}
	st := cache.Snapshot()
	if st.SolverMisses == 0 {
		t.Error("clean retry attempts never consulted the cache")
	}
}
