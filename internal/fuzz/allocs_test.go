package fuzz

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/contractgen"
)

// iterationAllocs bounds the heap allocations of one fuzz iteration,
// averaged over RunPhase on a 64-contract wild population. It measures
// 5.64 (on linux/amd64); it was 27.87 before receipts, host results and
// arguments, the fuzzer's per-transaction scratch and symbolic nodes
// stopped allocating per use. What remains is mostly kept: database
// rows, new seeds, replay-cache entries and solver work, plus each
// revert's error chain.
const iterationAllocs = 8

// TestIterationAllocs counts runtime.MemStats.Mallocs around RunPhase for
// every contract of the population, each job under DefaultConfig with
// its own seed, and bounds the allocations per iteration.
func TestIterationAllocs(t *testing.T) {
	pop, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(64), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("GenerateWild: %v", err)
	}
	var ms runtime.MemStats
	var mallocs uint64
	iters := 0
	for i, wc := range pop {
		cfg := DefaultConfig()
		cfg.Seed = int64(i + 1)
		f, err := New(wc.Contract.Module, wc.Contract.ABI, cfg)
		if err != nil {
			t.Fatalf("contract %d: New: %v", i, err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		rep, err := f.RunPhase(context.Background())
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		if err != nil {
			t.Fatalf("contract %d: RunPhase: %v", i, err)
		}
		iters += rep.Iterations
		if _, err := f.Finish(context.Background()); err != nil {
			t.Fatalf("contract %d: Finish: %v", i, err)
		}
	}
	perIter := float64(mallocs) / float64(iters)
	t.Logf("%d iterations, %.2f allocations per iteration", iters, perIter)
	if perIter > iterationAllocs {
		t.Errorf("a fuzz iteration makes %.2f allocations, want at most %d", perIter, iterationAllocs)
	}
}
