package wasai

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/fuzz"
	wasmpkg "repro/internal/wasm"
)

// wildBatch draws n contracts of the RQ4 wild population (seed 1) and
// submits each as Wasm bytes and ABI JSON, as a scanner receives them.
func wildBatch(t *testing.T, n int) []BatchJob {
	t.Helper()
	pop, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(n), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("GenerateWild: %v", err)
	}
	jobs := make([]BatchJob, len(pop))
	for i := range pop {
		bin, err := wasmpkg.Encode(pop[i].Contract.Module)
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		abiJSON, err := json.Marshal(pop[i].Contract.ABI)
		if err != nil {
			t.Fatalf("marshal abi %d: %v", i, err)
		}
		jobs[i] = BatchJob{Name: pop[i].Name.String(), Wasm: bin, ABIJSON: abiJSON}
	}
	return jobs
}

// TestAnalyzeBatchBuildsOneArtifactPerBytecode pins the work a one-worker
// batch over 256 wild contracts does per bytecode. The population holds 46
// distinct modules, and the batch decodes each once, so the worker builds
// 46 artifacts; jobs on one artifact share their Symback replay outcomes.
// Before artifacts, every job instrumented and compiled its module and
// kept its replay outcomes to itself: 256 builds and 5,520 replays.
func TestAnalyzeBatchBuildsOneArtifactPerBytecode(t *testing.T) {
	jobs := wildBatch(t, 256)
	cfg := DefaultBatchConfig()
	cfg.Workers = 1
	builds0, replays0 := fuzz.Work()
	rep, err := AnalyzeBatch(context.Background(), jobs, cfg)
	if err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}
	builds1, replays1 := fuzz.Work()
	if rep.Failed != 0 {
		t.Fatalf("%d contracts failed", rep.Failed)
	}
	if got := builds1 - builds0; got != 46 {
		t.Errorf("%d artifacts built, want 46", got)
	}
	if got := replays1 - replays0; got != wantWildReplays {
		t.Errorf("%d replays run, want %d", got, wantWildReplays)
	}
}

// wantWildReplays is the replay count of the one-worker batch above.
const wantWildReplays = 3386

// TestAnalyzeBatchVerdictsOnCopies: the deprecated Verdicts field changes
// nothing, for a batch of copies of one contract's bytes or for one
// contract. With it set, no copy is skipped, the trivial copies fuzz their
// full budget like the others, and every copy reports exactly what serial
// AnalyzeModule reports with its seed.
func TestAnalyzeBatchVerdictsOnCopies(t *testing.T) {
	contracts, byteJobs := batchContracts(t, 4)
	trivial := contractgen.Trivial()
	bin, err := wasmpkg.Encode(trivial.Module)
	if err != nil {
		t.Fatal(err)
	}
	abiJSON, err := json.Marshal(trivial.ABI)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []BatchJob
	var want []*contractgen.Contract
	for k := 0; k < 3; k++ {
		jobs = append(jobs,
			BatchJob{Name: fmt.Sprintf("c00-copy%d", k), Wasm: byteJobs[0].Wasm, ABIJSON: byteJobs[0].ABIJSON},
			BatchJob{Name: fmt.Sprintf("trivial-copy%d", k), Wasm: bin, ABIJSON: abiJSON})
		want = append(want, contracts[0], trivial)
	}
	cfg := DefaultBatchConfig()
	cfg.Iterations = 30
	cfg.Seed = 9
	cfg.Workers = 2
	cfg.Verdicts = true
	rep, err := AnalyzeBatch(context.Background(), jobs, cfg)
	if err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}
	if rep.Skipped != 0 {
		t.Errorf("%d contracts skipped, want 0", rep.Skipped)
	}
	for i, c := range want {
		scfg := cfg.Config
		scfg.Seed = cfg.Seed + int64(i)
		serial, err := AnalyzeModule(c.Module, c.ABI, scfg)
		if err != nil {
			t.Fatalf("serial %d: %v", i, err)
		}
		got := rep.Jobs[i]
		if got.Err != nil {
			t.Fatalf("job %d: %v", i, got.Err)
		}
		if got.Report.Iterations != cfg.Iterations || !reflect.DeepEqual(got.Report, serial) {
			t.Errorf("job %d diverges:\nbatch:  %+v\nserial: %+v", i, got.Report, serial)
		}
	}
}
