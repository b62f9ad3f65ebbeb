package wasai_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	wasai "repro"
	"repro/internal/contractgen"
	"repro/internal/wasm"
)

// TestAnalyzeStatic checks the public pre-analysis facade end to end: a
// generated vulnerable contract carries its class candidate, the trivial
// contract carries none.
func TestAnalyzeStatic(t *testing.T) {
	for i, class := range contractgen.Classes {
		c, err := contractgen.Generate(contractgen.Spec{
			Class: class, Vulnerable: true, Seed: int64(60 + i),
		})
		if err != nil {
			t.Fatalf("generate %s: %v", class, err)
		}
		bin, err := wasm.Encode(c.Module)
		if err != nil {
			t.Fatalf("encode %s: %v", class, err)
		}
		rep, err := wasai.AnalyzeStatic(bin)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		found := false
		for _, cand := range rep.Candidates {
			if cand.Class == class.String() {
				found = true
				if !cand.Candidate {
					t.Errorf("%s: vulnerable contract lacks its candidate flag", class)
				}
			}
		}
		if !found {
			t.Errorf("%s: class missing from candidates: %+v", class, rep.Candidates)
		}
		if !rep.AnyCandidate() {
			t.Errorf("%s: AnyCandidate() = false", class)
		}
	}

	trivial := contractgen.Trivial()
	rep, err := wasai.AnalyzeStaticModule(trivial.Module)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AnyCandidate() {
		t.Errorf("trivial contract has candidates: %+v", rep.Candidates)
	}
}

// TestBatchStaticTriage: the deprecated StaticTriage and Verdicts fields
// change nothing. With both set, every contract of the batch, the trivial
// ones whose every class absint proves negative included, reports exactly
// what it reports with neither, and none is skipped.
func TestBatchStaticTriage(t *testing.T) {
	var jobs []wasai.BatchJob
	for i, class := range contractgen.Classes {
		c, err := contractgen.Generate(contractgen.Spec{
			Class: class, Vulnerable: i%2 == 0, Seed: int64(80 + i),
		})
		if err != nil {
			t.Fatalf("generate %s: %v", class, err)
		}
		jobs = append(jobs, wasai.BatchJob{
			Name: fmt.Sprintf("%s-%d", class, i), Module: c.Module, ABI: c.ABI,
		})
	}
	for i := 0; i < 3; i++ {
		c := contractgen.Trivial()
		jobs = append(jobs, wasai.BatchJob{
			Name: fmt.Sprintf("trivial-%d", i), Module: c.Module, ABI: c.ABI,
		})
	}

	cfg := wasai.DefaultBatchConfig()
	cfg.Iterations = 30
	cfg.Workers = 4
	base, err := wasai.AnalyzeBatch(context.Background(), jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StaticTriage = true
	cfg.Verdicts = true
	triaged, err := wasai.AnalyzeBatch(context.Background(), jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Skipped != 0 || triaged.Skipped != 0 {
		t.Errorf("skipped %d jobs with the fields set, %d without; want 0", triaged.Skipped, base.Skipped)
	}
	for i := range base.Jobs {
		b, tr := base.Jobs[i], triaged.Jobs[i]
		if b.Err != nil || tr.Err != nil {
			t.Fatalf("job %d (%s): %v / %v", i, b.Name, b.Err, tr.Err)
		}
		if !reflect.DeepEqual(tr.Report, b.Report) {
			t.Errorf("job %d (%s): report %+v with the fields set, %+v without", i, b.Name, tr.Report, b.Report)
		}
		if b.Report.Iterations != cfg.Iterations {
			t.Errorf("job %d (%s): %d iterations, want %d", i, b.Name, b.Report.Iterations, cfg.Iterations)
		}
	}
}
