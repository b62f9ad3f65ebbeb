package bench

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/static"
	"repro/internal/static/absint"
)

// TestEvaluateTriage smoke-runs the static-vs-dynamic agreement experiment
// at a small scale and asserts the two load-bearing properties: triage does
// not change findings, and the candidate flags are sound (zero false
// negatives against the dynamic verdicts — a dynamic finding whose class
// had no candidate flag would mean triage could have skipped a real bug).
func TestEvaluateTriage(t *testing.T) {
	ds, err := BuildGroundTruth(Table4Counts, Options{Scale: 0.002, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTriageConfig()
	cfg.FuzzIterations = 30
	cfg.Workers = 4
	cfg.Seed = 5
	cfg.TrivialContracts = 5
	res, err := EvaluateTriage(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DigestMatch {
		t.Error("triage changed the findings digest")
	}
	if res.Skipped != cfg.TrivialContracts {
		t.Errorf("skipped %d, want the %d trivial contracts", res.Skipped, cfg.TrivialContracts)
	}
	if res.Samples != len(ds.Samples)+cfg.TrivialContracts {
		t.Errorf("samples = %d, want %d", res.Samples, len(ds.Samples)+cfg.TrivialContracts)
	}
	for class, c := range res.PerClass {
		if c.FN > 0 {
			t.Errorf("%s: %d dynamic findings lacked the static candidate flag (unsound)", class, c.FN)
		}
	}
	if s := res.String(); s == "" {
		t.Error("empty render")
	}
}

// TestStaticNegativesAreAbsintNegatives pins the precondition for folding
// static triage into the absint verdicts: on the wild population and the
// Table-4 and verification datasets, every (contract, class) pair that
// static.Analyze leaves without a candidate flag is proven negative by
// absint.Analyze, so the verdicts alone skip at least what triage skips.
func TestStaticNegativesAreAbsintNegatives(t *testing.T) {
	wild, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(991), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	gt, err := BuildGroundTruth(Table4Counts, Options{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ver, err := BuildVerification(Table6Counts, Options{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	populations := map[string][]*contractgen.Contract{}
	for _, w := range wild {
		populations["wild"] = append(populations["wild"], w.Contract)
	}
	for _, ds := range []*Dataset{gt, ver} {
		for _, s := range ds.Samples {
			populations[ds.Name] = append(populations[ds.Name], s.Contract)
		}
	}
	for _, name := range []string{"wild", gt.Name, ver.Name} {
		var staticNeg, absintNeg, staticSkips, absintSkips int
		for i, c := range populations[name] {
			rep, err := static.Analyze(c.Module)
			if err != nil {
				t.Fatalf("%s #%d: static.Analyze: %v", name, i, err)
			}
			var actions []eos.Name
			for _, a := range c.ABI.Actions {
				actions = append(actions, a.Name)
			}
			vr := absint.Analyze(c.Module, actions)
			for _, class := range contractgen.Classes {
				neg := vr.Verdicts[class].Kind == absint.ProvenNegative
				if neg {
					absintNeg++
				}
				if rep.Candidates[class] {
					continue
				}
				staticNeg++
				if !neg {
					t.Errorf("%s #%d: %s has no static candidate flag but absint says %s (%s)",
						name, i, class, vr.Verdicts[class].Kind, vr.Verdicts[class].Reason)
				}
			}
			if !rep.AnyCandidate() {
				staticSkips++
			}
			if vr.AllNegative() {
				absintSkips++
			}
		}
		t.Logf("%s: %d contracts; negatives static %d, absint %d; whole-contract skips static %d, absint %d",
			name, len(populations[name]), staticNeg, absintNeg, staticSkips, absintSkips)
	}
}
