package bench

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/static"
	"repro/internal/static/absint"
)

// TestEvaluateVerdict smoke-runs the verdict gate at a small scale and
// asserts its budget-independent properties: no proven-negative class
// fires dynamically, every dynamic finding carries its static candidate
// flag, every static negative is proven negative by absint, every class
// of the trivial contracts is proven negative, and the findings digests
// match across worker counts. Positive proofs need the gate's full budget
// to surface, so PosViolations and the wild resolution are left to `make
// verdict`.
func TestEvaluateVerdict(t *testing.T) {
	cfg := DefaultVerdictConfig()
	cfg.WildContracts = 4
	cfg.FuzzIterations = 30
	cfg.WorkerCounts = []int{1, 4}
	res, err := EvaluateVerdict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*len(contractgen.Classes) + cfg.WildContracts + VerdictTrivialContracts; res.Total != want {
		t.Errorf("corpus has %d contracts, want %d", res.Total, want)
	}
	if !res.DigestMatch {
		t.Error("the findings digest differs across worker counts")
	}
	if n := res.NegViolations(); n != 0 {
		t.Errorf("%d proven-negative classes fired dynamically", n)
	}
	for class, s := range res.PerClass {
		if s.CandidateViolations > 0 {
			t.Errorf("%s: %d dynamic findings lacked the static candidate flag", class, s.CandidateViolations)
		}
		if s.StaticGaps > 0 {
			t.Errorf("%s: %d static negatives not proven negative by absint", class, s.StaticGaps)
		}
	}
	if p := res.Parts[len(res.Parts)-1]; p.Name != "trivial" || p.AllNegative != VerdictTrivialContracts {
		t.Errorf("%s part: %d of %d contracts with every class proven negative, want all %d trivial contracts",
			p.Name, p.AllNegative, p.Contracts, VerdictTrivialContracts)
	}
	s := RenderVerdict(res)
	for _, want := range []string{"static-gaps=0", "trivial 4/4"} {
		if !strings.Contains(s, want) {
			t.Errorf("render lacks %q:\n%s", want, s)
		}
	}
}

// TestStaticNegativesAreAbsintNegatives pins that the absint verdicts
// subsume the candidate flags: on the wild population and the Table-4 and
// verification datasets, every (contract, class) pair that static.Analyze
// leaves without a candidate flag is proven negative by absint.Analyze.
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
