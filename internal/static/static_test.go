package static_test

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/contractgen"
	"repro/internal/static"
	"repro/internal/wasm"
)

// TestAnalyzeDeterminism asserts the report is byte-identical across runs —
// over the same decoded module, and over two independent decodes of the
// same binary (map iteration anywhere in the pass would break this).
func TestAnalyzeDeterminism(t *testing.T) {
	for i, class := range contractgen.Classes {
		c, err := contractgen.Generate(contractgen.Spec{
			Class: class, Vulnerable: true, Seed: int64(70 + i),
		})
		if err != nil {
			t.Fatalf("generate %s: %v", class, err)
		}
		r1, err := static.Analyze(c.Module)
		if err != nil {
			t.Fatalf("%s: analyze: %v", class, err)
		}
		r2, err := static.Analyze(c.Module)
		if err != nil {
			t.Fatalf("%s: re-analyze: %v", class, err)
		}
		if r1.String() != r2.String() {
			t.Errorf("%s: repeated analysis diverged:\n--- first ---\n%s\n--- second ---\n%s",
				class, r1, r2)
		}

		bin, err := wasm.Encode(c.Module)
		if err != nil {
			t.Fatalf("%s: encode: %v", class, err)
		}
		mod, err := wasm.Decode(bin)
		if err != nil {
			t.Fatalf("%s: decode: %v", class, err)
		}
		// Debug names don't survive the encode/decode round trip (the name
		// custom section is not re-emitted); align them so the comparison
		// exercises the analysis, not the codec.
		mod.FuncNames = c.Module.FuncNames
		r3, err := static.Analyze(mod)
		if err != nil {
			t.Fatalf("%s: analyze decoded copy: %v", class, err)
		}
		if r1.String() != r3.String() {
			t.Errorf("%s: analysis of a re-decoded copy diverged:\n--- original ---\n%s\n--- copy ---\n%s",
				class, r1, r3)
		}
	}
}

// TestCandidateSoundnessOnCorpus is the candidate-flag soundness check:
// every ground-truth-vulnerable generated contract must carry the
// candidate flag of its class (the flag is a necessary condition for the
// dynamic oracle, and the oracle does fire on these contracts).
func TestCandidateSoundnessOnCorpus(t *testing.T) {
	for i, class := range contractgen.Classes {
		for seed := int64(0); seed < 3; seed++ {
			c, err := contractgen.Generate(contractgen.Spec{
				Class: class, Vulnerable: true, Seed: 100 + 10*int64(i) + seed,
			})
			if err != nil {
				t.Fatalf("generate %s: %v", class, err)
			}
			rep, err := static.Analyze(c.Module)
			if err != nil {
				t.Fatalf("%s: analyze: %v", class, err)
			}
			if !rep.Candidates[class] {
				t.Errorf("%s seed %d: vulnerable contract lacks its candidate flag\n%s",
					class, seed, rep)
			}
		}
	}
}

// TestAnalyzeTrivial checks the provably-negative end: the action-less
// boilerplate contract has no candidate for any class.
func TestAnalyzeTrivial(t *testing.T) {
	c := contractgen.Trivial()
	if err := wasm.Validate(c.Module); err != nil {
		t.Fatalf("trivial module is invalid: %v", err)
	}
	rep, err := static.Analyze(c.Module)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AnyCandidate() {
		t.Errorf("trivial contract has candidates:\n%s", rep)
	}
	if len(rep.ReachableHostAPIs) != 0 {
		t.Errorf("trivial contract reaches host APIs: %v", rep.ReachableHostAPIs)
	}
	if rep.Score() != 0 {
		t.Errorf("trivial contract score = %d, want 0", rep.Score())
	}
}

// TestReachabilityRespectsExports checks that host APIs behind unexported,
// uncalled functions do not count as reachable: a dead send_inline must not
// make the contract a Rollback candidate.
func TestReachabilityRespectsExports(t *testing.T) {
	// func 0: imported send_inline. func 1: exported apply (returns).
	// func 2: dead local function calling send_inline.
	mod := &wasm.Module{
		Types: []wasm.FuncType{
			{Params: []wasm.ValType{wasm.I32, wasm.I32}},           // send_inline
			{Params: []wasm.ValType{wasm.I64, wasm.I64, wasm.I64}}, // apply
			{}, // dead helper
		},
		Imports: []wasm.Import{{
			Module: "env", Name: chain.APISendInline, Kind: wasm.ExternalFunc, TypeIndex: 0,
		}},
		Funcs:   []uint32{1, 2},
		Exports: []wasm.Export{{Name: "apply", Kind: wasm.ExternalFunc, Index: 1}},
		Code: []wasm.Code{
			{Body: []wasm.Instr{{Op: wasm.OpEnd}}},
			{Body: []wasm.Instr{
				{Op: wasm.OpI32Const, Imm: 0},
				{Op: wasm.OpI32Const, Imm: 0},
				{Op: wasm.OpCall, A: 0},
				{Op: wasm.OpEnd},
			}},
		},
	}
	rep, err := static.Analyze(mod)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates[contractgen.ClassRollback] {
		t.Errorf("dead send_inline flagged as Rollback candidate:\n%s", rep)
	}
	// Exporting the helper makes it a root and the flag must flip.
	mod.Exports = append(mod.Exports, wasm.Export{Name: "helper", Kind: wasm.ExternalFunc, Index: 2})
	rep, err = static.Analyze(mod)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Candidates[contractgen.ClassRollback] {
		t.Errorf("reachable send_inline not flagged as Rollback candidate:\n%s", rep)
	}
}
