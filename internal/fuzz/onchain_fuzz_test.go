package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/wasm"
)

// onchainActions is the fixed ABI the fuzz target pairs with arbitrary
// decoded modules: the full canonical action surface, so the scenario
// driver sweeps the same action names the generated corpus installs.
func onchainActions() []eos.Name {
	return []eos.Name{
		contractgen.ActionDeposit, contractgen.ActionSweep, contractgen.ActionReveal,
		contractgen.ActionSettle, contractgen.ActionClaim, contractgen.ActionRelay,
	}
}

// FuzzOnChainOracles feeds arbitrary bytes through the module decoder into
// a full fuzzing run, including the on-chain-data scenario pass. Two
// properties must hold on every decodable module:
//
//   - no panic, whatever the module shape;
//   - the scenario verdicts (StateTamper, OrderDep, CrossContract) are a
//     pure function of the module. The second run mutates the concolic
//     loop's transaction sequence — different seed, different budget — and
//     the scenario classes must not move: their scripts replay on a
//     chain of their own, each from its pristine state with held blocks,
//     so nothing the main loop executes may leak into them.
func FuzzOnChainOracles(f *testing.F) {
	for _, data := range onchainCorpus(f) {
		f.Add(data, uint64(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, mut uint64) {
		mod, err := wasm.Decode(data)
		if err != nil {
			return
		}
		if err := wasm.Validate(mod); err != nil {
			return
		}
		run := func(seed int64, iters int) map[contractgen.Class]bool {
			fz, err := New(mod, contractgen.TransferFieldsABI(onchainActions()...), Config{
				Iterations:      iters,
				SolverConflicts: 1_000,
				DisableFeedback: true,
				Seed:            seed,
			})
			if err != nil {
				return nil
			}
			res, err := fz.Run()
			if err != nil {
				return nil
			}
			return res.Report.Vulnerable
		}
		base := run(1, 2)
		if base == nil {
			return
		}
		mutated := run(int64(mut%64)+2, int(mut%3)+1)
		if mutated == nil {
			return
		}
		for _, class := range []contractgen.Class{
			contractgen.ClassStateTamper,
			contractgen.ClassOrderDep,
			contractgen.ClassCrossContract,
		} {
			if base[class] != mutated[class] {
				t.Errorf("%s verdict unstable under transaction-sequence mutation: %v vs %v (mut=%d)",
					class, base[class], mutated[class], mut)
			}
		}
	})
}

// onchainCorpus encodes one full module per generated class in both
// polarities — every dispatcher arm, guard and scenario archetype the
// generator can emit — plus the intrinsic-free boilerplate shape.
func onchainCorpus(tb testing.TB) map[string][]byte {
	tb.Helper()
	entries := map[string][]byte{}
	add := func(name string, c *contractgen.Contract) {
		data, err := wasm.Encode(c.Module)
		if err != nil {
			tb.Fatalf("encode %s: %v", name, err)
		}
		entries[name] = data
	}
	for i, class := range contractgen.Classes {
		slug := strings.ToLower(class.String())
		for _, vul := range []bool{true, false} {
			c, err := contractgen.Generate(contractgen.Spec{Class: class, Vulnerable: vul, Seed: int64(40 + i)})
			if err != nil {
				tb.Fatalf("generate %s/%v: %v", slug, vul, err)
			}
			name := "contractgen-" + slug
			if !vul {
				name += "-safe"
			}
			add(name, c)
		}
	}
	add("contractgen-trivial", contractgen.Trivial())
	return entries
}

// TestFuzzOnChainOraclesSeedCorpus keeps the checked-in corpus in sync with
// the generator. Regenerate with:
//
//	UPDATE_FUZZ_CORPUS=1 go test -run TestFuzzOnChainOraclesSeedCorpus ./internal/fuzz/
func TestFuzzOnChainOraclesSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzOnChainOracles")
	update := os.Getenv("UPDATE_FUZZ_CORPUS") != ""
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range onchainCorpus(t) {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nuint64(0)\n", data)
		if update {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed corpus entry missing (regenerate with UPDATE_FUZZ_CORPUS=1): %v", err)
		}
		if string(got) != want {
			t.Errorf("seed corpus entry %s is stale (regenerate with UPDATE_FUZZ_CORPUS=1)", name)
		}
	}
}
