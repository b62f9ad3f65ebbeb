package absint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/fuzz"
	"repro/internal/wasm"
)

// FuzzAbsInt feeds arbitrary bytes through the module decoder into the
// abstract interpreter: any malformed-but-decodable module must produce a
// report (degrading to Unknown verdicts), never a panic. When the prover
// claims dead edges on a module the harness can also fuzz, the claim is
// checked against 64 random concrete runs of the reference interpreter —
// a proven-dead branch outcome observed dynamically is a soundness bug,
// exactly the property every negative verdict rests on.
func FuzzAbsInt(f *testing.F) {
	for _, data := range absintCorpus(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mod, err := wasm.Decode(data)
		if err != nil {
			return
		}
		if err := wasm.Validate(mod); err != nil {
			return
		}
		actions := []eos.Name{
			contractgen.ActionDeposit, contractgen.ActionSweep, contractgen.ActionReveal,
		}
		rp := Analyze(mod, actions) // must not panic
		if !rp.Complete || len(rp.DeadEdges) == 0 {
			return
		}
		// The prover committed to dead edges: cross-examine with random
		// concrete runs (feedback off = pure random draws) when the module
		// is harness-fuzzable at all.
		fz, err := fuzz.New(mod, contractgen.TransferFieldsABI(actions...), fuzz.Config{
			Iterations:      64,
			SolverConflicts: 1_000,
			DisableFeedback: true,
			Seed:            1,
			KeepTraces:      true,
		})
		if err != nil {
			return
		}
		res, err := fz.Run()
		if err != nil {
			return
		}
		checkDeadEdges(t, "fuzz", rp, res.Traces)
	})
}

// absintCorpus encodes one full module per generated class (vulnerable and
// safe, including an inaccessible-template sample) — realistic dispatcher,
// guard and responder structures the MVP grammar's corners would take the
// fuzzer long to reach.
func absintCorpus(tb testing.TB) map[string][]byte {
	tb.Helper()
	entries := map[string][]byte{}
	add := func(name string, spec contractgen.Spec) {
		c, err := contractgen.Generate(spec)
		if err != nil {
			tb.Fatalf("generate %s: %v", name, err)
		}
		data, err := wasm.Encode(c.Module)
		if err != nil {
			tb.Fatalf("encode %s: %v", name, err)
		}
		entries[name] = data
	}
	for i, class := range contractgen.Classes {
		slug := strings.ReplaceAll(strings.ToLower(class.String()), " ", "-")
		add("contractgen-"+slug, contractgen.Spec{Class: class, Vulnerable: true, Seed: int64(10 + i)})
		add("contractgen-"+slug+"-safe", contractgen.Spec{Class: class, Vulnerable: false, Seed: int64(10 + i)})
	}
	add("contractgen-inaccessible", contractgen.Spec{
		Class: contractgen.ClassBlockinfoDep, Vulnerable: true, Seed: 31, Inaccessible: true,
	})
	return entries
}

// TestFuzzAbsIntSeedCorpus keeps the checked-in corpus in sync with the
// generator. Regenerate with:
//
//	UPDATE_FUZZ_CORPUS=1 go test -run TestFuzzAbsIntSeedCorpus ./internal/static/absint/
func TestFuzzAbsIntSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzAbsInt")
	update := os.Getenv("UPDATE_FUZZ_CORPUS") != ""
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range absintCorpus(t) {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
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
