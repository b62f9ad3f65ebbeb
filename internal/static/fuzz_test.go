package static_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/static"
	"repro/internal/wasm"
)

// FuzzCFG feeds arbitrary bytes through the code-section entry decoder into
// the CFG builder: malformed input must return an error, never panic, and a
// successfully built graph must satisfy the partition invariants (the
// properties the static pass depends on when it walks modules from the
// wild).
func FuzzCFG(f *testing.F) {
	f.Add([]byte{0x00, 0x0b})       // no locals, bare end
	f.Add([]byte{0x00, 0x01, 0x0b}) // nop; end
	for _, data := range cfgCorpus(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		code, err := wasm.DecodeCode(data)
		if err != nil {
			return
		}
		g, err := static.BuildCFG(code.Body)
		if err != nil {
			return
		}
		if len(g.Blocks) == 0 {
			t.Fatal("built CFG with zero blocks")
		}
		if g.Blocks[0].Start != 0 || g.Blocks[len(g.Blocks)-1].End != len(code.Body) {
			t.Fatalf("blocks do not cover the body: %+v", g.Blocks)
		}
		for i, b := range g.Blocks {
			if b.Start >= b.End {
				t.Fatalf("block %d empty or inverted: %+v", i, b)
			}
			if i > 0 && g.Blocks[i-1].End != b.Start {
				t.Fatalf("blocks %d/%d not contiguous: %+v", i-1, i, g.Blocks)
			}
			for _, s := range b.Succs {
				if s != static.ExitTarget && (s < 0 || s >= len(g.Blocks)) {
					t.Fatalf("block %d: successor %d out of range", i, s)
				}
			}
		}
	})
}

// cfgCorpus encodes the branchiest function body of each generated class
// contract as a code-section entry — realistic dispatcher/guard structures
// the MVP grammar's corners would take the fuzzer long to reach.
func cfgCorpus(tb testing.TB) map[string][]byte {
	tb.Helper()
	entries := map[string][]byte{}
	for i, class := range contractgen.Classes {
		c, err := contractgen.Generate(contractgen.Spec{
			Class: class, Vulnerable: true, Seed: int64(10 + i),
		})
		if err != nil {
			tb.Fatalf("generate %s: %v", class, err)
		}
		best, bestLen := 0, 0
		for fi := range c.Module.Code {
			if n := len(c.Module.Code[fi].Body); n > bestLen {
				best, bestLen = fi, n
			}
		}
		data, err := wasm.EncodeCode(&c.Module.Code[best])
		if err != nil {
			tb.Fatalf("encode %s body: %v", class, err)
		}
		slug := strings.ReplaceAll(strings.ToLower(class.String()), " ", "-")
		entries["contractgen-"+slug] = data
	}
	return entries
}

// TestFuzzCFGSeedCorpus keeps the checked-in corpus in sync with the
// generator. Regenerate with:
//
//	UPDATE_FUZZ_CORPUS=1 go test -run TestFuzzCFGSeedCorpus ./internal/static/
func TestFuzzCFGSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCFG")
	update := os.Getenv("UPDATE_FUZZ_CORPUS") != ""
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range cfgCorpus(t) {
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
