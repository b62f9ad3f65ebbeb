package static_test

import (
	"testing"

	"repro/internal/contractgen"
	"repro/internal/static"
	"repro/internal/wasm"
)

// checkWellFormed asserts the structural CFG invariants: blocks partition
// the body (contiguous, covering [0, len)), and every successor is either a
// valid block index or ExitTarget.
func checkWellFormed(t *testing.T, label string, bodyLen int, g *static.CFG) {
	t.Helper()
	if len(g.Blocks) == 0 {
		t.Fatalf("%s: no blocks", label)
	}
	if g.Blocks[0].Start != 0 {
		t.Errorf("%s: first block starts at %d, want 0", label, g.Blocks[0].Start)
	}
	if last := g.Blocks[len(g.Blocks)-1]; last.End != bodyLen {
		t.Errorf("%s: last block ends at %d, want %d", label, last.End, bodyLen)
	}
	for i, b := range g.Blocks {
		if b.Start >= b.End {
			t.Errorf("%s: block %d empty or inverted [%d,%d)", label, i, b.Start, b.End)
		}
		if i > 0 && g.Blocks[i-1].End != b.Start {
			t.Errorf("%s: gap between block %d (end %d) and block %d (start %d)",
				label, i-1, g.Blocks[i-1].End, i, b.Start)
		}
		for _, s := range b.Succs {
			if s != static.ExitTarget && (s < 0 || s >= len(g.Blocks)) {
				t.Errorf("%s: block %d has out-of-range successor %d", label, i, s)
			}
		}
	}
	for pc := 0; pc < bodyLen; pc++ {
		if g.BlockAt(pc) < 0 {
			t.Errorf("%s: pc %d not covered by any block", label, pc)
		}
	}
}

// TestBuildCFGCorpus runs the builder over every generated benchmark
// contract: all classes, both ground truths, every function body. Each must
// produce a well-formed partition — the corpus exercises the dispatcher
// encodings, nested branch guards and responder services of the population
// model.
func TestBuildCFGCorpus(t *testing.T) {
	for i, class := range contractgen.Classes {
		for _, vul := range []bool{true, false} {
			c, err := contractgen.Generate(contractgen.Spec{
				Class: class, Vulnerable: vul, Seed: int64(40 + i),
			})
			if err != nil {
				t.Fatalf("generate %s vul=%v: %v", class, vul, err)
			}
			for fi := range c.Module.Code {
				body := c.Module.Code[fi].Body
				g, err := static.BuildCFG(body)
				if err != nil {
					t.Fatalf("%s vul=%v func %d: %v", class, vul, fi, err)
				}
				label := class.String()
				checkWellFormed(t, label, len(body), g)
				if got := g.Complexity(); got < 1 {
					t.Errorf("%s func %d: complexity %d < 1", label, fi, got)
				}
			}
		}
	}
}

// TestBuildCFGIfElse pins the exact block structure of an if/else body.
func TestBuildCFGIfElse(t *testing.T) {
	body := []wasm.Instr{
		{Op: wasm.OpI32Const, Imm: 1},           // 0
		{Op: wasm.OpIf, A: wasm.BlockTypeEmpty}, // 1
		{Op: wasm.OpNop},                        // 2: then arm
		{Op: wasm.OpElse},                       // 3
		{Op: wasm.OpNop},                        // 4: else arm
		{Op: wasm.OpEnd},                        // 5: end of if
		{Op: wasm.OpEnd},                        // 6: end of function
	}
	g, err := static.BuildCFG(body)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, "if-else", len(body), g)
	want := []struct {
		start, end int
		succs      []int
	}{
		{0, 2, []int{1, 2}},              // const+if: then-arm, else-arm
		{2, 4, []int{3}},                 // then arm: jump over else to the if's end
		{4, 5, []int{3}},                 // else arm: fall through to the if's end
		{5, 7, []int{static.ExitTarget}}, // if-end + function end
	}
	if len(g.Blocks) != len(want) {
		t.Fatalf("got %d blocks, want %d: %+v", len(g.Blocks), len(want), g.Blocks)
	}
	for i, w := range want {
		b := g.Blocks[i]
		if b.Start != w.start || b.End != w.end {
			t.Errorf("block %d: range [%d,%d), want [%d,%d)", i, b.Start, b.End, w.start, w.end)
		}
		if len(b.Succs) != len(w.succs) {
			t.Errorf("block %d: succs %v, want %v", i, b.Succs, w.succs)
			continue
		}
		for j := range w.succs {
			if b.Succs[j] != w.succs[j] {
				t.Errorf("block %d: succs %v, want %v", i, b.Succs, w.succs)
				break
			}
		}
	}
	if g.Branches != 1 {
		t.Errorf("branches = %d, want 1", g.Branches)
	}
}

// TestBuildCFGLoop pins the back edge of a loop guarded by br_if (label
// depth 0 resolves to the loop header, not past its end).
func TestBuildCFGLoop(t *testing.T) {
	body := []wasm.Instr{
		{Op: wasm.OpLoop, A: wasm.BlockTypeEmpty}, // 0
		{Op: wasm.OpI32Const, Imm: 1},             // 1
		{Op: wasm.OpBrIf, A: 0},                   // 2: back to the loop header
		{Op: wasm.OpEnd},                          // 3: end of loop
		{Op: wasm.OpEnd},                          // 4: end of function
	}
	g, err := static.BuildCFG(body)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, "loop", len(body), g)
	if len(g.Blocks) != 2 {
		t.Fatalf("got %d blocks, want 2: %+v", len(g.Blocks), g.Blocks)
	}
	// br_if: taken edge re-enters block 0 (the loop), fall-through leaves.
	if s := g.Blocks[0].Succs; len(s) != 2 || s[0] != 0 || s[1] != 1 {
		t.Errorf("loop block succs = %v, want [0 1]", s)
	}
	if s := g.Blocks[1].Succs; len(s) != 1 || s[0] != static.ExitTarget {
		t.Errorf("exit block succs = %v, want [ExitTarget]", s)
	}
}

// TestBuildCFGBrTable pins label-depth resolution across two nested blocks:
// depth 0 is the inner block's end, depth 1 the outer's.
func TestBuildCFGBrTable(t *testing.T) {
	body := []wasm.Instr{
		{Op: wasm.OpBlock, A: wasm.BlockTypeEmpty},     // 0: outer
		{Op: wasm.OpBlock, A: wasm.BlockTypeEmpty},     // 1: inner
		{Op: wasm.OpI32Const, Imm: 0},                  // 2
		{Op: wasm.OpBrTable, Table: []uint32{0}, A: 1}, // 3
		{Op: wasm.OpEnd},                               // 4: inner end
		{Op: wasm.OpNop},                               // 5
		{Op: wasm.OpEnd},                               // 6: outer end
		{Op: wasm.OpEnd},                               // 7: function end
	}
	g, err := static.BuildCFG(body)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, "br_table", len(body), g)
	if len(g.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3: %+v", len(g.Blocks), g.Blocks)
	}
	// depth 0 -> pc 4 (block 1), depth 1 -> pc 6 (block 2).
	if s := g.Blocks[0].Succs; len(s) != 2 || s[0] != 1 || s[1] != 2 {
		t.Errorf("br_table succs = %v, want [1 2]", s)
	}
	if g.Branches != 1 {
		t.Errorf("branches = %d, want 1 (two distinct targets)", g.Branches)
	}
}

// TestBuildCFGMalformed checks that broken bodies error instead of
// panicking — the property FuzzCFG hammers on.
func TestBuildCFGMalformed(t *testing.T) {
	cases := map[string][]wasm.Instr{
		"empty":          {},
		"no-final-end":   {{Op: wasm.OpNop}},
		"depth-too-deep": {{Op: wasm.OpBr, A: 5}, {Op: wasm.OpEnd}},
		"code-after-end": {{Op: wasm.OpEnd}, {Op: wasm.OpNop}, {Op: wasm.OpEnd}},
		"unbalanced":     {{Op: wasm.OpBlock, A: wasm.BlockTypeEmpty}, {Op: wasm.OpEnd}},
	}
	for name, body := range cases {
		if _, err := static.BuildCFG(body); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}
