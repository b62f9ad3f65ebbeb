package symbolic

import (
	"math/rand"
	"testing"
)

func TestSimplifySubstitutionProvesFalse(t *testing.T) {
	c := NewCtx()
	x := c.Var("x", 32)
	cs := []*Expr{c.Eq(x, c.Const(5, 32)), c.Ult(x, c.Const(3, 32))}
	if _, provenFalse := NewSimplifier().Conjunction(cs); !provenFalse {
		t.Fatal("x=5 ∧ x<3 must be proven false at the word level")
	}
}

func TestSimplifyKeepsEqualitySources(t *testing.T) {
	c := NewCtx()
	x := c.Var("x", 32)
	cs := []*Expr{c.Eq(x, c.Const(5, 32)), c.Ult(x, c.Const(10, 32))}
	out, provenFalse := NewSimplifier().Conjunction(cs)
	if provenFalse {
		t.Fatal("x=5 ∧ x<10 is satisfiable")
	}
	// The binding's source equality survives (equivalence, not just
	// equisatisfiability); the redundant comparison folds away.
	if len(out) != 1 || out[0].Kind != KEq {
		t.Fatalf("want [x=5], got %d conjuncts", len(out))
	}
}

func TestSimplifyComplementaryPair(t *testing.T) {
	c := NewCtx()
	p := c.Ult(c.Var("a", 32), c.Var("b", 32))
	for _, cs := range [][]*Expr{
		{p, c.BoolNot(p)},
		{c.BoolNot(p), p},
	} {
		if _, provenFalse := NewSimplifier().Conjunction(cs); !provenFalse {
			t.Fatal("p ∧ ¬p must be proven false")
		}
	}
}

func TestSimplifyDoubleNegationDedupes(t *testing.T) {
	c := NewCtx()
	p := c.Ult(c.Var("a", 32), c.Var("b", 32))
	out, provenFalse := NewSimplifier().Conjunction([]*Expr{c.BoolNot(c.BoolNot(p)), p})
	if provenFalse || len(out) != 1 {
		t.Fatalf("¬¬p ∧ p should dedupe to [p]; got %d conjuncts, false=%v", len(out), provenFalse)
	}
}

func TestSimplifyDeMorganSplits(t *testing.T) {
	c := NewCtx()
	a, b := c.Var("a", 32), c.Var("b", 32)
	p, q := c.Ult(a, b), c.Ult(b, a)
	out, provenFalse := NewSimplifier().Conjunction([]*Expr{c.BoolNot(c.Or(p, q))})
	if provenFalse {
		t.Fatal("¬(a<b ∨ b<a) is satisfiable (a=b)")
	}
	if len(out) != 2 {
		t.Fatalf("De Morgan should split into two conjuncts, got %d", len(out))
	}
}

func TestSimplifyConflictingEqualities(t *testing.T) {
	c := NewCtx()
	x := c.Var("x", 32)
	cs := []*Expr{c.Eq(x, c.Const(1, 32)), c.Eq(x, c.Const(2, 32))}
	if _, provenFalse := NewSimplifier().Conjunction(cs); !provenFalse {
		t.Fatal("x=1 ∧ x=2 must be proven false")
	}
}

func TestSimplifyConcatSlicing(t *testing.T) {
	c := NewCtx()
	hi, lo := c.Var("hi", 8), c.Var("lo", 8)
	out, provenFalse := NewSimplifier().Conjunction([]*Expr{
		c.Eq(c.Concat(hi, lo), c.Const(0xAB12, 16)),
	})
	if provenFalse || len(out) != 2 {
		t.Fatalf("concat equality should slice into two equalities, got %d (false=%v)", len(out), provenFalse)
	}
	want := map[string]uint64{"hi": 0xAB, "lo": 0x12}
	for _, e := range out {
		if e.Kind != KEq || e.A.Kind != KVar {
			t.Fatalf("sliced conjunct is not var=const: %v", e.Kind)
		}
		v, ok := e.B.IsConst()
		if !ok || v != want[e.A.Name] {
			t.Fatalf("sliced %s = %#x, want %#x", e.A.Name, v, want[e.A.Name])
		}
	}
}

// TestSimplifyWidthExactBindings pins the (name, width) binding key: the
// bit-blaster treats one name at two widths as truncations of a single
// 64-bit variable, so a binding proved at width 32 must never rewrite the
// width-8 occurrence (leaving both conjuncts intact is always sound — the
// blaster still sees the original semantics).
func TestSimplifyWidthExactBindings(t *testing.T) {
	c := NewCtx()
	x32, x8 := c.Var("x", 32), c.Var("x", 8)
	out, provenFalse := NewSimplifier().Conjunction([]*Expr{
		c.Eq(x32, c.Const(5, 32)),
		c.Ult(x8, c.Const(3, 8)),
	})
	if provenFalse {
		t.Fatal("the word level must not cross widths to refute this")
	}
	if len(out) != 2 {
		t.Fatalf("want both conjuncts kept, got %d", len(out))
	}
	for _, e := range out {
		if e.Kind == KUlt && e.A.Kind != KVar {
			t.Fatal("width-8 occurrence was substituted across widths")
		}
	}
}

// FuzzSimplify fuzzes the simplifier's contracted properties on arbitrary
// stack-machine programs: rewriting is deterministic, provenFalse implies
// the original conjunction is Unsat, verdicts agree in both directions, and
// a model of the simplified form satisfies every original conjunct.
func FuzzSimplify(f *testing.F) {
	f.Add([]byte{0, 0, 2, 5, 9, 0})                                  // v0 == 5
	f.Add([]byte{0, 0, 2, 5, 9, 0, 0, 0, 2, 3, 10, 0})               // v0 == 5, v0 < 3
	f.Add([]byte{0, 0, 0, 1, 10, 0, 0, 1, 0, 0, 10, 0})              // v0 < v1, v1 < v0
	f.Add([]byte{0, 0, 2, 1, 9, 0, 0, 0, 2, 2, 9, 0})                // v0 == 1, v0 == 2
	f.Add([]byte{0, 0, 0, 1, 3, 0, 2, 200, 10, 0, 0, 1, 2, 7, 9, 0}) // (v0+v1) < 200, v1 == 7
	f.Add([]byte{1, 3, 7, 0, 0, 3, 5, 0, 9, 0, 1, 2, 0, 2, 6, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		ctx := NewCtx()
		cs := buildFuzzConstraints(ctx, data, "v")
		if len(cs) == 0 {
			return
		}
		simplified, provenFalse := NewSimplifier().Conjunction(cs)

		// Determinism: an independent simplifier over the same input agrees
		// conjunct-by-conjunct (hashes are Ctx-independent).
		again, pf2 := NewSimplifier().Conjunction(cs)
		if pf2 != provenFalse || len(again) != len(simplified) {
			t.Fatal("simplification is nondeterministic")
		}
		for i := range simplified {
			if simplified[i].Hash() != again[i].Hash() {
				t.Fatalf("conjunct %d differs across simplifier instances", i)
			}
		}

		orig := &Solver{MaxConflicts: 5_000}
		_, origRes := orig.Solve(cs)
		if provenFalse {
			if origRes == Sat {
				t.Fatal("simplifier proved false but original is Sat")
			}
			return
		}
		simp := &Solver{MaxConflicts: 5_000}
		m, simpRes := simp.Solve(simplified)
		if origRes == Unknown || simpRes == Unknown {
			return
		}
		if origRes != simpRes {
			t.Fatalf("verdict disagreement: original=%v simplified=%v", origRes, simpRes)
		}
		if simpRes == Sat {
			for i, e := range cs {
				if !EvalBool(e, m) {
					t.Fatalf("simplified model violates original conjunct %d", i)
				}
			}
		}
	})
}

// TestSimplifyDifferential cross-checks the rewrite against the solver on
// random stack-machine programs: a provenFalse result must mean the original
// is Unsat, otherwise both forms must reach the same verdict, and a Sat
// model of the simplified form must satisfy every original conjunct (the
// rewrite promises equivalence, not just equisatisfiability).
func TestSimplifyDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 300; round++ {
		data := make([]byte, 2+rng.Intn(40)*2)
		rng.Read(data)
		ctx := NewCtx()
		cs := buildFuzzConstraints(ctx, data, "v")
		if len(cs) == 0 {
			continue
		}
		orig := &Solver{MaxConflicts: 20_000}
		_, origRes := orig.Solve(cs)

		simplified, provenFalse := NewSimplifier().Conjunction(cs)
		if provenFalse {
			if origRes == Sat {
				t.Fatalf("round %d: simplifier proved false but original is Sat", round)
			}
			continue
		}
		simp := &Solver{MaxConflicts: 20_000}
		m, simpRes := simp.Solve(simplified)
		if origRes == Unknown || simpRes == Unknown {
			continue
		}
		if origRes != simpRes {
			t.Fatalf("round %d: verdict disagreement: original=%v simplified=%v", round, origRes, simpRes)
		}
		if simpRes == Sat {
			for i, e := range cs {
				if !EvalBool(e, m) {
					t.Fatalf("round %d: simplified model violates original conjunct %d", round, i)
				}
			}
		}
	}
}
