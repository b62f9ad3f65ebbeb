package symbolic

import (
	"context"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

// renameTable builds the same constraint structure under two variable
// namings; the canon keys must not see the difference.
func alphaPair(t *testing.T) (a, b []*Expr) {
	t.Helper()
	mk := func(c *Ctx, x, y, z string) []*Expr {
		vx, vy, vz := c.Var(x, 32), c.Var(y, 32), c.Var(z, 8)
		return []*Expr{
			c.Eq(c.Add(vx, vy), c.Const(1000, 32)),
			c.Ult(vx, c.Const(77, 32)),
			c.Eq(c.Xor(c.ZExt(vz, 32), vy), c.Const(5, 32)),
		}
	}
	return mk(NewCtx(), "amount", "balance", "sym"), mk(NewCtx(), "v0", "v1", "v2")
}

func TestCanonicalizeAlphaInvariance(t *testing.T) {
	ca, cb := alphaPair(t)
	ka, kb := Canonicalize(ca, 0), Canonicalize(cb, 0)
	if ka.Ordered != kb.Ordered {
		t.Error("Ordered keys differ under variable renaming")
	}
	if ka.Sorted != kb.Sorted {
		t.Error("Sorted keys differ under variable renaming")
	}
	if len(ka.Vars) != len(kb.Vars) {
		t.Fatalf("Vars length differs: %v vs %v", ka.Vars, kb.Vars)
	}
	// Vars carry each query's OWN names (the model translation table).
	if ka.Vars[0] != "amount" || kb.Vars[0] != "v0" {
		t.Errorf("Vars are not per-query names: %v / %v", ka.Vars, kb.Vars)
	}
}

func TestCanonicalizeDistinguishes(t *testing.T) {
	c := NewCtx()
	x := c.Var("x", 32)
	base := []*Expr{c.Eq(x, c.Const(5, 32))}
	k0 := Canonicalize(base, 0)

	// Different constant.
	if k := Canonicalize([]*Expr{c.Eq(x, c.Const(6, 32))}, 0); k.Ordered == k0.Ordered || k.Sorted == k0.Sorted {
		t.Error("different constants share a key")
	}
	// Different operator.
	if k := Canonicalize([]*Expr{c.Ult(x, c.Const(5, 32))}, 0); k.Ordered == k0.Ordered || k.Sorted == k0.Sorted {
		t.Error("different operators share a key")
	}
	// Extra clause.
	extra := append(append([]*Expr(nil), base...), c.Ult(x, c.Const(9, 32)))
	if k := Canonicalize(extra, 0); k.Ordered == k0.Ordered || k.Sorted == k0.Sorted {
		t.Error("appended clause did not change the keys")
	}
	// Distinct variables vs one repeated variable: x+x vs x+y must
	// differ even though both α-rename from index 0.
	y := c.Var("y", 32)
	xx := []*Expr{c.Eq(c.Add(x, x), c.Const(8, 32))}
	xy := []*Expr{c.Eq(c.Add(x, y), c.Const(8, 32))}
	if Canonicalize(xx, 0).Ordered == Canonicalize(xy, 0).Ordered {
		t.Error("x+x and x+y share an Ordered key")
	}
}

func TestCanonicalizeBudget(t *testing.T) {
	c := NewCtx()
	q := []*Expr{c.Eq(c.Var("x", 32), c.Const(1, 32))}
	k0 := Canonicalize(q, 0)
	kd := Canonicalize(q, DefaultMaxConflicts)
	if k0.Ordered != kd.Ordered {
		t.Error("budget 0 and DefaultMaxConflicts do not share an Ordered key")
	}
	kh := Canonicalize(q, DefaultMaxConflicts/2)
	if kh.Ordered == k0.Ordered {
		t.Error("halved budget (degraded retry) shares the full-budget Ordered key")
	}
	if kh.Sorted != k0.Sorted {
		t.Error("Sorted key depends on the budget (it must not: Unsat survives budget changes only via the budget-free key)")
	}
}

func TestCanonicalizeSortedPermutation(t *testing.T) {
	c := NewCtx()
	x, y := c.Var("x", 32), c.Var("y", 32)
	// Pairwise-distinct shapes, so the stable shape sort fully determines
	// the canonical order and any permutation converges.
	clauses := []*Expr{
		c.Eq(x, c.Const(5, 32)),
		c.Ult(y, c.Const(9, 32)),
		c.Eq(c.Add(x, y), c.Const(1000, 32)),
	}
	perm := []*Expr{clauses[2], clauses[0], clauses[1]}
	kc, kp := Canonicalize(clauses, 0), Canonicalize(perm, 0)
	if kc.Sorted != kp.Sorted {
		t.Error("permuted clauses do not share a Sorted key")
	}
	if kc.Ordered == kp.Ordered {
		t.Error("permuted clauses share an Ordered key (order must be part of it)")
	}
}

func TestCanonicalizeCrossCtxDeterminism(t *testing.T) {
	build := func() []*Expr {
		c := NewCtx()
		x := c.Var("x", 32)
		shared := c.Add(x, c.Const(3, 32)) // used twice: exercises backrefs
		return []*Expr{
			c.Eq(shared, c.Const(10, 32)),
			c.Ult(shared, c.Const(20, 32)),
		}
	}
	k1, k2 := Canonicalize(build(), 0), Canonicalize(build(), 0)
	if k1.Ordered != k2.Ordered || k1.Sorted != k2.Sorted {
		t.Error("identical structure in fresh Ctxs produced different keys")
	}
}

func TestVarsFirstUse(t *testing.T) {
	c := NewCtx()
	a, b, d := c.Var("a", 32), c.Var("b", 32), c.Var("d", 32)
	constraints := []*Expr{
		c.Eq(c.Add(b, a), c.Const(1, 32)), // first clause: b before a
		c.Ult(d, b),                       // d new, b repeated
	}
	got := VarsFirstUse(constraints)
	want := []string{"b", "a", "d"}
	if len(got) != len(want) {
		t.Fatalf("got %d vars, want %d", len(got), len(want))
	}
	for i, v := range got {
		if v.Name != want[i] {
			t.Errorf("vars[%d] = %s, want %s", i, v.Name, want[i])
		}
	}
}

func TestVerdictRoundtrip(t *testing.T) {
	c := NewCtx()
	x, y := c.Var("x", 32), c.Var("y", 32)
	q := []*Expr{c.Eq(c.Add(x, y), c.Const(7, 32))}
	canon := Canonicalize(q, 0)
	m := Model{"x": 3, "y": 4}
	v := VerdictOf(canon, m, Sat)
	back := v.ModelFor(canon)
	if back["x"] != 3 || back["y"] != 4 {
		t.Errorf("roundtripped model %v != original %v", back, m)
	}
	// The canonical model replays under renaming: the α-equivalent query
	// receives the same values under its own names.
	c2 := NewCtx()
	p, r := c2.Var("p", 32), c2.Var("r", 32)
	q2 := []*Expr{c2.Eq(c2.Add(p, r), c2.Const(7, 32))}
	canon2 := Canonicalize(q2, 0)
	if canon2.Ordered != canon.Ordered {
		t.Fatal("renamed query did not hit the same Ordered key")
	}
	m2 := v.ModelFor(canon2)
	if m2["p"] != 3 || m2["r"] != 4 {
		t.Errorf("model did not translate through renaming: %v", m2)
	}
	if !SatisfiesAll(q2, m2) {
		t.Error("translated model does not satisfy the renamed query")
	}
	if uv := VerdictOf(canon, nil, Unsat); len(uv.Vals) != 0 {
		t.Errorf("Unsat verdict carries a model: %v", uv.Vals)
	}
}

func TestHashConsingCanon(t *testing.T) {
	c := NewCtx()
	x1 := c.Eq(c.Add(c.Var("x", 32), c.Const(3, 32)), c.Const(10, 32))
	x2 := c.Eq(c.Add(c.Var("x", 32), c.Const(3, 32)), c.Const(10, 32))
	if x1 != x2 {
		t.Error("structurally identical expressions are not pointer-equal within one Ctx")
	}
	if x1.Hash() != x2.Hash() {
		t.Error("pointer-equal expressions disagree on Hash")
	}
	// Across Ctxs: pointer inequality, hash equality.
	c2 := NewCtx()
	x3 := c2.Eq(c2.Add(c2.Var("x", 32), c2.Const(3, 32)), c2.Const(10, 32))
	if x1 == x3 {
		t.Error("expressions from different Ctxs are pointer-equal")
	}
	if x1.Hash() != x3.Hash() {
		t.Error("identical structure hashes differently across Ctxs")
	}
	// Shape is name-blind, Hash is not.
	y := c.Eq(c.Add(c.Var("y", 32), c.Const(3, 32)), c.Const(10, 32))
	if x1.ShapeHash() != y.ShapeHash() {
		t.Error("renamed expression has a different shape hash")
	}
	if x1.Hash() == y.Hash() {
		t.Error("renamed expression shares the name-sensitive hash")
	}
	// Different widths must differ in both.
	w := c.Eq(c.Add(c.Var("x", 16), c.Const(3, 16)), c.Const(10, 16))
	if x1.ShapeHash() == w.ShapeHash() || x1.Hash() == w.Hash() {
		t.Error("different widths share a hash")
	}
}

// recordingMemo is a SolverMemo that records traffic, for pool-integration
// tests.
type recordingMemo struct {
	mu      sync.Mutex
	store   map[CanonKey]SolverVerdict
	lookups int
	stores  []Result
}

func newRecordingMemo() *recordingMemo {
	return &recordingMemo{store: map[CanonKey]SolverVerdict{}}
}

func (m *recordingMemo) Lookup(c Canon) (SolverVerdict, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lookups++
	v, ok := m.store[c.Ordered]
	return v, ok
}

func (m *recordingMemo) Store(c Canon, v SolverVerdict) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stores = append(m.stores, v.Result)
	m.store[c.Ordered] = v
}

// TestSolvePoolMemo drives SolvePoolCtx against a recording cache: the
// first pass stores Sat and Unsat verdicts, the second pass answers every
// query from the cache with identical results and zero new solving.
func TestSolvePoolMemo(t *testing.T) {
	c := NewCtx()
	x, y := c.Var("x", 32), c.Var("y", 32)
	queries := []Query{
		{ID: 0, Constraints: []*Expr{c.Eq(c.Add(x, y), c.Const(12, 32)), c.Ult(x, c.Const(4, 32))}},
		{ID: 1, Constraints: []*Expr{c.Eq(x, c.Const(0, 32)), c.Eq(x, c.Const(1, 32))}}, // Unsat
		{ID: 2, Constraints: []*Expr{c.Ult(y, c.Const(2, 32))}},
	}
	mem := newRecordingMemo()
	first, stats1, err := SolvePoolCtx(context.Background(), queries, PoolOptions{Workers: 2, Memo: mem})
	if err != nil {
		t.Fatalf("first pass: %v", err)
	}
	if len(mem.stores) == 0 {
		t.Fatal("first pass stored nothing")
	}
	for _, r := range mem.stores {
		if r != Sat && r != Unsat {
			t.Fatalf("pool stored a %v verdict", r)
		}
	}

	second, stats2, err := SolvePoolCtx(context.Background(), queries, PoolOptions{Workers: 2, Memo: mem})
	if err != nil {
		t.Fatalf("second pass: %v", err)
	}
	if stats2.SATCalls != 0 || stats2.FastPathHits != 0 {
		t.Errorf("second pass did real solving: %+v", stats2)
	}
	if stats2.Queries != stats1.Queries {
		t.Errorf("Queries not comparable across passes: %d vs %d", stats2.Queries, stats1.Queries)
	}
	for i := range queries {
		if first[i].Result != second[i].Result {
			t.Errorf("query %d: result changed %v -> %v", i, first[i].Result, second[i].Result)
		}
		if first[i].Result == Sat {
			if !SatisfiesAll(queries[i].Constraints, second[i].Model) {
				t.Errorf("query %d: replayed model does not satisfy the query", i)
			}
		}
	}
}

// orderMemo logs the order of memo calls: 'L' per Lookup, 'S' per Store.
type orderMemo struct {
	*recordingMemo
	mu  sync.Mutex
	log []byte
}

func (m *orderMemo) Lookup(c Canon) (SolverVerdict, bool) {
	m.mu.Lock()
	m.log = append(m.log, 'L')
	m.mu.Unlock()
	return m.recordingMemo.Lookup(c)
}

func (m *orderMemo) Store(c Canon, v SolverVerdict) {
	m.mu.Lock()
	m.log = append(m.log, 'S')
	m.mu.Unlock()
	m.recordingMemo.Store(c, v)
}

// TestSolvePoolMemoLooksUpFirst: the pool answers memo hits before any
// worker solves, looks each query up exactly once, stores each miss under
// its own key, and answers exactly as a memo-less pool does.
func TestSolvePoolMemoLooksUpFirst(t *testing.T) {
	c := NewCtx()
	x, y := c.Var("x", 32), c.Var("y", 32)
	cached := Query{ID: 1, Constraints: []*Expr{c.Ult(y, c.Const(2, 32))}}
	queries := []Query{
		{ID: 0, Constraints: []*Expr{c.Eq(c.Add(x, y), c.Const(12, 32)), c.Ult(x, c.Const(4, 32))}},
		cached,
		{ID: 2, Constraints: []*Expr{c.Eq(x, c.Const(0, 32)), c.Eq(x, c.Const(1, 32))}}, // Unsat
		{ID: 3, Constraints: []*Expr{c.Eq(y, c.Const(9, 32))}},
	}
	mem := &orderMemo{recordingMemo: newRecordingMemo()}
	if _, _, err := SolvePoolCtx(context.Background(), []Query{cached}, PoolOptions{Memo: mem}); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	mem.log = nil

	got, stats, err := SolvePoolCtx(context.Background(), queries, PoolOptions{Workers: 2, Memo: mem})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	if string(mem.log) != "LLLLSSS" {
		t.Errorf("memo call order %q, want four lookups, then a store per miss (LLLLSSS)", mem.log)
	}
	if stats.Queries != len(queries) {
		t.Errorf("Queries = %d, want %d", stats.Queries, len(queries))
	}
	for _, q := range queries {
		if _, ok := mem.store[Canonicalize(q.Constraints, 0).Ordered]; !ok {
			t.Errorf("query %d: no verdict stored under its key", q.ID)
		}
	}
	want := SolvePool(queries, 2, 0)
	for i := range queries {
		if got[i].ID != want[i].ID || got[i].Result != want[i].Result {
			t.Fatalf("answer %d: got (%d,%v), memo-less (%d,%v)", i, got[i].ID, got[i].Result, want[i].ID, want[i].Result)
		}
		for k, v := range want[i].Model {
			if got[i].Model[k] != v {
				t.Errorf("answer %d: model[%s] = %d, memo-less %d", i, k, got[i].Model[k], v)
			}
		}
	}
}

// TestSolvePoolMemoBypassedUnderFaults: with an injector present the pool
// must not touch the cache at all — no lookups, no stores.
func TestSolvePoolMemoBypassedUnderFaults(t *testing.T) {
	c := NewCtx()
	x := c.Var("x", 32)
	queries := []Query{{ID: 0, Constraints: []*Expr{c.Eq(x, c.Const(3, 32))}}}
	mem := newRecordingMemo()
	plan := &faultinject.Plan{Seed: 1, Rate: 1.0}
	inj := plan.For(0, 0)
	if inj == nil {
		t.Fatal("rate-1.0 plan produced no injector")
	}
	_, _, _ = SolvePoolCtx(context.Background(), queries, PoolOptions{Workers: 1, Memo: mem, Faults: inj})
	if mem.lookups != 0 || len(mem.stores) != 0 {
		t.Errorf("faulted pool touched the memo: lookups=%d stores=%d", mem.lookups, len(mem.stores))
	}
}
