package symexec

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/symbolic"
	"repro/internal/wasm"
)

func TestMemoryStoreLoadRoundTrip(t *testing.T) {
	ctx := symbolic.NewCtx()
	m := NewMemory(ctx)
	v := ctx.Const(0x1122334455667788, 64)
	m.Store(100, 8, v)
	got := m.Load(100, 8)
	if gv, ok := got.IsConst(); !ok || gv != 0x1122334455667788 {
		t.Errorf("load = %s", got)
	}
	// Partial loads see the right bytes (little-endian).
	lo := m.Load(100, 4)
	if gv, ok := lo.IsConst(); !ok || gv != 0x55667788 {
		t.Errorf("low half = %s", lo)
	}
	hi := m.Load(104, 4)
	if gv, ok := hi.IsConst(); !ok || gv != 0x11223344 {
		t.Errorf("high half = %s", hi)
	}
}

func TestMemoryOverwrite(t *testing.T) {
	ctx := symbolic.NewCtx()
	m := NewMemory(ctx)
	m.Store(0, 8, ctx.Const(0, 64))
	// Overwrite the middle two bytes.
	m.Store(3, 2, ctx.Const(0xffff, 16))
	got := m.Load(0, 8)
	if gv, ok := got.IsConst(); !ok || gv != 0x000000ffff000000 {
		t.Errorf("after overlap: %s", got)
	}
}

func TestMemorySymbolicContent(t *testing.T) {
	ctx := symbolic.NewCtx()
	m := NewMemory(ctx)
	x := ctx.Var("x", 64)
	m.Store(16, 8, x)
	back := m.Load(16, 8)
	// Loading what was stored reconstructs the same expression.
	if back != x {
		// Byte-split + concat should simplify back to x via the
		// extract-concat rules; if not identical, they must at least be
		// semantically equal.
		model := symbolic.Model{"x": 0xdeadbeefcafe1234}
		if symbolic.Eval(back, model) != model["x"] {
			t.Errorf("reload is not value-preserving: %s", back)
		}
	}
}

// TestMemorySymbolicLoadObjects: unknown cells materialize as fresh vars
// that stay consistent across loads (the ⟨a, s⟩ objects of §3.4.1).
func TestMemorySymbolicLoadObjects(t *testing.T) {
	ctx := symbolic.NewCtx()
	m := NewMemory(ctx)
	a := m.Load(555, 4)
	b := m.Load(555, 4)
	if a != b {
		t.Error("repeated load of unknown memory returned different objects")
	}
	if m.LoadObjects() != 4 {
		t.Errorf("load objects = %d, want 4", m.LoadObjects())
	}
	// A store then shadows the fresh bytes.
	m.Store(555, 4, ctx.Const(7, 32))
	c := m.Load(555, 4)
	if gv, ok := c.IsConst(); !ok || gv != 7 {
		t.Errorf("after store: %s", c)
	}
}

func TestLoadOpExtension(t *testing.T) {
	ctx := symbolic.NewCtx()
	m := NewMemory(ctx)
	m.Store(0, 1, ctx.Const(0x80, 8))
	u, err := m.LoadOp(wasm.OpI32Load8U, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gv, _ := u.IsConst(); gv != 0x80 || u.Width != 32 {
		t.Errorf("load8_u = %s (width %d)", u, u.Width)
	}
	s, err := m.LoadOp(wasm.OpI32Load8S, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gv, _ := s.IsConst(); gv != 0xffffff80 {
		t.Errorf("load8_s = %s", s)
	}
	s64, err := m.LoadOp(wasm.OpI64Load32S, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s64.Width != 64 {
		t.Errorf("load32_s width = %d", s64.Width)
	}
}

func TestStoreOpTruncates(t *testing.T) {
	ctx := symbolic.NewCtx()
	m := NewMemory(ctx)
	if err := m.StoreOp(wasm.OpI64Store8, 9, ctx.Const(0xABCD, 64)); err != nil {
		t.Fatal(err)
	}
	got := m.Load(9, 1)
	if gv, _ := got.IsConst(); gv != 0xCD {
		t.Errorf("store8 wrote %s", got)
	}
}

// TestMemoryModelsAgree property-checks the fast byte-map model against the
// EOSAFE-style naive model on random store/load sequences.
func TestMemoryModelsAgree(t *testing.T) {
	f := func(ops []struct {
		Addr  uint16
		Val   uint32
		Size  uint8
		Store bool
	}) bool {
		ctx := symbolic.NewCtx()
		fast := NewMemory(ctx)
		naive := NewNaiveMemory(ctx)
		if len(ops) > 40 {
			ops = ops[:40]
		}
		for _, op := range ops {
			size := int(op.Size%4) + 1
			addr := uint32(op.Addr % 256)
			if op.Store {
				v := ctx.Const(uint64(op.Val), uint8(8*size))
				fast.Store(addr, size, v)
				naive.Store(addr, size, v)
			} else {
				a := fast.Load(addr, size)
				b := naive.Load(addr, size)
				av, aok := a.IsConst()
				bv, bok := b.IsConst()
				// When both are concrete they must agree; symbolic results
				// may differ structurally (fresh objects are per-model).
				if aok && bok && av != bv {
					return false
				}
				if aok != bok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyModelMapsVariables(t *testing.T) {
	params := []Param{
		{Type: "name", U64: 1},
		{Type: "asset", Amount: 2, Symbol: 3},
		{Type: "string", Str: []byte("abc")},
	}
	model := symbolic.Model{
		VarName(0):       100,
		VarAmount(1):     200,
		VarStrByte(2, 1): 'Z',
	}
	out := ApplyModel(params, model)
	if out[0].U64 != 100 {
		t.Errorf("p0 = %d", out[0].U64)
	}
	if out[1].Amount != 200 || out[1].Symbol != 3 {
		t.Errorf("asset = %d/%d", out[1].Amount, out[1].Symbol)
	}
	if string(out[2].Str) != "aZc" {
		t.Errorf("str = %q", out[2].Str)
	}
	// Originals untouched.
	if params[0].U64 != 1 || string(params[2].Str) != "abc" {
		t.Error("ApplyModel mutated its input")
	}
}

// eagerAsset and eagerString are the eager input layout the lazy input
// regions replace, kept as their oracle: every input byte stored up front.
func eagerAsset(m *Memory, ptr uint32, i int) {
	m.Store(ptr, 8, m.ctx.Var(VarAmount(i), 64))
	m.Store(ptr+8, 8, m.ctx.Var(VarSymbol(i), 64))
}

func eagerString(m *Memory, ptr uint32, i, n int) {
	m.StoreByte(ptr, m.ctx.Const(uint64(n), 8))
	for j := 0; j < n; j++ {
		m.StoreByte(ptr+1+uint32(j), m.ctx.Var(VarStrByte(i, j), 8))
	}
}

// TestLazyInputsMatchEagerLayout lays out random asset and string inputs,
// with pointers drawn from a small window so regions overlap (and from the
// top of the address space, so they wrap), then runs random stores and
// loads on a lazy memory and on the eager oracle over one context. Every
// load must return the identical node and the load-object counts must
// agree. The lazy memory and the context are reused across layouts.
func TestLazyInputsMatchEagerLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ctx := symbolic.NewCtx()
	lazy := NewMemory(ctx)
	for round := 0; round < 300; round++ {
		ctx.Reset()
		lazy.Reset()
		eager := NewMemory(ctx)
		base := uint32(0)
		if round%4 == 3 {
			base = ^uint32(0) - 40 // inputs and accesses wrap past 2^32
		}
		addr := func() uint32 { return base + uint32(rng.Intn(96)) }
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			ptr := addr()
			if rng.Intn(2) == 0 {
				eagerAsset(eager, ptr, i)
				lazy.inputAsset(ptr, i)
			} else {
				n := rng.Intn(40)
				if rng.Intn(8) == 0 {
					n = 250 + rng.Intn(20) // the length byte truncates
				}
				eagerString(eager, ptr, i, n)
				lazy.inputString(ptr, i, n)
			}
		}
		for op := 0; op < 120; op++ {
			a, size := addr(), []int{1, 2, 4, 8}[rng.Intn(4)]
			if rng.Intn(3) == 0 {
				v := ctx.Const(rng.Uint64(), uint8(8*size))
				if rng.Intn(2) == 0 {
					v = ctx.Var(fmt.Sprintf("v%d", op), uint8(8*size))
				}
				eager.Store(a, size, v)
				lazy.Store(a, size, v)
				continue
			}
			if got, want := lazy.Load(a, size), eager.Load(a, size); got != want {
				t.Fatalf("round %d: Load(%d, %d) = %s, eager layout gives %s", round, a, size, got, want)
			}
		}
		if got, want := lazy.LoadObjects(), eager.LoadObjects(); got != want {
			t.Fatalf("round %d: %d load objects, eager layout gives %d", round, got, want)
		}
	}
}
