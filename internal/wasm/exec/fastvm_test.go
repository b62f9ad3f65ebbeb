package exec

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/wasm"
)

// diffOutcome captures everything observable about one invocation, for
// fast-vs-reference comparison.
type diffOutcome struct {
	results []uint64
	trap    TrapKind // 0 when the call succeeded
	fuel    int64    // fuel consumed (meaningful only on success)
	memHash uint64
	globals []uint64
}

func memHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// runEngine instantiates m fresh and invokes "f" on one engine.
func runEngine(t *testing.T, m *wasm.Module, fast bool, fuel int64, args ...uint64) diffOutcome {
	t.Helper()
	inst, err := instantiate(m, nil)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	var vm *VM
	if fast {
		vm = NewFastVM(inst)
	} else {
		vm = NewVM(inst)
	}
	vm.SetFuel(fuel)
	res, err := vm.Invoke("f", args...)
	out := diffOutcome{results: res, memHash: memHash(inst.mem), globals: append([]uint64(nil), inst.globals...)}
	if err != nil {
		tr, ok := AsTrap(err)
		if !ok {
			t.Fatalf("non-trap error: %v", err)
		}
		out.trap = tr.Kind
		return out
	}
	out.fuel = fuel - vm.Fuel()
	return out
}

// runBoth runs "f" on both engines and fails the test on any observable
// divergence: results, trap kind, fuel consumed (successful runs), final
// memory, and final globals.
func runBoth(t *testing.T, m *wasm.Module, args ...uint64) diffOutcome {
	t.Helper()
	ref := runEngine(t, m, false, DefaultFuel, args...)
	fast := runEngine(t, m, true, DefaultFuel, args...)
	if ref.trap != fast.trap {
		t.Fatalf("trap divergence: reference %v, fast %v", ref.trap, fast.trap)
	}
	if len(ref.results) != len(fast.results) {
		t.Fatalf("result count divergence: reference %v, fast %v", ref.results, fast.results)
	}
	for i := range ref.results {
		if ref.results[i] != fast.results[i] {
			t.Fatalf("result %d divergence: reference %#x, fast %#x", i, ref.results[i], fast.results[i])
		}
	}
	if ref.trap == 0 && ref.fuel != fast.fuel {
		t.Fatalf("fuel divergence: reference %d, fast %d", ref.fuel, fast.fuel)
	}
	if ref.memHash != fast.memHash {
		t.Fatalf("memory divergence")
	}
	for i := range ref.globals {
		if ref.globals[i] != fast.globals[i] {
			t.Fatalf("global %d divergence: %#x vs %#x", i, ref.globals[i], fast.globals[i])
		}
	}
	return ref
}

// TestSpecCorners is the table-driven corner-semantics suite: every entry
// is asserted against the reference interpreter and the fast engine from
// the same table, and the two engines are compared against each other.
func TestSpecCorners(t *testing.T) {
	i32 := []wasm.ValType{wasm.I32}
	i64 := []wasm.ValType{wasm.I64}
	tests := []struct {
		name    string
		results []wasm.ValType
		body    []wasm.Instr
		want    uint64
		trap    TrapKind
	}{
		// Division and remainder trap corners.
		{name: "i32.div_s by zero", results: i32, trap: TrapDivideByZero,
			body: []wasm.Instr{wasm.I32Const(7), wasm.I32Const(0), wasm.Op0(wasm.OpI32DivS)}},
		{name: "i32.div_u by zero", results: i32, trap: TrapDivideByZero,
			body: []wasm.Instr{wasm.I32Const(7), wasm.I32Const(0), wasm.Op0(wasm.OpI32DivU)}},
		{name: "i32.rem_s by zero", results: i32, trap: TrapDivideByZero,
			body: []wasm.Instr{wasm.I32Const(7), wasm.I32Const(0), wasm.Op0(wasm.OpI32RemS)}},
		{name: "i32.div_s MinInt/-1 overflows", results: i32, trap: TrapIntegerOverflow,
			body: []wasm.Instr{wasm.I32Const(math.MinInt32), wasm.I32Const(-1), wasm.Op0(wasm.OpI32DivS)}},
		{name: "i32.rem_s MinInt/-1 is zero", results: i32, want: 0,
			body: []wasm.Instr{wasm.I32Const(math.MinInt32), wasm.I32Const(-1), wasm.Op0(wasm.OpI32RemS)}},
		{name: "i64.div_s by zero", results: i64, trap: TrapDivideByZero,
			body: []wasm.Instr{wasm.I64Const(7), wasm.I64Const(0), wasm.Op0(wasm.OpI64DivS)}},
		{name: "i64.div_s MinInt/-1 overflows", results: i64, trap: TrapIntegerOverflow,
			body: []wasm.Instr{wasm.I64Const(math.MinInt64), wasm.I64Const(-1), wasm.Op0(wasm.OpI64DivS)}},
		{name: "i64.rem_s MinInt/-1 is zero", results: i64, want: 0,
			body: []wasm.Instr{wasm.I64Const(math.MinInt64), wasm.I64Const(-1), wasm.Op0(wasm.OpI64RemS)}},

		// Shift-amount masking.
		{name: "i32.shl masks shift to 5 bits", results: i32, want: 2,
			body: []wasm.Instr{wasm.I32Const(1), wasm.I32Const(33), wasm.Op0(wasm.OpI32Shl)}},
		{name: "i32.shr_s masks and sign-extends", results: i32, want: 0xc0000000,
			body: []wasm.Instr{wasm.I32Const(math.MinInt32), wasm.I32Const(33), wasm.Op0(wasm.OpI32ShrS)}},
		{name: "i64.shl masks shift to 6 bits", results: i64, want: 2,
			body: []wasm.Instr{wasm.I64Const(1), wasm.I64Const(65), wasm.Op0(wasm.OpI64Shl)}},
		{name: "i64.shr_u masks shift", results: i64, want: 0x7fffffffffffffff,
			body: []wasm.Instr{wasm.I64Const(-1), wasm.I64Const(65), wasm.Op0(wasm.OpI64ShrU)}},

		// Signed vs unsigned comparisons.
		{name: "i32.lt_u treats -1 as max", results: i32, want: 0,
			body: []wasm.Instr{wasm.I32Const(-1), wasm.I32Const(1), wasm.Op0(wasm.OpI32LtU)}},
		{name: "i32.lt_s keeps -1 negative", results: i32, want: 1,
			body: []wasm.Instr{wasm.I32Const(-1), wasm.I32Const(1), wasm.Op0(wasm.OpI32LtS)}},
		{name: "i64.gt_u treats -1 as max", results: i32, want: 1,
			body: []wasm.Instr{wasm.I64Const(-1), wasm.I64Const(1), wasm.Op0(wasm.OpI64GtU)}},

		// Sign/zero-extending loads and wrapping stores.
		{name: "i32.load8_s sign-extends", results: i32, want: uint64(uint32(0xffffff80)),
			body: []wasm.Instr{
				wasm.I32Const(0), wasm.I32Const(0x80), wasm.Store(wasm.OpI32Store8, 0),
				wasm.I32Const(0), wasm.Load(wasm.OpI32Load8S, 0)}},
		{name: "i32.load8_u zero-extends", results: i32, want: 0x80,
			body: []wasm.Instr{
				wasm.I32Const(0), wasm.I32Const(0x80), wasm.Store(wasm.OpI32Store8, 0),
				wasm.I32Const(0), wasm.Load(wasm.OpI32Load8U, 0)}},
		{name: "i64.load16_s sign-extends", results: i64, want: 0xfffffffffffffffe,
			body: []wasm.Instr{
				wasm.I32Const(4), wasm.I64Const(0xfffe), wasm.Store(wasm.OpI64Store16, 0),
				wasm.I32Const(4), wasm.Load(wasm.OpI64Load16S, 0)}},
		{name: "i64.load32_u zero-extends", results: i64, want: 0xfffffffe,
			body: []wasm.Instr{
				wasm.I32Const(4), wasm.I64Const(-2), wasm.Store(wasm.OpI64Store32, 0),
				wasm.I32Const(4), wasm.Load(wasm.OpI64Load32U, 0)}},
		{name: "i32.store8 wraps the value", results: i32, want: 0x34,
			body: []wasm.Instr{
				wasm.I32Const(9), wasm.I32Const(0x1234), wasm.Store(wasm.OpI32Store8, 0),
				wasm.I32Const(9), wasm.Load(wasm.OpI32Load8U, 0)}},
		{name: "little-endian byte order", results: i32, want: 0x12,
			body: []wasm.Instr{
				wasm.I32Const(16), wasm.I32Const(0x12345678), wasm.Store(wasm.OpI32Store, 0),
				wasm.I32Const(19), wasm.Load(wasm.OpI32Load8U, 0)}},

		// Unaligned and out-of-bounds access.
		{name: "unaligned i64 load round-trips", results: i64, want: 0x1122334455667788,
			body: []wasm.Instr{
				wasm.I32Const(3), wasm.I64Const(0x1122334455667788), wasm.Store(wasm.OpI64Store, 0),
				wasm.I32Const(3), wasm.Load(wasm.OpI64Load, 0)}},
		{name: "load just past end traps", results: i32, trap: TrapMemoryOutOfBounds,
			body: []wasm.Instr{wasm.I32Const(PageSize - 3), wasm.Load(wasm.OpI32Load, 0)}},
		{name: "offset overflow traps", results: i32, trap: TrapMemoryOutOfBounds,
			body: []wasm.Instr{wasm.I32Const(-1), wasm.Load(wasm.OpI32Load, 4)}},
		{name: "fused const store out of bounds traps", results: i32, trap: TrapMemoryOutOfBounds,
			body: []wasm.Instr{
				wasm.I32Const(PageSize - 1), wasm.I32Const(5), wasm.Store(wasm.OpI32Store, 0),
				wasm.I32Const(0)}},

		// Truncation range checks.
		{name: "i32.trunc_f64_s NaN traps", results: i32, trap: TrapInvalidConversion,
			body: []wasm.Instr{
				wasm.Instr{Op: wasm.OpF64Const, Imm: math.Float64bits(math.NaN())},
				wasm.Op0(wasm.OpI32TruncF64S)}},
		{name: "i32.trunc_f64_s overflow traps", results: i32, trap: TrapIntegerOverflow,
			body: []wasm.Instr{
				wasm.Instr{Op: wasm.OpF64Const, Imm: math.Float64bits(3e9)},
				wasm.Op0(wasm.OpI32TruncF64S)}},

		// Wrapping and extension.
		{name: "i32.wrap_i64 truncates", results: i32, want: 0x9abcdef0,
			body: []wasm.Instr{wasm.I64Const(0x123456789abcdef0), wasm.Op0(wasm.OpI32WrapI64)}},
		{name: "i64.extend_i32_s sign-extends", results: i64, want: 0xfffffffffffffffb,
			body: []wasm.Instr{wasm.I32Const(-5), wasm.Op0(wasm.OpI64ExtendI32S)}},
		{name: "i64.extend_i32_u zero-extends", results: i64, want: 0xfffffffb,
			body: []wasm.Instr{wasm.I32Const(-5), wasm.Op0(wasm.OpI64ExtendI32U)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := buildModule(t, nil, tt.results, nil, tt.body)
			out := runBoth(t, m)
			if out.trap != tt.trap {
				t.Fatalf("trap = %v, want %v", out.trap, tt.trap)
			}
			if tt.trap == 0 {
				if len(out.results) != 1 || out.results[0] != tt.want {
					t.Fatalf("results = %#x, want %#x", out.results, tt.want)
				}
			}
		})
	}
}

// TestMemoryGrowCorners covers memory.grow edges against both engines:
// growth within limits, growth past a declared max, and past the 4GiB cap.
func TestMemoryGrowCorners(t *testing.T) {
	i32 := []wasm.ValType{wasm.I32}
	tests := []struct {
		name  string
		max   uint32
		body  []wasm.Instr
		want  uint64
		wantH bool
	}{
		{name: "grow within max returns previous size", max: 2, want: 1,
			body: []wasm.Instr{wasm.I32Const(1), wasm.Op0(wasm.OpMemoryGrow)}},
		{name: "grow past max fails", max: 2, want: uint64(uint32(0xffffffff)),
			body: []wasm.Instr{wasm.I32Const(2), wasm.Op0(wasm.OpMemoryGrow)}},
		{name: "grow past 4GiB cap fails", max: 0, want: uint64(uint32(0xffffffff)),
			body: []wasm.Instr{wasm.I32Const(70000), wasm.Op0(wasm.OpMemoryGrow)}},
		{name: "grow zero reports current size", max: 2, want: 1,
			body: []wasm.Instr{wasm.I32Const(0), wasm.Op0(wasm.OpMemoryGrow)}},
		{name: "size after grow", max: 4, want: 3,
			body: []wasm.Instr{
				wasm.I32Const(2), wasm.Op0(wasm.OpMemoryGrow), wasm.Drop(),
				wasm.Op0(wasm.OpMemorySize)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := buildModule(t, nil, i32, nil, tt.body)
			m.Memories = []wasm.MemType{{Limits: wasm.Limits{Min: 1, Max: tt.max, HasMax: tt.max != 0}}}
			out := runBoth(t, m)
			if out.trap != 0 || len(out.results) != 1 || out.results[0] != tt.want {
				t.Fatalf("trap=%v results=%#x, want %#x", out.trap, out.results, tt.want)
			}
		})
	}
}

// TestIRCompilesCommonShapes guards against the fast engine silently
// falling back to the tree-walker for ordinary well-typed bodies.
func TestIRCompilesCommonShapes(t *testing.T) {
	i32 := []wasm.ValType{wasm.I32}
	bodies := map[string][]wasm.Instr{
		"arith": {wasm.I32Const(2), wasm.I32Const(3), wasm.Op0(wasm.OpI32Add)},
		"if-else": {wasm.I32Const(1), wasm.IfTyped(wasm.I32), wasm.I32Const(10),
			wasm.Else(), wasm.I32Const(20), wasm.End()},
		"loop": {wasm.Block(), wasm.Loop(), wasm.I32Const(1), wasm.BrIf(1),
			wasm.Br(0), wasm.End(), wasm.End(), wasm.I32Const(4)},
		"br_table": {wasm.Block(), wasm.I32Const(0),
			wasm.BrTable([]uint32{0}, 0), wasm.End(), wasm.I32Const(9)},
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			m := buildModule(t, nil, i32, nil, body)
			p := compileModule(m)
			if p.funcs[0] == nil {
				t.Fatalf("body %q was rejected by the IR compiler", name)
			}
			runBoth(t, m)
		})
	}
}

// TestIRFusion checks the superinstruction patterns are both emitted and
// semantically exact.
func TestIRFusion(t *testing.T) {
	i32 := []wasm.ValType{wasm.I32}
	m := buildModule(t, []wasm.ValType{wasm.I32, wasm.I32}, i32, nil, []wasm.Instr{
		wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op0(wasm.OpI32Add), // get+get+add
		wasm.I32Const(5), wasm.Op0(wasm.OpI32Add), // const+add
		wasm.I32Const(0), wasm.I32Const(0x7777), wasm.Store(wasm.OpI32Store16, 0), // const+store
		wasm.I32Const(0), wasm.Load(wasm.OpI32Load16U, 0), wasm.Op0(wasm.OpI32Add),
	})
	p := compileModule(m)
	fn := p.funcs[0]
	if fn == nil {
		t.Fatal("fusion body rejected")
	}
	found := map[irOp]bool{}
	for _, in := range fn.code {
		found[in.op] = true
	}
	for _, want := range []irOp{irGetGetAddI32, irConstAddI32, irConstStore} {
		if !found[want] {
			t.Fatalf("superinstruction %d not emitted; ops: %v", want, fn.code)
		}
	}
	out := runBoth(t, m, 40, 2)
	if want := uint64(40 + 2 + 5 + 0x7777); out.results[0] != want {
		t.Fatalf("fused result %#x, want %#x", out.results[0], want)
	}
}

// TestFastFuelParity pins the fuel-parity contract on a mixed workload:
// control flow, calls and memory traffic consume identical fuel on both
// engines.
func TestFastFuelParity(t *testing.T) {
	i32 := []wasm.ValType{wasm.I32}
	// sum of i in [0, n) with a call per iteration
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	ti := m.AddType(wasm.FuncType{Params: i32, Results: i32})
	m.Funcs = []uint32{ti, ti}
	m.Code = []wasm.Code{
		{Locals: []wasm.LocalDecl{{Count: 2, Type: wasm.I32}}, Body: []wasm.Instr{
			wasm.Block(), wasm.Loop(),
			wasm.LocalGet(1), wasm.LocalGet(0), wasm.Op0(wasm.OpI32GeU), wasm.BrIf(1),
			wasm.LocalGet(2), wasm.LocalGet(1), wasm.Call(1), wasm.Op0(wasm.OpI32Add), wasm.LocalSet(2),
			wasm.LocalGet(1), wasm.I32Const(1), wasm.Op0(wasm.OpI32Add), wasm.LocalSet(1),
			wasm.Br(0), wasm.End(), wasm.End(),
			wasm.LocalGet(2), wasm.End(),
		}},
		{Body: []wasm.Instr{wasm.LocalGet(0), wasm.I32Const(3), wasm.Op0(wasm.OpI32Mul), wasm.End()}},
	}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 0}}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	out := runBoth(t, m, 50)
	want := uint64(0)
	for i := uint64(0); i < 50; i++ {
		want += i * 3
	}
	if out.results[0] != uint64(uint32(want)) {
		t.Fatalf("result %d, want %d", out.results[0], want)
	}
}

// TestFastFallbackIllTyped: bodies the static pass rejects still execute
// (on the tree-walker) with identical observable behaviour.
func TestFastFallbackIllTyped(t *testing.T) {
	i32 := []wasm.ValType{wasm.I32}
	// if-with-result-without-else pushes nothing on the false path in the
	// reference engine; the IR compiler must reject it and fall back.
	body := []wasm.Instr{
		wasm.I32Const(1),
		wasm.I32Const(0), wasm.IfTyped(wasm.I32), wasm.I32Const(2), wasm.End(),
	}
	m := buildModule(t, nil, i32, nil, body)
	if fn := compileModule(m).funcs[0]; fn != nil {
		t.Fatal("ill-typed body unexpectedly compiled")
	}
	runBoth(t, m)
}

// TestFastObserver checks the tracing variant sees every charged unit of
// fuel exactly once.
func TestFastObserver(t *testing.T) {
	i32 := []wasm.ValType{wasm.I32}
	m := buildModule(t, nil, i32, nil, []wasm.Instr{
		wasm.I32Const(2), wasm.I32Const(3), wasm.Op0(wasm.OpI32Add),
	})
	inst, err := instantiate(m, nil)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	vm := NewFastVM(inst)
	var traced int
	vm.SetFastObserver(func(fi uint32, pc, cost int) { traced += cost })
	start := vm.Fuel()
	if _, err := vm.Invoke("f"); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if got := start - vm.Fuel(); int64(traced) != got {
		t.Fatalf("observer saw %d fuel units, engine charged %d", traced, got)
	}
}
