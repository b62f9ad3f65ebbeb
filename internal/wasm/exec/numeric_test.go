package exec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/wasm"
)

// runOp executes a single binary i64 opcode through the interpreter.
func runOp(t *testing.T, op wasm.Opcode, params []wasm.ValType, results []wasm.ValType, args ...uint64) (uint64, error) {
	t.Helper()
	var body []wasm.Instr
	for i := range args {
		body = append(body, wasm.LocalGet(uint32(i)))
	}
	body = append(body, wasm.Op0(op))
	m := buildModule(t, params, results, nil, body)
	return run1(t, m, args...)
}

// TestI64OpsMatchGo property-checks the interpreter's i64 semantics against
// Go's (which match Wasm's for wrapping arithmetic and masked shifts).
func TestI64OpsMatchGo(t *testing.T) {
	i64 := []wasm.ValType{wasm.I64, wasm.I64}
	r64 := []wasm.ValType{wasm.I64}
	cases := []struct {
		op wasm.Opcode
		f  func(a, b uint64) uint64
	}{
		{wasm.OpI64Add, func(a, b uint64) uint64 { return a + b }},
		{wasm.OpI64Sub, func(a, b uint64) uint64 { return a - b }},
		{wasm.OpI64Mul, func(a, b uint64) uint64 { return a * b }},
		{wasm.OpI64And, func(a, b uint64) uint64 { return a & b }},
		{wasm.OpI64Or, func(a, b uint64) uint64 { return a | b }},
		{wasm.OpI64Xor, func(a, b uint64) uint64 { return a ^ b }},
		{wasm.OpI64Shl, func(a, b uint64) uint64 { return a << (b & 63) }},
		{wasm.OpI64ShrU, func(a, b uint64) uint64 { return a >> (b & 63) }},
		{wasm.OpI64ShrS, func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) }},
	}
	rng := rand.New(rand.NewSource(3))
	for _, tc := range cases {
		m := buildModule(t, i64, r64, nil,
			[]wasm.Instr{wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op0(tc.op)})
		inst, err := instantiate(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			a, b := rng.Uint64(), rng.Uint64()
			res, err := NewVM(inst).Invoke("f", a, b)
			if err != nil {
				t.Fatalf("%s: %v", tc.op.Name(), err)
			}
			if want := tc.f(a, b); res[0] != want {
				t.Fatalf("%s(%#x,%#x) = %#x, want %#x", tc.op.Name(), a, b, res[0], want)
			}
		}
	}
}

// TestI32OpsQuick property-checks i32 semantics with zero-extension into
// the 64-bit value representation.
func TestI32OpsQuick(t *testing.T) {
	m := buildModule(t,
		[]wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32}, nil,
		[]wasm.Instr{wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op0(wasm.OpI32Mul)})
	inst, err := instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint32) bool {
		res, err := NewVM(inst).Invoke("f", uint64(a), uint64(b))
		return err == nil && res[0] == uint64(a*b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignedDivisionEdges(t *testing.T) {
	i32p := []wasm.ValType{wasm.I32, wasm.I32}
	r32 := []wasm.ValType{wasm.I32}

	// MinInt32 / -1 overflows.
	if _, err := runOp(t, wasm.OpI32DivS, i32p, r32, uint64(uint32(1)<<31), uint64(uint32(0xffffffff))); !IsTrap(err, TrapIntegerOverflow) {
		t.Errorf("MinInt32/-1: want overflow trap, got %v", err)
	}
	// MinInt32 %% -1 == 0 (no trap).
	got, err := runOp(t, wasm.OpI32RemS, i32p, r32, uint64(uint32(1)<<31), uint64(uint32(0xffffffff)))
	if err != nil || got != 0 {
		t.Errorf("MinInt32%%-1 = %d, %v", got, err)
	}
	// -7 / 2 == -3 (trunc toward zero).
	got, err = runOp(t, wasm.OpI32DivS, i32p, r32, uint64(uint32(0xfffffff9)), 2)
	if err != nil || int32(got) != -3 {
		t.Errorf("-7/2 = %d, %v", int32(got), err)
	}
}

func TestFloatTruncationTraps(t *testing.T) {
	p := []wasm.ValType{wasm.F64}
	r := []wasm.ValType{wasm.I32}
	// NaN -> invalid conversion.
	if _, err := runOp(t, wasm.OpI32TruncF64S, p, r, math.Float64bits(math.NaN())); !IsTrap(err, TrapInvalidConversion) {
		t.Errorf("trunc NaN: %v", err)
	}
	// Out of range -> overflow.
	if _, err := runOp(t, wasm.OpI32TruncF64S, p, r, math.Float64bits(1e300)); !IsTrap(err, TrapIntegerOverflow) {
		t.Errorf("trunc 1e300: %v", err)
	}
	// In range works.
	got, err := runOp(t, wasm.OpI32TruncF64S, p, r, math.Float64bits(-123.9))
	if err != nil || int32(got) != -123 {
		t.Errorf("trunc -123.9 = %d, %v", int32(got), err)
	}
}

func TestConversions(t *testing.T) {
	// i64.extend_i32_s sign-extends.
	got, err := runOp(t, wasm.OpI64ExtendI32S,
		[]wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I64}, uint64(uint32(0x80000000)))
	if err != nil || got != 0xffffffff80000000 {
		t.Errorf("extend_s = %#x, %v", got, err)
	}
	// i32.wrap_i64 truncates.
	got, err = runOp(t, wasm.OpI32WrapI64,
		[]wasm.ValType{wasm.I64}, []wasm.ValType{wasm.I32}, 0x1234567890abcdef)
	if err != nil || got != 0x90abcdef {
		t.Errorf("wrap = %#x, %v", got, err)
	}
	// f64.convert_i64_u of a large value.
	got, err = runOp(t, wasm.OpF64ConvertI64U,
		[]wasm.ValType{wasm.I64}, []wasm.ValType{wasm.F64}, math.MaxUint64)
	if err != nil || math.Float64frombits(got) != float64(uint64(math.MaxUint64)) {
		t.Errorf("convert_u = %v, %v", math.Float64frombits(got), err)
	}
	// Reinterpret round trip.
	got, err = runOp(t, wasm.OpF64ReinterpretI64,
		[]wasm.ValType{wasm.I64}, []wasm.ValType{wasm.F64}, 0x4037000000000000)
	if err != nil || math.Float64frombits(got) != 23.0 {
		t.Errorf("reinterpret = %v, %v", math.Float64frombits(got), err)
	}
}

func TestFloatMinMaxCopysign(t *testing.T) {
	p := []wasm.ValType{wasm.F64, wasm.F64}
	r := []wasm.ValType{wasm.F64}
	got, err := runOp(t, wasm.OpF64Min, p, r, math.Float64bits(2.5), math.Float64bits(-1.5))
	if err != nil || math.Float64frombits(got) != -1.5 {
		t.Errorf("min = %v", math.Float64frombits(got))
	}
	got, err = runOp(t, wasm.OpF64Copysign, p, r, math.Float64bits(3.0), math.Float64bits(math.Copysign(0, -1)))
	if err != nil || math.Float64frombits(got) != -3.0 {
		t.Errorf("copysign = %v", math.Float64frombits(got))
	}
}

func TestGlobalMutation(t *testing.T) {
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	ti := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	m.Funcs = []uint32{ti}
	m.Globals = []wasm.Global{{
		Type: wasm.GlobalType{Type: wasm.I64, Mutable: true},
		Init: []wasm.Instr{wasm.I64Const(5)},
	}}
	m.Code = []wasm.Code{{Body: []wasm.Instr{
		wasm.GlobalGet(0), wasm.I64Const(10), wasm.Op0(wasm.OpI64Add), wasm.GlobalSet(0),
		wasm.GlobalGet(0),
		wasm.End(),
	}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 0}}
	inst, err := instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewVM(inst).Invoke("f")
	if err != nil || res[0] != 15 {
		t.Fatalf("global add: %v %v", res, err)
	}
	// Globals persist within the instance.
	res, _ = NewVM(inst).Invoke("f")
	if res[0] != 25 {
		t.Errorf("second call = %d, want 25", res[0])
	}
	if v, ok := inst.GlobalValue(0); !ok || v != 25 {
		t.Errorf("GlobalValue = %d %v", v, ok)
	}
}

func TestDataSegmentInitialization(t *testing.T) {
	m := buildModule(t, nil, []wasm.ValType{wasm.I32}, nil,
		[]wasm.Instr{wasm.I32Const(100), wasm.Load(wasm.OpI32Load8U, 2)})
	m.Data = []wasm.DataSegment{{Offset: []wasm.Instr{wasm.I32Const(100)}, Data: []byte{1, 2, 3, 4}}}
	got, err := run1(t, m)
	if err != nil || got != 3 {
		t.Errorf("data segment byte = %d, %v", got, err)
	}
}

func TestDataSegmentOutOfBoundsRejected(t *testing.T) {
	m := buildModule(t, nil, nil, nil, []wasm.Instr{})
	m.Data = []wasm.DataSegment{{Offset: []wasm.Instr{wasm.I32Const(PageSize - 1)}, Data: []byte{1, 2}}}
	if _, err := instantiate(m, nil); err == nil {
		t.Error("out-of-bounds data segment accepted")
	}
}

func TestInvokeErrors(t *testing.T) {
	m := buildModule(t, []wasm.ValType{wasm.I64}, []wasm.ValType{wasm.I64}, nil,
		[]wasm.Instr{wasm.LocalGet(0)})
	inst, err := instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVM(inst).Invoke("nosuch"); err == nil {
		t.Error("unknown export accepted")
	}
	if _, err := NewVM(inst).Invoke("f"); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := NewVM(inst).InvokeIndex(99); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestInstanceMemoryHelpers(t *testing.T) {
	m := buildModule(t, nil, nil, nil, []wasm.Instr{})
	inst, err := instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.WriteMemory(10, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	p, err := inst.ViewMemory(10, 3)
	if err != nil || string(p) != "\x01\x02\x03" {
		t.Errorf("read back %x, %v", p, err)
	}
	if _, err := inst.ViewMemory(PageSize-1, 2); err == nil {
		t.Error("OOB read accepted")
	}
	if err := inst.WriteMemory(PageSize-1, []byte{1, 2}); err == nil {
		t.Error("OOB write accepted")
	}
	// Address arithmetic must not wrap.
	if _, err := inst.ViewMemory(0xffffffff, 2); err == nil {
		t.Error("wrapping read accepted")
	}
}

func TestUnresolvedImportFailsInstantiate(t *testing.T) {
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	ti := m.AddType(wasm.FuncType{})
	m.Imports = []wasm.Import{{Module: "env", Name: "missing", Kind: wasm.ExternalFunc, TypeIndex: ti}}
	if _, err := instantiate(m, nil); err == nil {
		t.Error("unresolved import accepted")
	}
	if _, err := instantiate(m, Resolver{"env": HostModule{}}); err == nil {
		t.Error("unresolved import name accepted")
	}
}

// TestEveryNumericOpcodeExecutes drives each pure numeric opcode through
// the interpreter once with benign operands — a smoke net ensuring no
// opcode in the dispatch table is unimplemented or panicking.
func TestEveryNumericOpcodeExecutes(t *testing.T) {
	type shape struct {
		params  []wasm.ValType
		results []wasm.ValType
		args    []uint64
	}
	shapes := map[string]shape{
		"i32u": {p32(1), r(wasm.I32), []uint64{41}},
		"i32b": {p32(2), r(wasm.I32), []uint64{41, 3}},
		"i64u": {p64(1), r(wasm.I64), []uint64{41}},
		"i64b": {p64(2), r(wasm.I64), []uint64{41, 3}},
		"f32u": {pf32(1), r(wasm.F32), []uint64{f32arg(4)}},
		"f32b": {pf32(2), r(wasm.F32), []uint64{f32arg(4), f32arg(2)}},
		"f64u": {pf64(1), r(wasm.F64), []uint64{f64arg(4)}},
		"f64b": {pf64(2), r(wasm.F64), []uint64{f64arg(4), f64arg(2)}},
	}
	cases := []struct {
		ops     []wasm.Opcode
		shape   string
		results wasm.ValType
	}{
		{[]wasm.Opcode{wasm.OpI32Eqz, wasm.OpI32Clz, wasm.OpI32Ctz, wasm.OpI32Popcnt}, "i32u", wasm.I32},
		{[]wasm.Opcode{
			wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS, wasm.OpI32GtU,
			wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU,
			wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul, wasm.OpI32DivS, wasm.OpI32DivU,
			wasm.OpI32RemS, wasm.OpI32RemU, wasm.OpI32And, wasm.OpI32Or, wasm.OpI32Xor,
			wasm.OpI32Shl, wasm.OpI32ShrS, wasm.OpI32ShrU, wasm.OpI32Rotl, wasm.OpI32Rotr,
		}, "i32b", wasm.I32},
		{[]wasm.Opcode{wasm.OpI64Clz, wasm.OpI64Ctz, wasm.OpI64Popcnt}, "i64u", wasm.I64},
		{[]wasm.Opcode{
			wasm.OpI64Add, wasm.OpI64Sub, wasm.OpI64Mul, wasm.OpI64DivS, wasm.OpI64DivU,
			wasm.OpI64RemS, wasm.OpI64RemU, wasm.OpI64And, wasm.OpI64Or, wasm.OpI64Xor,
			wasm.OpI64Shl, wasm.OpI64ShrS, wasm.OpI64ShrU, wasm.OpI64Rotl, wasm.OpI64Rotr,
		}, "i64b", wasm.I64},
		{[]wasm.Opcode{
			wasm.OpF32Abs, wasm.OpF32Neg, wasm.OpF32Ceil, wasm.OpF32Floor,
			wasm.OpF32Trunc, wasm.OpF32Nearest, wasm.OpF32Sqrt,
		}, "f32u", wasm.F32},
		{[]wasm.Opcode{
			wasm.OpF32Add, wasm.OpF32Sub, wasm.OpF32Mul, wasm.OpF32Div,
			wasm.OpF32Min, wasm.OpF32Max, wasm.OpF32Copysign,
		}, "f32b", wasm.F32},
		{[]wasm.Opcode{
			wasm.OpF64Abs, wasm.OpF64Neg, wasm.OpF64Ceil, wasm.OpF64Floor,
			wasm.OpF64Trunc, wasm.OpF64Nearest, wasm.OpF64Sqrt,
		}, "f64u", wasm.F64},
		{[]wasm.Opcode{
			wasm.OpF64Add, wasm.OpF64Sub, wasm.OpF64Mul, wasm.OpF64Div,
			wasm.OpF64Min, wasm.OpF64Max, wasm.OpF64Copysign,
		}, "f64b", wasm.F64},
	}
	comparisons := map[wasm.Opcode]bool{}
	for op := wasm.OpI32Eqz; op <= wasm.OpF64Ge; op++ {
		comparisons[op] = true
	}
	for _, group := range cases {
		sh := shapes[group.shape]
		for _, op := range group.ops {
			results := []wasm.ValType{group.results}
			if comparisons[op] {
				results = []wasm.ValType{wasm.I32}
			}
			var body []wasm.Instr
			for i := range sh.args {
				body = append(body, wasm.LocalGet(uint32(i)))
			}
			body = append(body, wasm.Op0(op))
			m := buildModule(t, sh.params, results, nil, body)
			if _, err := run1(t, m, sh.args...); err != nil {
				t.Errorf("%s: %v", op.Name(), err)
			}
		}
	}
	// Float comparisons (result i32).
	fcmps32 := []wasm.Opcode{wasm.OpF32Eq, wasm.OpF32Ne, wasm.OpF32Lt, wasm.OpF32Gt, wasm.OpF32Le, wasm.OpF32Ge}
	for _, op := range fcmps32 {
		m := buildModule(t, pf32(2), r(wasm.I32), nil,
			[]wasm.Instr{wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op0(op)})
		if _, err := run1(t, m, f32arg(1), f32arg(2)); err != nil {
			t.Errorf("%s: %v", op.Name(), err)
		}
	}
	fcmps64 := []wasm.Opcode{wasm.OpF64Eq, wasm.OpF64Ne, wasm.OpF64Lt, wasm.OpF64Gt, wasm.OpF64Le, wasm.OpF64Ge}
	for _, op := range fcmps64 {
		m := buildModule(t, pf64(2), r(wasm.I32), nil,
			[]wasm.Instr{wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op0(op)})
		if _, err := run1(t, m, f64arg(1), f64arg(2)); err != nil {
			t.Errorf("%s: %v", op.Name(), err)
		}
	}
	// Conversions (operand type -> result type).
	convs := []struct {
		op  wasm.Opcode
		in  wasm.ValType
		out wasm.ValType
		arg uint64
	}{
		{wasm.OpI32TruncF32S, wasm.F32, wasm.I32, f32arg(5)},
		{wasm.OpI32TruncF32U, wasm.F32, wasm.I32, f32arg(5)},
		{wasm.OpI32TruncF64U, wasm.F64, wasm.I32, f64arg(5)},
		{wasm.OpI64TruncF32S, wasm.F32, wasm.I64, f32arg(5)},
		{wasm.OpI64TruncF32U, wasm.F32, wasm.I64, f32arg(5)},
		{wasm.OpI64TruncF64S, wasm.F64, wasm.I64, f64arg(5)},
		{wasm.OpI64TruncF64U, wasm.F64, wasm.I64, f64arg(5)},
		{wasm.OpF32ConvertI32S, wasm.I32, wasm.F32, 5},
		{wasm.OpF32ConvertI32U, wasm.I32, wasm.F32, 5},
		{wasm.OpF32ConvertI64S, wasm.I64, wasm.F32, 5},
		{wasm.OpF32ConvertI64U, wasm.I64, wasm.F32, 5},
		{wasm.OpF32DemoteF64, wasm.F64, wasm.F32, f64arg(5)},
		{wasm.OpF64ConvertI32S, wasm.I32, wasm.F64, 5},
		{wasm.OpF64ConvertI32U, wasm.I32, wasm.F64, 5},
		{wasm.OpF64ConvertI64S, wasm.I64, wasm.F64, 5},
		{wasm.OpF64ConvertI64U, wasm.I64, wasm.F64, 5},
		{wasm.OpF64PromoteF32, wasm.F32, wasm.F64, f32arg(5)},
		{wasm.OpI32ReinterpretF32, wasm.F32, wasm.I32, f32arg(5)},
		{wasm.OpI64ReinterpretF64, wasm.F64, wasm.I64, f64arg(5)},
		{wasm.OpF32ReinterpretI32, wasm.I32, wasm.F32, 5},
		{wasm.OpF64ReinterpretI64, wasm.I64, wasm.F64, 5},
	}
	for _, cv := range convs {
		m := buildModule(t, []wasm.ValType{cv.in}, []wasm.ValType{cv.out}, nil,
			[]wasm.Instr{wasm.LocalGet(0), wasm.Op0(cv.op)})
		if _, err := run1(t, m, cv.arg); err != nil {
			t.Errorf("%s: %v", cv.op.Name(), err)
		}
	}
}

func p32(n int) []wasm.ValType        { return repeatVT(wasm.I32, n) }
func p64(n int) []wasm.ValType        { return repeatVT(wasm.I64, n) }
func pf32(n int) []wasm.ValType       { return repeatVT(wasm.F32, n) }
func pf64(n int) []wasm.ValType       { return repeatVT(wasm.F64, n) }
func r(t wasm.ValType) []wasm.ValType { return []wasm.ValType{t} }

func repeatVT(t wasm.ValType, n int) []wasm.ValType {
	out := make([]wasm.ValType, n)
	for i := range out {
		out[i] = t
	}
	return out
}

func f32arg(v float32) uint64 { return uint64(math.Float32bits(v)) }
func f64arg(v float64) uint64 { return math.Float64bits(v) }
