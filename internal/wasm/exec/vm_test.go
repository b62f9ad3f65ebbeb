package exec

import (
	"errors"
	"testing"

	"repro/internal/wasm"
)

// instantiate compiles m and links it against r, for tests that run a
// module once.
func instantiate(m *wasm.Module, r Resolver) (*Instance, error) {
	c, err := Compile(m)
	if err != nil {
		return nil, err
	}
	return c.Link(r)
}

// buildModule assembles a module with a single exported function "f" of the
// given signature and body, for interpreter tests.
func buildModule(t *testing.T, params, results []wasm.ValType, locals []wasm.LocalDecl, body []wasm.Instr) *wasm.Module {
	t.Helper()
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	ti := m.AddType(wasm.FuncType{Params: params, Results: results})
	m.Funcs = []uint32{ti}
	m.Code = []wasm.Code{{Locals: locals, Body: append(body, wasm.End())}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 0}}
	m.Memories = []wasm.MemType{{Limits: wasm.Limits{Min: 1}}}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return m
}

func run1(t *testing.T, m *wasm.Module, args ...uint64) (uint64, error) {
	t.Helper()
	inst, err := instantiate(m, nil)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	res, err := NewVM(inst).Invoke("f", args...)
	if err != nil {
		return 0, err
	}
	if len(res) != 1 {
		t.Fatalf("want 1 result, got %d", len(res))
	}
	return res[0], nil
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		name string
		body []wasm.Instr
		args []uint64
		want uint64
	}{
		{
			name: "i32.add",
			body: []wasm.Instr{wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op0(wasm.OpI32Add)},
			args: []uint64{40, 2}, want: 42,
		},
		{
			name: "i32.sub wraps",
			body: []wasm.Instr{wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op0(wasm.OpI32Sub)},
			args: []uint64{0, 1}, want: 0xffffffff,
		},
		{
			name: "i32.popcnt",
			body: []wasm.Instr{wasm.LocalGet(0), wasm.Op0(wasm.OpI32Popcnt)},
			args: []uint64{0xff00ff00, 0}, want: 16,
		},
		{
			name: "i64.mul",
			body: []wasm.Instr{wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op0(wasm.OpI64Mul)},
			args: []uint64{6, 7}, want: 42,
		},
		{
			name: "i64.shr_s sign extends",
			body: []wasm.Instr{wasm.LocalGet(0), wasm.I64Const(4), wasm.Op0(wasm.OpI64ShrS)},
			args: []uint64{0xffffffffffffff00, 0}, want: 0xfffffffffffffff0,
		},
		{
			name: "i32.lt_s signed compare",
			body: []wasm.Instr{wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op0(wasm.OpI32LtS)},
			args: []uint64{0xffffffff /* -1 */, 1}, want: 1,
		},
		{
			name: "i32.lt_u unsigned compare",
			body: []wasm.Instr{wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op0(wasm.OpI32LtU)},
			args: []uint64{0xffffffff, 1}, want: 0,
		},
		{
			name: "select true",
			body: []wasm.Instr{wasm.LocalGet(0), wasm.LocalGet(1), wasm.I32Const(1), wasm.Op0(wasm.OpSelect)},
			args: []uint64{11, 22}, want: 11,
		},
		{
			name: "i64.rotl",
			body: []wasm.Instr{wasm.LocalGet(0), wasm.I64Const(8), wasm.Op0(wasm.OpI64Rotl)},
			args: []uint64{0xff00000000000000, 0}, want: 0xff,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var params []wasm.ValType
			for range tt.args {
				params = append(params, wasm.I64)
			}
			m := buildModule(t, params, []wasm.ValType{wasm.I64}, nil, tt.body)
			got, err := run1(t, m, tt.args...)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got != tt.want {
				t.Errorf("got %#x, want %#x", got, tt.want)
			}
		})
	}
}

func TestDivideByZeroTraps(t *testing.T) {
	m := buildModule(t,
		[]wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32}, nil,
		[]wasm.Instr{wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op0(wasm.OpI32DivU)})
	_, err := run1(t, m, 1, 0)
	if !IsTrap(err, TrapDivideByZero) {
		t.Fatalf("want divide-by-zero trap, got %v", err)
	}
}

func TestUnreachableTraps(t *testing.T) {
	m := buildModule(t, nil, nil, nil, []wasm.Instr{wasm.Unreachable()})
	inst, err := instantiate(m, nil)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	_, err = NewVM(inst).Invoke("f")
	if !IsTrap(err, TrapUnreachable) {
		t.Fatalf("want unreachable trap, got %v", err)
	}
}

// TestLoopSum computes sum(1..n) with a loop + br_if, exercising blocks,
// loops, locals and conditional branches.
func TestLoopSum(t *testing.T) {
	// local0 = n (param), local1 = i, local2 = acc
	body := []wasm.Instr{
		wasm.Block(), // $exit
		wasm.Loop(),  // $top
		// if i >= n, br $exit
		wasm.LocalGet(1), wasm.LocalGet(0), wasm.Op0(wasm.OpI64GeU), wasm.BrIf(1),
		// i++
		wasm.LocalGet(1), wasm.I64Const(1), wasm.Op0(wasm.OpI64Add), wasm.LocalSet(1),
		// acc += i
		wasm.LocalGet(2), wasm.LocalGet(1), wasm.Op0(wasm.OpI64Add), wasm.LocalSet(2),
		wasm.Br(0), // continue loop
		wasm.End(), // loop
		wasm.End(), // block
		wasm.LocalGet(2),
	}
	m := buildModule(t, []wasm.ValType{wasm.I64}, []wasm.ValType{wasm.I64},
		[]wasm.LocalDecl{{Count: 2, Type: wasm.I64}}, body)
	got, err := run1(t, m, 100)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 5050 {
		t.Errorf("sum(1..100) = %d, want 5050", got)
	}
}

func TestIfElse(t *testing.T) {
	// return x < 10 ? 1 : 2
	body := []wasm.Instr{
		wasm.LocalGet(0), wasm.I64Const(10), wasm.Op0(wasm.OpI64LtU),
		wasm.IfTyped(wasm.I64),
		wasm.I64Const(1),
		wasm.Else(),
		wasm.I64Const(2),
		wasm.End(),
	}
	m := buildModule(t, []wasm.ValType{wasm.I64}, []wasm.ValType{wasm.I64}, nil, body)
	for _, tc := range []struct{ arg, want uint64 }{{5, 1}, {10, 2}, {11, 2}} {
		got, err := run1(t, m, tc.arg)
		if err != nil {
			t.Fatalf("run(%d): %v", tc.arg, err)
		}
		if got != tc.want {
			t.Errorf("f(%d) = %d, want %d", tc.arg, got, tc.want)
		}
	}
}

func TestIfWithoutElse(t *testing.T) {
	// local1 = 7; if x != 0 { local1 = 9 }; return local1
	body := []wasm.Instr{
		wasm.I64Const(7), wasm.LocalSet(1),
		wasm.LocalGet(0), wasm.Op0(wasm.OpI64Eqz), wasm.Op0(wasm.OpI32Eqz),
		wasm.If(),
		wasm.I64Const(9), wasm.LocalSet(1),
		wasm.End(),
		wasm.LocalGet(1),
	}
	m := buildModule(t, []wasm.ValType{wasm.I64}, []wasm.ValType{wasm.I64},
		[]wasm.LocalDecl{{Count: 1, Type: wasm.I64}}, body)
	if got, _ := run1(t, m, 0); got != 7 {
		t.Errorf("f(0) = %d, want 7", got)
	}
	if got, _ := run1(t, m, 3); got != 9 {
		t.Errorf("f(3) = %d, want 9", got)
	}
}

func TestMemoryLoadStore(t *testing.T) {
	// store i64 x at 16, reload as two i32 halves, add them
	body := []wasm.Instr{
		wasm.I32Const(16), wasm.LocalGet(0), wasm.Store(wasm.OpI64Store, 0),
		wasm.I32Const(16), wasm.Load(wasm.OpI32Load, 0),
		wasm.I32Const(16), wasm.Load(wasm.OpI32Load, 4),
		wasm.Op0(wasm.OpI32Add),
	}
	m := buildModule(t, []wasm.ValType{wasm.I64}, []wasm.ValType{wasm.I32}, nil, body)
	got, err := run1(t, m, 0x00000002_00000003)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 5 {
		t.Errorf("got %d, want 5", got)
	}
}

func TestMemoryOutOfBoundsTraps(t *testing.T) {
	body := []wasm.Instr{wasm.I32Const(PageSize - 3), wasm.Load(wasm.OpI32Load, 0)}
	m := buildModule(t, nil, []wasm.ValType{wasm.I32}, nil, body)
	_, err := run1(t, m)
	if !IsTrap(err, TrapMemoryOutOfBounds) {
		t.Fatalf("want OOB trap, got %v", err)
	}
}

func TestHostFunctionCall(t *testing.T) {
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	hostTI := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	m.Imports = []wasm.Import{{Module: "env", Name: "double", Kind: wasm.ExternalFunc, TypeIndex: hostTI}}
	fTI := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	m.Funcs = []uint32{fTI}
	m.Code = []wasm.Code{{Body: []wasm.Instr{wasm.LocalGet(0), wasm.Call(0), wasm.End()}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 1}}

	called := false
	r := Resolver{"env": HostModule{
		"double": func(vm *VM, args []uint64) ([]uint64, error) {
			called = true
			return []uint64{args[0] * 2}, nil
		},
	}}
	inst, err := instantiate(m, r)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	res, err := NewVM(inst).Invoke("f", 21)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if !called || res[0] != 42 {
		t.Errorf("host call: called=%v res=%v", called, res)
	}
}

func TestHostErrorBecomesTrap(t *testing.T) {
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	hostTI := m.AddType(wasm.FuncType{})
	m.Imports = []wasm.Import{{Module: "env", Name: "boom", Kind: wasm.ExternalFunc, TypeIndex: hostTI}}
	m.Funcs = []uint32{hostTI}
	m.Code = []wasm.Code{{Body: []wasm.Instr{wasm.Call(0), wasm.End()}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 1}}

	sentinel := errors.New("sentinel")
	r := Resolver{"env": HostModule{
		"boom": func(vm *VM, args []uint64) ([]uint64, error) { return nil, sentinel },
	}}
	inst, err := instantiate(m, r)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	_, err = NewVM(inst).Invoke("f")
	if !IsTrap(err, TrapHostError) || !errors.Is(err, sentinel) {
		t.Fatalf("want wrapped host error, got %v", err)
	}
}

func TestCallIndirect(t *testing.T) {
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	ti := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	m.Funcs = []uint32{ti, ti, m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I64}})}
	m.Code = []wasm.Code{
		{Body: []wasm.Instr{wasm.I64Const(111), wasm.End()}},
		{Body: []wasm.Instr{wasm.I64Const(222), wasm.End()}},
		{Body: []wasm.Instr{wasm.LocalGet(0), wasm.CallIndirect(ti), wasm.End()}},
	}
	m.Tables = []wasm.TableType{{Limits: wasm.Limits{Min: 2}}}
	m.Elems = []wasm.ElemSegment{{Offset: []wasm.Instr{wasm.I32Const(0)}, Funcs: []uint32{0, 1}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 2}}

	inst, err := instantiate(m, nil)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	for i, want := range []uint64{111, 222} {
		res, err := NewVM(inst).Invoke("f", uint64(i))
		if err != nil {
			t.Fatalf("Invoke(%d): %v", i, err)
		}
		if res[0] != want {
			t.Errorf("table[%d]() = %d, want %d", i, res[0], want)
		}
	}
	// Out-of-range index traps.
	_, err = NewVM(inst).Invoke("f", 9)
	if !IsTrap(err, TrapUndefinedElement) {
		t.Fatalf("want undefined-element trap, got %v", err)
	}
}

func TestFuelExhaustion(t *testing.T) {
	// Infinite loop.
	body := []wasm.Instr{wasm.Loop(), wasm.Br(0), wasm.End()}
	m := buildModule(t, nil, nil, nil, body)
	inst, err := instantiate(m, nil)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	vm := NewVM(inst)
	vm.SetFuel(10_000)
	_, err = vm.Invoke("f")
	if !IsTrap(err, TrapFuelExhausted) {
		t.Fatalf("want fuel trap, got %v", err)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	ti := m.AddType(wasm.FuncType{})
	m.Funcs = []uint32{ti}
	m.Code = []wasm.Code{{Body: []wasm.Instr{wasm.Call(0), wasm.End()}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 0}}
	inst, err := instantiate(m, nil)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	_, err = NewVM(inst).Invoke("f")
	if !IsTrap(err, TrapStackExhausted) {
		t.Fatalf("want stack trap, got %v", err)
	}
}

func TestBrTable(t *testing.T) {
	// switch(x): 0->10, 1->20, default->99
	body := []wasm.Instr{
		wasm.BlockTyped(wasm.I64), // value-producing outer block
		wasm.Block(),              // $default
		wasm.Block(),              // $case1
		wasm.Block(),              // $case0
		wasm.LocalGet(0),
		{Op: wasm.OpBrTable, Table: []uint32{0, 1}, A: 2},
		wasm.End(), // case0
		wasm.I64Const(10), wasm.Br(2),
		wasm.End(), // case1
		wasm.I64Const(20), wasm.Br(1),
		wasm.End(), // default
		wasm.I64Const(99),
		wasm.End(),
	}
	m := buildModule(t, []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I64}, nil, body)
	for _, tc := range []struct{ arg, want uint64 }{{0, 10}, {1, 20}, {2, 99}, {100, 99}} {
		got, err := run1(t, m, tc.arg)
		if err != nil {
			t.Fatalf("run(%d): %v", tc.arg, err)
		}
		if got != tc.want {
			t.Errorf("f(%d) = %d, want %d", tc.arg, got, tc.want)
		}
	}
}

func TestMemoryGrow(t *testing.T) {
	body := []wasm.Instr{
		wasm.I32Const(2), wasm.Instr{Op: wasm.OpMemoryGrow},
		wasm.Drop(),
		wasm.Instr{Op: wasm.OpMemorySize},
	}
	m := buildModule(t, nil, []wasm.ValType{wasm.I32}, nil, body)
	got, err := run1(t, m)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 3 {
		t.Errorf("memory.size after grow = %d, want 3", got)
	}
}

func TestFloatArithmetic(t *testing.T) {
	// f64: sqrt(x) + 1.5
	body := []wasm.Instr{
		wasm.LocalGet(0), wasm.Op0(wasm.OpF64Sqrt),
		{Op: wasm.OpF64Const, Imm: f64bits(1.5)},
		wasm.Op0(wasm.OpF64Add),
	}
	m := buildModule(t, []wasm.ValType{wasm.F64}, []wasm.ValType{wasm.F64}, nil, body)
	got, err := run1(t, m, f64bits(16))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if want := f64bits(5.5); got != want {
		t.Errorf("got %v, want %v", got, want)
	}
}
