package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/wasm"
)

// framestack_test.go pins the fast engine's frame stack: every fast call
// runs in a frame on one VM-owned stack, arguments and results pass in
// place, and each frame is cut off on every exit.

// callChainModule exports "f", which takes an i64 a and returns nothing:
// it calls the host import env.v, which returns 42, calls g(a + 42),
// which passes its argument to the host import env.h and returns it plus
// one, and finally calls the host import env.t with a.
func callChainModule(t *testing.T) *wasm.Module {
	t.Helper()
	i64 := []wasm.ValType{wasm.I64}
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	takeTI := m.AddType(wasm.FuncType{Params: i64})
	giveTI := m.AddType(wasm.FuncType{Results: i64})
	m.Imports = []wasm.Import{
		{Module: "env", Name: "h", Kind: wasm.ExternalFunc, TypeIndex: takeTI},
		{Module: "env", Name: "v", Kind: wasm.ExternalFunc, TypeIndex: giveTI},
		{Module: "env", Name: "t", Kind: wasm.ExternalFunc, TypeIndex: takeTI},
	}
	gTI := m.AddType(wasm.FuncType{Params: i64, Results: i64})
	m.Funcs = []uint32{gTI, takeTI}
	m.Code = []wasm.Code{
		{Body: []wasm.Instr{wasm.LocalGet(0), wasm.Call(0), wasm.LocalGet(0), wasm.I64Const(1), wasm.Op0(wasm.OpI64Add), wasm.End()}},
		{Body: []wasm.Instr{
			wasm.Call(1), wasm.LocalGet(0), wasm.Op0(wasm.OpI64Add), wasm.Call(3), wasm.Drop(),
			wasm.LocalGet(0), wasm.Call(2), wasm.End(),
		}},
	}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 4}}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return m
}

// requireCompiled fails the test unless every local function of vm's
// module runs on the decoded-IR engine.
func requireCompiled(t *testing.T, vm *VM) {
	t.Helper()
	for i := range vm.inst.funcs {
		if f := &vm.inst.funcs[i]; f.host == nil && vm.fastCompiled(f) == nil {
			t.Fatalf("function %d fell back to the tree-walker", i)
		}
	}
}

// TestFastInvokeAllocatesNothing: once its frame stack has grown, a fast
// VM runs an export that takes an argument, calls a host import that
// returns a value through vm.Result, calls a Wasm function, which calls a
// host import, and calls a host import whose error wraps a trap, without
// allocating, whether that last import fails or not. The tree-walker
// must give the same results and the same error.
func TestFastInvokeAllocatesNothing(t *testing.T) {
	const failArg = 7
	// The error is built once: a host function that built it per call
	// would allocate itself.
	wrapped := fmt.Errorf("host t: %w", &Trap{Kind: TrapDivideByZero})
	var seen uint64
	imports := Resolver{"env": HostModule{
		"h": func(vm *VM, args []uint64) ([]uint64, error) {
			seen = args[0]
			return nil, nil
		},
		"v": func(vm *VM, args []uint64) ([]uint64, error) {
			return vm.Result(42), nil
		},
		"t": func(vm *VM, args []uint64) ([]uint64, error) {
			if args[0] == failArg {
				return nil, wrapped
			}
			return nil, nil
		},
	}}
	for name, newVM := range map[string]func(*Instance) *VM{"fast": NewFastVM, "reference": NewVM} {
		t.Run(name, func(t *testing.T) {
			inst, err := instantiate(callChainModule(t), imports)
			if err != nil {
				t.Fatalf("Instantiate: %v", err)
			}
			vm := newVM(inst)
			ok := func() {
				vm.SetFuel(DefaultFuel)
				if _, err := vm.Invoke("f", 1); err != nil || seen != 43 {
					t.Fatalf("Invoke(f, 1): err=%v, host saw %d, want 43", err, seen)
				}
			}
			fail := func() {
				vm.SetFuel(DefaultFuel)
				if _, err := vm.Invoke("f", failArg); err != wrapped || seen != 42+failArg || !IsTrap(err, TrapDivideByZero) {
					t.Fatalf("Invoke(f, %d): err=%v, host saw %d; want the host's error and %d", failArg, err, seen, 42+failArg)
				}
			}
			ok()
			fail()
			if name != "fast" {
				return
			}
			requireCompiled(t, vm)
			if allocs := testing.AllocsPerRun(100, ok); allocs != 0 {
				t.Errorf("steady-state invoke allocated %.1f times, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(100, fail); allocs != 0 {
				t.Errorf("steady-state invoke whose host import fails allocated %.1f times, want 0", allocs)
			}
		})
	}
}

// recursionModule exports "rec", where rec(n) recurses n deep and returns
// n, so rec(n) needs n+1 frames.
func recursionModule(t *testing.T) *wasm.Module {
	t.Helper()
	i32 := []wasm.ValType{wasm.I32}
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	m.Funcs = []uint32{m.AddType(wasm.FuncType{Params: i32, Results: i32})}
	m.Code = []wasm.Code{{Body: []wasm.Instr{
		wasm.LocalGet(0), wasm.Op0(wasm.OpI32Eqz),
		wasm.IfTyped(wasm.I32),
		wasm.I32Const(0),
		wasm.Else(),
		wasm.LocalGet(0), wasm.I32Const(1), wasm.Op0(wasm.OpI32Sub), wasm.Call(0),
		wasm.I32Const(1), wasm.Op0(wasm.OpI32Add),
		wasm.End(),
		wasm.End(),
	}}}
	m.Exports = []wasm.Export{{Name: "rec", Kind: wasm.ExternalFunc, Index: 0}}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return m
}

// TestRecursionDepthParity: recursion one frame past MaxCallDepth traps
// with TrapStackExhausted after the same fuel on both engines, recursion
// to exactly MaxCallDepth succeeds on both, and the VM that trapped then
// runs a normal invoke correctly.
func TestRecursionDepthParity(t *testing.T) {
	m := recursionModule(t)
	vms := map[string]*VM{}
	for name, newVM := range map[string]func(*Instance) *VM{"reference": NewVM, "fast": NewFastVM} {
		inst, err := instantiate(m, nil)
		if err != nil {
			t.Fatalf("Instantiate: %v", err)
		}
		vms[name] = newVM(inst)
	}
	requireCompiled(t, vms["fast"])
	run := func(vm *VM, n uint64) ([]uint64, int64, error) {
		vm.SetFuel(DefaultFuel)
		res, err := vm.Invoke("rec", n)
		return res, DefaultFuel - vm.Fuel(), err
	}
	depth := uint64(vms["fast"].inst.MaxCallDepth)

	_, refFuel, refErr := run(vms["reference"], depth)
	_, fastFuel, fastErr := run(vms["fast"], depth)
	if !IsTrap(refErr, TrapStackExhausted) || !IsTrap(fastErr, TrapStackExhausted) {
		t.Fatalf("rec(%d): reference %v, fast %v; want TrapStackExhausted on both", depth, refErr, fastErr)
	}
	if refFuel != fastFuel {
		t.Fatalf("rec(%d) trapped after %d fuel on the reference engine, %d on the fast one", depth, refFuel, fastFuel)
	}
	if h := vms["fast"].height; h != 0 {
		t.Fatalf("frame stack height %d after the trap, want 0", h)
	}

	for _, n := range []uint64{depth - 1, 10} {
		refRes, refFuel, refErr := run(vms["reference"], n)
		fastRes, fastFuel, fastErr := run(vms["fast"], n)
		if refErr != nil || fastErr != nil {
			t.Fatalf("rec(%d): reference %v, fast %v", n, refErr, fastErr)
		}
		if refRes[0] != n || fastRes[0] != n || refFuel != fastFuel {
			t.Fatalf("rec(%d): reference %d after %d fuel, fast %d after %d fuel", n, refRes[0], refFuel, fastRes[0], fastFuel)
		}
	}
}

// TestFrameStackUnwindsInNestedFrames: an invocation that exits through a
// trap, fuel exhaustion or a recovered panic leaves the frame stack at the
// height it entered at. The exits happen in invocations nested under a
// live frame (a host import re-enters the VM), so that height is not 0.
func TestFrameStackUnwindsInNestedFrames(t *testing.T) {
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	void := m.AddType(wasm.FuncType{})
	m.Imports = []wasm.Import{
		{Module: "env", Name: "reenter", Kind: wasm.ExternalFunc, TypeIndex: void},
		{Module: "env", Name: "boom", Kind: wasm.ExternalFunc, TypeIndex: void},
	}
	m.Funcs = []uint32{void, void, void, void, void, void}
	m.Code = []wasm.Code{
		{Body: []wasm.Instr{wasm.I64Const(7), wasm.Call(0), wasm.Drop(), wasm.End()}}, // 2: outer
		{Body: []wasm.Instr{wasm.Unreachable(), wasm.End()}},                          // 3: trap
		{Body: []wasm.Instr{wasm.Call(3), wasm.End()}},                                // 4: calls trap
		{Body: []wasm.Instr{wasm.Call(1), wasm.End()}},                                // 5: calls boom
		{Body: []wasm.Instr{wasm.Loop(), wasm.Br(0), wasm.End(), wasm.End()}},         // 6: spins
		{Body: []wasm.Instr{wasm.Call(6), wasm.End()}},                                // 7: calls spin
	}
	m.Exports = []wasm.Export{
		{Name: "outer", Kind: wasm.ExternalFunc, Index: 2},
		{Name: "trap", Kind: wasm.ExternalFunc, Index: 4},
		{Name: "panic", Kind: wasm.ExternalFunc, Index: 5},
		{Name: "spin", Kind: wasm.ExternalFunc, Index: 7},
	}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	reentered := false
	inst, err := instantiate(m, Resolver{"env": HostModule{
		"boom": func(*VM, []uint64) ([]uint64, error) { panic("host bug") },
		"reenter": func(vm *VM, _ []uint64) ([]uint64, error) {
			reentered = true
			entry := vm.height
			if entry == 0 {
				t.Error("outer's frame is not on the frame stack")
			}
			for _, c := range []struct {
				export string
				kind   TrapKind
				fuel   int64
			}{
				{"trap", TrapUnreachable, DefaultFuel},
				{"panic", TrapHostError, DefaultFuel},
				{"spin", TrapFuelExhausted, 1000},
			} {
				vm.SetFuel(c.fuel)
				_, err := vm.Invoke(c.export)
				if !IsTrap(err, c.kind) {
					t.Errorf("%s: got %v, want %v", c.export, err, c.kind)
				}
				if c.kind == TrapHostError && !strings.Contains(err.Error(), "interpreter panic: host bug") {
					t.Errorf("%s: got %v, want the recovered panic", c.export, err)
				}
				if vm.height != entry {
					t.Errorf("%s: frame stack height %d after the exit, want the entry height %d", c.export, vm.height, entry)
				}
			}
			vm.SetFuel(DefaultFuel)
			return nil, nil
		},
	}})
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	vm := NewFastVM(inst)
	requireCompiled(t, vm)
	if _, err := vm.Invoke("outer"); err != nil {
		t.Fatalf("outer: %v", err)
	}
	if !reentered {
		t.Fatal("the host import never ran")
	}
	if vm.height != 0 || vm.depth != 0 {
		t.Fatalf("after outer: frame stack height %d, call depth %d; want 0 and 0", vm.height, vm.depth)
	}
}

// TestInvokeResultsDoNotAlias: a fast engine's results live in its frame
// stack, so Invoke must copy them out; a later invoke on the same VM must
// not change the slice an earlier one returned.
func TestInvokeResultsDoNotAlias(t *testing.T) {
	m := buildModule(t, []wasm.ValType{wasm.I64}, []wasm.ValType{wasm.I64}, nil,
		[]wasm.Instr{wasm.LocalGet(0), wasm.LocalGet(0), wasm.Op0(wasm.OpI64Add)})
	inst, err := instantiate(m, nil)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	vm := NewFastVM(inst)
	requireCompiled(t, vm)
	first, err := vm.Invoke("f", 1)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	second, err := vm.Invoke("f", 2)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if first[0] != 2 || second[0] != 4 {
		t.Fatalf("results %v then %v, want [2] then [4]", first, second)
	}
}
