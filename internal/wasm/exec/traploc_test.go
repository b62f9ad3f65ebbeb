package exec

import (
	"errors"
	"math"
	"testing"

	"repro/internal/wasm"
)

// trapModule exports "f" (param i32) with the given body after a prefix
// the lowering fuses into two steps (local.get, local.get, i32.add;
// i32.const, i32.add) and a drop. It imports env.h (i32), whose host
// function fails, and env.log (i32, i32), which succeeds; its table holds
// g: () -> () at 0 and nothing at 1, and rec: () -> () calls itself.
func trapModule(t *testing.T, body []wasm.Instr) *wasm.Module {
	t.Helper()
	i32 := []wasm.ValType{wasm.I32}
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	hTI := m.AddType(wasm.FuncType{Params: i32})
	logTI := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}})
	voidTI := m.AddType(wasm.FuncType{})
	m.Imports = []wasm.Import{
		{Module: "env", Name: "h", Kind: wasm.ExternalFunc, TypeIndex: hTI},
		{Module: "env", Name: "log", Kind: wasm.ExternalFunc, TypeIndex: logTI},
	}
	prefix := []wasm.Instr{
		wasm.LocalGet(0), wasm.LocalGet(0), wasm.Op0(wasm.OpI32Add),
		wasm.I32Const(5), wasm.Op0(wasm.OpI32Add), wasm.Drop(),
	}
	m.Funcs = []uint32{hTI, voidTI, voidTI}
	m.Code = []wasm.Code{
		{Locals: []wasm.LocalDecl{{Count: 2, Type: wasm.I32}}, Body: append(append(prefix, body...), wasm.End())},
		{Body: []wasm.Instr{wasm.End()}},
		{Body: []wasm.Instr{wasm.Call(4), wasm.End()}},
	}
	m.Tables = []wasm.TableType{{Limits: wasm.Limits{Min: 2}}}
	m.Elems = []wasm.ElemSegment{{Offset: []wasm.Instr{wasm.I32Const(0)}, Funcs: []uint32{3}}}
	m.Memories = []wasm.MemType{{Limits: wasm.Limits{Min: 1}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 2}}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return m
}

// trapOn runs "f" of m on one engine and returns its trap.
func trapOn(t *testing.T, m *wasm.Module, fast bool, depth int) *Trap {
	t.Helper()
	hostErr := errors.New("host refused") //wasai:rawerr test host failure
	inst, err := instantiate(m, Resolver{"env": {
		"h":   func(*VM, []uint64) ([]uint64, error) { return nil, hostErr },
		"log": func(*VM, []uint64) ([]uint64, error) { return nil, nil },
	}})
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	inst.MaxCallDepth = depth
	vm := NewVM(inst)
	if fast {
		vm = NewFastVM(inst)
		requireCompiled(t, vm)
	}
	_, err = vm.Invoke("f", 7)
	tr, ok := AsTrap(err)
	if !ok {
		t.Fatalf("fast=%v: want a trap, got %v", fast, err)
	}
	return tr
}

// TestTrapLocationParity: every trap kind but fuel exhaustion reports the
// same kind, function and source pc on both engines, whether the faulting
// instruction follows fused steps, is the second constituent of a fused
// step, or is the instruction a hooked group fuses with its hook.
func TestTrapLocationParity(t *testing.T) {
	f32NaN := wasm.Instr{Op: wasm.OpF32Const, Imm: uint64(math.Float32bits(float32(math.NaN())))}
	hook := func(local uint32) []wasm.Instr {
		return []wasm.Instr{wasm.LocalSet(local), wasm.I32Const(9), wasm.LocalGet(local), wasm.Call(1), wasm.LocalGet(local)}
	}
	cases := []struct {
		name  string
		body  []wasm.Instr
		kind  TrapKind
		depth int
		fused irOp // a decoded op the body must lower to, or irInvalid
	}{
		{name: "unreachable", body: []wasm.Instr{wasm.Unreachable()}, kind: TrapUnreachable, fused: irGetGetAddI32},
		{name: "load", body: []wasm.Instr{wasm.I32Const(-1), wasm.Load(wasm.OpI32Load, 0), wasm.Drop()}, kind: TrapMemoryOutOfBounds, fused: irConstAddI32},
		{name: "store", body: []wasm.Instr{wasm.I32Const(-1), wasm.LocalGet(0), wasm.Store(wasm.OpI32Store, 0)}, kind: TrapMemoryOutOfBounds},
		{name: "const-store", body: []wasm.Instr{wasm.I32Const(-1), wasm.I32Const(7), wasm.Store(wasm.OpI32Store, 0)}, kind: TrapMemoryOutOfBounds, fused: irConstStore},
		{name: "divide", body: []wasm.Instr{wasm.I32Const(1), wasm.I32Const(0), wasm.Op0(wasm.OpI32DivU), wasm.Drop()}, kind: TrapDivideByZero},
		{name: "overflow", body: []wasm.Instr{wasm.I32Const(math.MinInt32), wasm.I32Const(-1), wasm.Op0(wasm.OpI32DivS), wasm.Drop()}, kind: TrapIntegerOverflow},
		{name: "conversion", body: []wasm.Instr{f32NaN, wasm.Op0(wasm.OpI32TruncF32S), wasm.Drop()}, kind: TrapInvalidConversion},
		{name: "undefined-element", body: []wasm.Instr{wasm.I32Const(1), wasm.CallIndirect(2)}, kind: TrapUndefinedElement},
		{name: "out-of-table", body: []wasm.Instr{wasm.I32Const(5), wasm.CallIndirect(2)}, kind: TrapUndefinedElement},
		{name: "type-mismatch", body: []wasm.Instr{wasm.I32Const(0), wasm.I32Const(0), wasm.CallIndirect(0)}, kind: TrapIndirectCallTypeMismatch},
		{name: "recursion", body: []wasm.Instr{wasm.Call(4)}, kind: TrapStackExhausted, depth: 250},
		{name: "host", body: []wasm.Instr{wasm.LocalGet(0), wasm.Call(0)}, kind: TrapHostError},
		{name: "host-group", body: []wasm.Instr{wasm.I32Const(3), wasm.Call(0)}, kind: TrapHostError, fused: irHostC},
		{name: "host-group-depth", body: []wasm.Instr{wasm.I32Const(3), wasm.Call(0)}, kind: TrapStackExhausted, depth: 1, fused: irHostC},
		{name: "hooked-load", body: append(append([]wasm.Instr{wasm.I32Const(-1)}, hook(1)...),
			wasm.Load(wasm.OpI32Load, 0), wasm.Drop()), kind: TrapMemoryOutOfBounds, fused: irHostTeeLoad},
		{name: "hooked-store", body: append(append([]wasm.Instr{wasm.I32Const(-1), wasm.LocalGet(0), wasm.LocalSet(2)}, hook(1)...),
			wasm.LocalGet(2), wasm.Store(wasm.OpI32Store, 0)), kind: TrapMemoryOutOfBounds, fused: irHostTeeStore},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := trapModule(t, tc.body)
			if tc.fused != irInvalid {
				found := false
				for _, in := range compileModule(m).funcs[2].code {
					found = found || in.op == tc.fused
				}
				if !found {
					t.Fatalf("body does not lower to decoded op %d", tc.fused)
				}
			}
			depth := tc.depth
			if depth == 0 {
				depth = 250
			}
			ref, fast := trapOn(t, m, false, depth), trapOn(t, m, true, depth)
			if ref.Kind != tc.kind {
				t.Fatalf("reference trapped with %v, want %v", ref.Kind, tc.kind)
			}
			if ref.Kind != fast.Kind || ref.FuncIndex != fast.FuncIndex || ref.PC != fast.PC {
				t.Fatalf("reference trap (%v, func %d, pc %d), fast trap (%v, func %d, pc %d)",
					ref.Kind, ref.FuncIndex, ref.PC, fast.Kind, fast.FuncIndex, fast.PC)
			}
			if ref.Error() != fast.Error() {
				t.Fatalf("reference error %q, fast error %q", ref.Error(), fast.Error())
			}
		})
	}
}
