package absint

import (
	"testing"

	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// opsModule builds a module whose exported f (param i32 i64) runs body.
// It imports printi three times, as (i32), (i32, i32) and (i32, i64,
// i64), which the host model treats as effect-free, so calls of them
// lower to host-call groups; g: () -> () is function 4 and the table's
// only element, and global 0 is a mutable i32.
func opsModule(t *testing.T, body []wasm.Instr) *wasm.Module {
	t.Helper()
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	p1 := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}})
	p2 := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}})
	p3 := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I64, wasm.I64}})
	fTI := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I64}})
	gTI := m.AddType(wasm.FuncType{})
	for _, ti := range []uint32{p1, p2, p3} {
		m.Imports = append(m.Imports, wasm.Import{Module: "env", Name: "printi", Kind: wasm.ExternalFunc, TypeIndex: ti})
	}
	m.Funcs = []uint32{fTI, gTI}
	m.Code = []wasm.Code{
		{Locals: []wasm.LocalDecl{{Count: 2, Type: wasm.I32}, {Count: 2, Type: wasm.I64}}, Body: append(body, wasm.End())},
		{Body: []wasm.Instr{wasm.End()}},
	}
	m.Tables = []wasm.TableType{{Limits: wasm.Limits{Min: 1}}}
	m.Elems = []wasm.ElemSegment{{Offset: []wasm.Instr{wasm.I32Const(0)}, Funcs: []uint32{4}}}
	m.Memories = []wasm.MemType{{Limits: wasm.Limits{Min: 1}}}
	m.Globals = []wasm.Global{{Type: wasm.GlobalType{Type: wasm.I32, Mutable: true}, Init: []wasm.Instr{wasm.I32Const(0)}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 3}}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return m
}

// opsBodies returns bodies that together lower to every decoded op. f's
// locals: 0 i32 and 1 i64 parameters, 2-3 i32, 4-5 i64.
func opsBodies() [][]wasm.Instr {
	i := wasm.Op0
	tee := func(local uint32, hook uint32) []wasm.Instr {
		return []wasm.Instr{wasm.LocalSet(local), wasm.I32Const(9), wasm.LocalGet(local), wasm.Call(hook), wasm.LocalGet(local)}
	}
	cat := func(parts ...[]wasm.Instr) []wasm.Instr {
		var out []wasm.Instr
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	bodies := [][]wasm.Instr{
		{wasm.Op0(wasm.OpNop), wasm.Unreachable()},
		{wasm.Block(), wasm.Br(0), wasm.End()},
		{wasm.Block(), wasm.LocalGet(0), wasm.BrIf(0), wasm.End()},
		{wasm.LocalGet(0), wasm.If(), wasm.Op0(wasm.OpNop), wasm.End()},
		{wasm.Block(), wasm.LocalGet(0), wasm.BrTable([]uint32{0}, 0), wasm.End()},
		{wasm.Return()},
		{wasm.Call(4), wasm.I32Const(0), wasm.CallIndirect(4)},
		{wasm.I32Const(1), wasm.I32Const(2), wasm.LocalGet(0), wasm.Op0(wasm.OpSelect), wasm.Drop()},
		{wasm.I32Const(1), wasm.LocalSet(2), wasm.I32Const(1), wasm.LocalTee(2), wasm.Drop()},
		{wasm.GlobalGet(0), wasm.GlobalSet(0)},
		{wasm.Op0(wasm.OpMemorySize), wasm.Op0(wasm.OpMemoryGrow), wasm.Drop()},
		{wasm.I32Const(8), wasm.Load(wasm.OpI32Load, 0), wasm.Drop()},
		{wasm.I32Const(8), wasm.LocalGet(0), wasm.Store(wasm.OpI32Store, 0)},
		{wasm.I32Const(8), wasm.I32Const(7), wasm.Store(wasm.OpI32Store, 0)},
		{wasm.I32Const(7), wasm.I32Const(2), wasm.Op0(wasm.OpI32DivU), wasm.Drop()},
		{wasm.LocalGet(0), wasm.LocalGet(0), i(wasm.OpI32Add), wasm.Drop(), wasm.LocalGet(1), wasm.LocalGet(1), i(wasm.OpI64Add), wasm.Drop()},
		{wasm.LocalGet(0), wasm.I32Const(5), i(wasm.OpI32Add), wasm.Drop(), wasm.LocalGet(1), wasm.I64Const(5), i(wasm.OpI64Add), wasm.Drop()},
		// Host-call groups, alone and hooked.
		{wasm.I32Const(1), wasm.Call(0)},
		{wasm.I32Const(1), wasm.LocalGet(0), wasm.Call(1), wasm.I32Const(1), wasm.I32Const(2), wasm.Call(1)},
		{wasm.I32Const(1), wasm.LocalGet(1), wasm.LocalGet(1), wasm.Call(2)},
		cat([]wasm.Instr{wasm.LocalGet(0)}, tee(2, 1), []wasm.Instr{wasm.Drop()}),
		cat([]wasm.Instr{wasm.Block(), wasm.LocalGet(0)}, tee(2, 1), []wasm.Instr{wasm.BrIf(0), wasm.End()}),
		cat([]wasm.Instr{wasm.LocalGet(0)}, tee(2, 1), []wasm.Instr{wasm.If(), wasm.Op0(wasm.OpNop), wasm.End()}),
		cat([]wasm.Instr{wasm.Block(), wasm.LocalGet(0)}, tee(2, 1), []wasm.Instr{wasm.BrTable([]uint32{0}, 0), wasm.End()}),
		cat([]wasm.Instr{wasm.I32Const(8)}, tee(2, 1), []wasm.Instr{wasm.Load(wasm.OpI32Load, 0), wasm.Drop()}),
		cat([]wasm.Instr{wasm.I32Const(8), wasm.LocalGet(0), wasm.LocalSet(3)}, tee(2, 1),
			[]wasm.Instr{wasm.LocalGet(3), wasm.Store(wasm.OpI32Store, 0)}),
		{wasm.LocalGet(1), wasm.LocalGet(1), wasm.LocalSet(5), wasm.LocalSet(4), wasm.I32Const(9), wasm.LocalGet(4), wasm.LocalGet(5),
			wasm.Call(2), wasm.LocalGet(4), wasm.LocalGet(5), i(wasm.OpI64Eq), wasm.Drop()},
		{wasm.I32Const(1), wasm.I32Const(2), wasm.Call(1), wasm.Call(4)},
	}
	// The inline integer ops, each on a constant and a local, which no
	// superinstruction fuses.
	for op := wasm.OpI32Eqz; op <= wasm.OpI64Rotr; op++ {
		if op >= wasm.OpF32Eq && op <= wasm.OpF64Ge {
			continue
		}
		i64 := (op >= wasm.OpI64Eqz && op <= wasm.OpI64GeU) || (op >= wasm.OpI64Clz && op <= wasm.OpI64Rotr)
		pops := 2
		if op == wasm.OpI32Eqz || op == wasm.OpI64Eqz ||
			(op >= wasm.OpI32Clz && op <= wasm.OpI32Popcnt) || (op >= wasm.OpI64Clz && op <= wasm.OpI64Popcnt) {
			pops = 1
		}
		arg := wasm.LocalGet(0)
		k := wasm.I32Const(3)
		if i64 {
			arg, k = wasm.LocalGet(1), wasm.I64Const(3)
		}
		if pops == 1 {
			bodies = append(bodies, []wasm.Instr{arg, i(op), wasm.Drop()})
		} else {
			bodies = append(bodies, []wasm.Instr{k, arg, i(op), wasm.Drop()})
		}
	}
	return bodies
}

// TestEveryIROpInterpreted: absint analyzes the instruction stream the fast
// engine runs, so it must interpret every decoded op. A body per op is
// analyzed from f with unknown parameters, and every run must complete; a
// decoded op that no body lowers to fails the test, so a new fused op
// cannot ship without its absint case (an op the interpreter aborts on
// turns every proof through it into Unknown).
func TestEveryIROpInterpreted(t *testing.T) {
	seen := map[exec.IROp]bool{}
	for n, body := range opsBodies() {
		m := opsModule(t, body)
		e, err := newEngine(m)
		if err != nil {
			t.Fatalf("body %d: %v", n, err)
		}
		fv := e.ir.Func(3)
		if !fv.OK() {
			t.Fatalf("body %d fell back to the tree-walker", n)
		}
		var ops []exec.IROp
		for pc := 0; pc < fv.Len(); pc++ {
			ops = append(ops, fv.Instr(pc).Op)
		}
		r := e.newRun(scenarioUniversal(), false, -1, nil)
		r.execute(3, []Value{unknown(), unknown()})
		if r.incomplete {
			t.Errorf("body %d (decoded ops %v): analysis incomplete", n, ops)
			continue
		}
		for _, op := range ops {
			seen[op] = true
		}
	}
	for op := exec.IRInvalid + 1; op < exec.IRNumOps; op++ {
		if !seen[op] {
			t.Errorf("decoded op %d: no body lowers to it, or absint does not interpret it", op)
		}
	}
}
