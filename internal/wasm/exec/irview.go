package exec

import "repro/internal/wasm"

// irview.go is the read-only window other packages get onto the decoded IR.
// The abstract interpreter (internal/static/absint) analyzes the exact
// instruction stream the fast engine executes — same lowering, same fusion,
// same pre-resolved branch targets — instead of re-deriving its own IR and
// risking a semantic gap between what is proven and what runs. Everything
// here is an immutable view of a program compiled by the same lowering the
// dispatch loop runs.

// IROp is the exported name of the decoded opcode enumeration.
type IROp = irOp

// Exported mirrors of the decoded instruction forms. Values are identical
// to the unexported constants fastvm.go dispatches on.
const (
	IRInvalid     IROp = irInvalid
	IRTick        IROp = irTick
	IRUnreachable IROp = irUnreachable
	IRBr          IROp = irBr
	IRBrIf        IROp = irBrIf
	IRBrIfZ       IROp = irBrIfZ
	IRBrTable     IROp = irBrTable
	IRReturn      IROp = irReturn
	IRCall        IROp = irCall
	IRCallInd     IROp = irCallInd
	IRDrop        IROp = irDrop
	IRSelect      IROp = irSelect
	IRLocalGet    IROp = irLocalGet
	IRLocalSet    IROp = irLocalSet
	IRLocalTee    IROp = irLocalTee
	IRGlobalGet   IROp = irGlobalGet
	IRGlobalSet   IROp = irGlobalSet
	IRConst       IROp = irConst
	IRMemSize     IROp = irMemSize
	IRMemGrow     IROp = irMemGrow
	IRLoad        IROp = irLoad
	IRStore       IROp = irStore
	IRNumeric     IROp = irNumeric

	IRI32Add  IROp = irI32Add
	IRI32Sub  IROp = irI32Sub
	IRI32Mul  IROp = irI32Mul
	IRI32And  IROp = irI32And
	IRI32Or   IROp = irI32Or
	IRI32Xor  IROp = irI32Xor
	IRI32Shl  IROp = irI32Shl
	IRI32ShrS IROp = irI32ShrS
	IRI32ShrU IROp = irI32ShrU
	IRI32Eq   IROp = irI32Eq
	IRI32Ne   IROp = irI32Ne
	IRI32LtS  IROp = irI32LtS
	IRI32LtU  IROp = irI32LtU
	IRI32GtS  IROp = irI32GtS
	IRI32GtU  IROp = irI32GtU
	IRI32Eqz  IROp = irI32Eqz
	IRI64Add  IROp = irI64Add
	IRI64Sub  IROp = irI64Sub
	IRI64Mul  IROp = irI64Mul
	IRI64And  IROp = irI64And
	IRI64Or   IROp = irI64Or
	IRI64Xor  IROp = irI64Xor
	IRI64Shl  IROp = irI64Shl
	IRI64ShrS IROp = irI64ShrS
	IRI64ShrU IROp = irI64ShrU
	IRI64Eq   IROp = irI64Eq
	IRI64Ne   IROp = irI64Ne
	IRI64LtS  IROp = irI64LtS
	IRI64LtU  IROp = irI64LtU
	IRI64GtS  IROp = irI64GtS
	IRI64GtU  IROp = irI64GtU
	IRI64Eqz  IROp = irI64Eqz

	IRGetGetAddI32 IROp = irGetGetAddI32
	IRGetGetAddI64 IROp = irGetGetAddI64
	IRConstAddI32  IROp = irConstAddI32
	IRConstAddI64  IROp = irConstAddI64
	IRConstStore   IROp = irConstStore

	IRHostC          IROp = irHostC
	IRHostCL         IROp = irHostCL
	IRHostCC         IROp = irHostCC
	IRHostCLL        IROp = irHostCLL
	IRHostTee        IROp = irHostTee
	IRHostTeeBrIf    IROp = irHostTeeBrIf
	IRHostTeeBrIfZ   IROp = irHostTeeBrIfZ
	IRHostTeeBrTable IROp = irHostTeeBrTable
	IRHostTeeLoad    IROp = irHostTeeLoad
	IRHostTeeStore   IROp = irHostTeeStore
	IRHostCmp        IROp = irHostCmp
	IRHostCCCall     IROp = irHostCCCall

	// IRNumOps is one past the last op: every IROp below it is one of the
	// forms above.
	IRNumOps IROp = irNumOps
)

// IRInstr is the exported value form of one decoded instruction, plus the
// source pc (original body index) it was lowered from.
type IRInstr struct {
	Op   IROp
	X    uint8
	Cost uint16
	A    uint32
	B    uint32
	Imm  uint64
	Src  uint32
}

// IRTarget is one pre-resolved br_table destination.
type IRTarget struct {
	PC     uint32
	Unwind uint32
	Keep   uint8
}

// IRFuncView is a read-only view of one compiled body. The zero view
// (OK() == false) marks a function that fell back to the tree-walker.
type IRFuncView struct {
	fn *irFunc
}

// OK reports whether the function compiled (fallback bodies have no IR).
func (v IRFuncView) OK() bool { return v.fn != nil }

// Len returns the number of decoded instructions.
func (v IRFuncView) Len() int { return len(v.fn.code) }

// Instr returns the decoded instruction at ir-pc, with its source pc.
func (v IRFuncView) Instr(pc int) IRInstr {
	in := v.fn.code[pc]
	var src uint32
	if pc < len(v.fn.src) {
		src = v.fn.src[pc]
	}
	return IRInstr{Op: in.op, X: in.x, Cost: in.cost, A: in.a, B: in.b, Imm: in.imm, Src: src}
}

// NTables returns the number of br_table target lists.
func (v IRFuncView) NTables() int { return len(v.fn.tables) }

// Table returns the pre-resolved br_table destinations for table i.
func (v IRFuncView) Table(i int) []IRTarget {
	ts := v.fn.tables[i]
	out := make([]IRTarget, len(ts))
	for j, t := range ts {
		out[j] = IRTarget{PC: t.pc, Unwind: t.unwind, Keep: t.keep}
	}
	return out
}

// NLocals returns params + declared locals.
func (v IRFuncView) NLocals() int { return v.fn.nLocals }

// NResults returns the function result count.
func (v IRFuncView) NResults() int { return v.fn.nResults }

// MaxStack returns the pre-computed operand stack bound.
func (v IRFuncView) MaxStack() int { return v.fn.maxStack }

// IRView is a read-only view of one module's decoded program.
type IRView struct {
	p *irProgram
}

// IRFor compiles the decoded-IR view of m: the program the fast engine
// runs for m.
func IRFor(m *wasm.Module) *IRView {
	return &IRView{p: compileModule(m)}
}

// Func returns the view of the function at index idx in the function index
// space; the zero view for imports and fallback bodies.
func (v *IRView) Func(idx uint32) IRFuncView {
	if int(idx) >= len(v.p.funcs) {
		return IRFuncView{}
	}
	return IRFuncView{fn: v.p.funcs[idx]}
}

// FuncCanon returns the canonical type id of the function at idx.
func (v *IRView) FuncCanon(idx uint32) uint32 {
	if int(idx) >= len(v.p.funcCanon) {
		return ^uint32(0)
	}
	return v.p.funcCanon[idx]
}

// TypeCanon returns the canonical id of module type index ti.
func (v *IRView) TypeCanon(ti uint32) uint32 {
	if int(ti) >= len(v.p.typeCanon) {
		return ^uint32(0)
	}
	return v.p.typeCanon[ti]
}
