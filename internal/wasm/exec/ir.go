package exec

import (
	"fmt"
	"math"

	"repro/internal/wasm"
)

// This file implements the decode pass of the fast execution core: a
// one-time lowering of function bodies into a flat, pre-resolved
// instruction stream (irInstr). Immediates are decoded, branch targets and
// unwind depths are pre-computed, common instruction pairs are fused into
// superinstructions, and the EndOf/ElseOf map lookups of the tree-walker
// are gone. The dispatch loop lives in fastvm.go.
//
// Compilation is conservative: any body the static pre-pass cannot prove
// stack-consistent (the reference interpreter would reach its panic-to-trap
// path) is rejected, and that function transparently falls back to the
// reference tree-walker at call time. Observable behaviour is therefore
// always exactly the reference interpreter's.

// irOp enumerates the decoded instruction forms.
type irOp uint8

const (
	irInvalid irOp = iota
	// irTick charges fuel for a control bookkeeping instruction
	// (block/loop/end/else/nop) that needs no work at runtime beyond the
	// reference interpreter's per-instruction fuel decrement.
	irTick
	irUnreachable
	irBr      // a=target ir-pc, b=unwind height, x=values kept
	irBrIf    // branch when popped value is non-zero
	irBrIfZ   // branch when popped value is zero (lowered if)
	irBrTable // a=index into fn.tables; last entry is the default
	irReturn  // x=result count
	irCall    // a=function index
	irCallInd // a=canonical type id, b=ir-pc (for traps)
	irDrop
	irSelect
	irLocalGet  // a=local index
	irLocalSet  // a=local index
	irLocalTee  // a=local index
	irGlobalGet // a=global index
	irGlobalSet // a=global index
	irConst     // imm=value (i32 already masked+zero-extended)
	irMemSize
	irMemGrow
	irLoad    // x=opcode, a=byte width, b=offset
	irStore   // x=opcode, a=byte width, b=offset
	irNumeric // x=opcode; delegates to applyNumeric (floats, conversions, ...)

	// Inline hot integer ops (operands/results identical to applyNumeric).
	irI32Add
	irI32Sub
	irI32Mul
	irI32And
	irI32Or
	irI32Xor
	irI32Shl
	irI32ShrS
	irI32ShrU
	irI32Eq
	irI32Ne
	irI32LtS
	irI32LtU
	irI32GtS
	irI32GtU
	irI32Eqz
	irI64Add
	irI64Sub
	irI64Mul
	irI64And
	irI64Or
	irI64Xor
	irI64Shl
	irI64ShrS
	irI64ShrU
	irI64Eq
	irI64Ne
	irI64LtS
	irI64LtU
	irI64GtS
	irI64GtU
	irI64Eqz

	// Superinstructions (fused pairs/triples; cost carries the fuel of all
	// original instructions and is charged up front).
	irGetGetAddI32 // a,b=local indices: push locals[a]+locals[b] (i32)
	irGetGetAddI64 // a,b=local indices: push locals[a]+locals[b] (i64)
	irConstAddI32  // imm=addend: top = i32(top + imm)
	irConstAddI64  // imm=addend: top = top + imm
	irConstStore   // imm=value, x=store opcode, a=byte width, b=offset

	// Host-call groups: a call of an imported function with no results
	// whose arguments are constants and locals, the shapes the
	// instrumenter emits for its hooks. One step writes the arguments
	// where the source pushed them and calls the host function without a
	// frame (see hostCall). a=callee; x=the fuel of the constituents up to
	// and including the call, which is less than cost when the call is not
	// the last constituent (see outOfFuel).
	irHostC   // const c; call                              imm=c
	irHostCL  // const c; local.get b; call                 imm=c
	irHostCC  // const c1; const c2; call                   imm=c1|c2<<32
	irHostCLL // const c; local.get l1; local.get l2; call  imm=c, b=l1|l2<<16
	irHostTee // local.set b; const c; local.get b; call; local.get b   imm=c

	// Hooked groups: a host-call group fused with the instruction it hooks.
	// That instruction stays in the next slot in its plain form, for its
	// operands and for absint, and is never dispatched on its own.
	irHostTeeBrIf    // irHostTee, then the br_if of the next slot
	irHostTeeBrIfZ   // irHostTee, then the lowered if of the next slot
	irHostTeeBrTable // irHostTee, then the br_table of the next slot
	irHostTeeLoad    // irHostTee on the address, then the load of the next slot
	irHostTeeStore   // local.set v, irHostTee on the address, local.get v, then the store of the next slot; b=s|v<<16
	irHostCmp        // local.set l2; local.set l1, irHostCLL, local.get l1; local.get l2, then the i64.eq/ne of the next slot
	irHostCCCall     // irHostCC, then the call of the next slot

	irNumOps // not an op: the number of ops
)

// irInstr is one decoded instruction. 24 bytes, flat slice, no pointers on
// the hot path (br_table payloads live in irFunc.tables).
type irInstr struct {
	op   irOp
	x    uint8  // sub-opcode / kept-value count / result count
	cost uint16 // fuel units: number of original instructions represented
	a    uint32
	b    uint32
	imm  uint64
}

// irTarget is one pre-resolved br_table destination.
type irTarget struct {
	pc     uint32 // ir-pc to jump to
	unwind uint32 // stack height to trim to (after keeping keep values)
	keep   uint8  // 1 when the target frame has a result, else 0
}

// irFunc is a compiled function body.
type irFunc struct {
	code     []irInstr
	tables   [][]irTarget
	maxStack int
	nLocals  int // params + declared locals
	nResults int
	// src maps each ir-pc back to the source pc (index into the original
	// body) it was lowered from. It lives in a parallel slice — not in the
	// 24-byte irInstr — so the hot dispatch loop's cache footprint is
	// unchanged; only observers (the abstract interpreter, witnesses in
	// original trace coordinates) read it.
	src []uint32
}

// irProgram is the decoded form of one module: per-function compiled
// bodies (nil entries fall back to the tree-walker) and the canonical
// type id of every function in the index space, so call_indirect type
// checks are a single integer comparison.
type irProgram struct {
	funcs     []*irFunc // indexed by function-space index
	funcCanon []uint32  // canonical type id per function-space index
	typeCanon []uint32  // canonical type id per module type index
}

// compileModule lowers every local function body, recording nil for any
// body the conservative static pass rejects.
func compileModule(m *wasm.Module) *irProgram {
	p := &irProgram{
		funcs:     make([]*irFunc, m.NumFuncs()),
		funcCanon: make([]uint32, m.NumFuncs()),
		typeCanon: make([]uint32, len(m.Types)),
	}
	// Intern signatures: structurally equal types share a canonical id.
	for i, t := range m.Types {
		id := uint32(i)
		for j := 0; j < i; j++ {
			if m.Types[j].Equal(t) {
				id = uint32(j)
				break
			}
		}
		p.typeCanon[i] = id
	}
	imported := 0
	for _, imp := range m.Imports {
		if imp.Kind != wasm.ExternalFunc {
			continue
		}
		if int(imp.TypeIndex) < len(p.typeCanon) {
			p.funcCanon[imported] = p.typeCanon[imp.TypeIndex]
		}
		imported++
	}
	for i, ti := range m.Funcs {
		fi := imported + i
		if fi >= len(p.funcCanon) || int(ti) >= len(p.typeCanon) {
			continue
		}
		p.funcCanon[fi] = p.typeCanon[ti]
		ft := m.Types[ti]
		fn, err := compileFunc(m, &m.Code[i], ft)
		if err != nil {
			continue // fall back to the tree-walker for this function
		}
		p.funcs[fi] = fn
	}
	return p
}

// maxIRStack bounds the pre-allocated operand stack of a compiled body;
// larger bodies (which cannot come out of the generators or real EOSIO
// contracts) fall back to the tree-walker rather than over-allocating.
const maxIRStack = 1 << 16

// cFrame is one compile-time control frame.
type cFrame struct {
	isLoop    bool
	isIf      bool
	elseSeen  bool
	hasResult bool
	entryH    int   // operand-stack height at frame entry
	loopPC    int   // ir-pc of the loop body start (branch target for loops)
	patches   []int // ir-pc of forward branches targeting this frame's end
	elsePatch int   // ir-pc of the irBrIfZ awaiting the else label, or -1
	// elseJumpPC is the ir-pc of the then-arm's jump over the else-arm
	// (-1 when the then-arm ended dead or there is no else), and
	// elseJumpH the stack height it carries to the end.
	elseJumpPC int
	elseJumpH  int
	tpatches   []tablePatch
}

// tablePatch is a forward br_table entry awaiting this frame's end label.
type tablePatch struct{ table, entry int }

type compiler struct {
	m         *wasm.Module
	nImports  int // imported functions, the only callees a host-call group may have
	out       []irInstr
	srcs      []uint32 // source pc per emitted instruction, parallel to out
	curSrc    uint32   // source pc of the instruction being lowered
	tables    [][]irTarget
	frames    []cFrame
	nLocals   int
	fnResults uint8
	height    int
	maxH      int
	// barrier is the first out index the fusion peephole may not reach
	// past: it is advanced whenever a label can bind at the current
	// position, so superinstructions never straddle a branch target.
	barrier int
	// dead tracks statically unreachable code (after br/return/
	// unreachable); deadDepth counts control nesting opened inside it.
	dead      bool
	deadDepth int
}

func (c *compiler) emit(in irInstr) {
	c.out = append(c.out, in)
	c.srcs = append(c.srcs, c.curSrc)
}

func (c *compiler) setBarrier() { c.barrier = len(c.out) }

// prev returns the instruction emitted back places from the end of the
// stream, or nil when a label may bind after it.
func (c *compiler) prev(back int) *irInstr {
	if len(c.out)-back < c.barrier {
		return nil
	}
	return &c.out[len(c.out)-back]
}

// fuse replaces the last n emitted instructions with in, which keeps the
// source pc of the first of them.
func (c *compiler) fuse(n int, in irInstr) {
	k := len(c.out) - n
	c.out = append(c.out[:k], in)
	c.srcs = c.srcs[:k+1]
}

// hook fuses the instruction about to be emitted into the host-call group
// before it when that group is of kind from: the group becomes kind to,
// charges the instruction's fuel, and the instruction follows it in its
// plain form.
func (c *compiler) hook(from, to irOp) {
	if p := c.prev(1); p != nil && p.op == from {
		p.op = to
		p.cost++
	}
}

// fuseHostCall fuses a call of the import h, which takes n parameters and
// returns nothing, with the constants and local.gets that pushed its
// arguments. Each group's x is its full cost: its call comes last.
func (c *compiler) fuseHostCall(h uint32, n int) bool {
	p1, p2, p3 := c.prev(1), c.prev(2), c.prev(3)
	var g irInstr
	switch {
	case n == 1 && p1 != nil && p1.op == irConst:
		g = irInstr{op: irHostC, cost: p1.cost + 1, imm: p1.imm}
	case n == 2 && p2 != nil && p2.op == irConst && p1.op == irLocalGet:
		g = irInstr{op: irHostCL, cost: p2.cost + p1.cost + 1, b: p1.a, imm: p2.imm}
	case n == 2 && p2 != nil && p2.op == irConst && p1.op == irConst &&
		p2.imm <= math.MaxUint32 && p1.imm <= math.MaxUint32:
		g = irInstr{op: irHostCC, cost: p2.cost + p1.cost + 1, imm: p2.imm | p1.imm<<32}
	case n == 3 && p3 != nil && p3.op == irConst && p2.op == irLocalGet && p1.op == irLocalGet &&
		p2.a < 1<<16 && p1.a < 1<<16:
		g = irInstr{op: irHostCLL, cost: p3.cost + p2.cost + p1.cost + 1, b: p2.a | p1.a<<16, imm: p3.imm}
	default:
		return false
	}
	g.a, g.x = h, uint8(g.cost)
	c.fuse(n, g)
	return true
}

// need checks the operand stack holds at least n values; the reference
// interpreter would panic (→ host-error trap) otherwise, so we reject.
func (c *compiler) need(n int) error {
	if c.height < n {
		return fmt.Errorf("stack underflow: need %d, have %d", n, c.height)
	}
	return nil
}

func (c *compiler) adjust(pops, pushes int) {
	c.height += pushes - pops
	if c.height > c.maxH {
		c.maxH = c.height
	}
}

// compileFunc lowers one body. Any structural or stack inconsistency the
// reference interpreter would surface as a runtime panic-trap makes the
// whole function fall back instead.
func compileFunc(m *wasm.Module, code *wasm.Code, ft wasm.FuncType) (fn *irFunc, err error) {
	defer func() {
		if r := recover(); r != nil {
			fn, err = nil, fmt.Errorf("ir: compile panic: %v", r)
		}
	}()
	if len(ft.Results) > 255 {
		return nil, fmt.Errorf("ir: too many results")
	}
	c := &compiler{
		m:         m,
		nImports:  m.NumImportedFuncs(),
		nLocals:   len(ft.Params) + int(code.NumLocals()),
		fnResults: uint8(len(ft.Results)),
	}
	for pc := range code.Body {
		c.curSrc = uint32(pc)
		if cerr := c.instr(&code.Body[pc]); cerr != nil {
			return nil, fmt.Errorf("ir: pc %d: %w", pc, cerr)
		}
	}
	if len(c.frames) != 0 {
		return nil, fmt.Errorf("ir: %d unclosed control frames", len(c.frames))
	}
	// The implicit return after the function-terminating end: the
	// reference loop just falls off the body, charging nothing extra.
	c.emit(irInstr{op: irReturn, x: uint8(len(ft.Results)), cost: 0})
	if c.maxH > maxIRStack {
		return nil, fmt.Errorf("ir: operand stack bound %d too large", c.maxH)
	}
	return &irFunc{
		code:     c.out,
		tables:   c.tables,
		maxStack: c.maxH,
		nLocals:  len(ft.Params) + int(code.NumLocals()),
		nResults: len(ft.Results),
		src:      c.srcs,
	}, nil
}

// instr lowers one source instruction. The compiler maintains the
// invariant that for every reachable ir-pc there is exactly one possible
// operand-stack height; any body violating it is rejected.
func (c *compiler) instr(in *wasm.Instr) error {
	if c.dead {
		// Statically unreachable code is tracked structurally but emits
		// nothing: the reference interpreter can never execute it.
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			c.deadDepth++
		case wasm.OpElse:
			if c.deadDepth == 0 {
				return c.elseDead()
			}
		case wasm.OpEnd:
			if c.deadDepth > 0 {
				c.deadDepth--
				return nil
			}
			return c.endFrame(true)
		}
		return nil
	}

	switch in.Op {
	case wasm.OpUnreachable:
		c.emit(irInstr{op: irUnreachable, cost: 1})
		c.dead = true
	case wasm.OpNop:
		c.emit(irInstr{op: irTick, cost: 1})
	case wasm.OpBlock:
		c.emit(irInstr{op: irTick, cost: 1})
		c.frames = append(c.frames, cFrame{
			entryH: c.height, hasResult: in.A != wasm.BlockTypeEmpty, elsePatch: -1, elseJumpPC: -1,
		})
	case wasm.OpLoop:
		c.emit(irInstr{op: irTick, cost: 1})
		c.setBarrier() // the back-branch label binds here, at the body start
		c.frames = append(c.frames, cFrame{
			isLoop: true, entryH: c.height, loopPC: len(c.out),
			hasResult: in.A != wasm.BlockTypeEmpty, elsePatch: -1, elseJumpPC: -1,
		})
	case wasm.OpIf:
		if err := c.need(1); err != nil {
			return err
		}
		c.height--
		c.hook(irHostTee, irHostTeeBrIfZ)
		c.emit(irInstr{op: irBrIfZ, cost: 1, b: uint32(c.height)})
		c.frames = append(c.frames, cFrame{
			isIf: true, entryH: c.height, hasResult: in.A != wasm.BlockTypeEmpty,
			elsePatch: len(c.out) - 1, elseJumpPC: -1,
		})
	case wasm.OpElse:
		return c.elseLive()
	case wasm.OpEnd:
		return c.endFrame(false)
	case wasm.OpBr:
		if err := c.branch(irBr, int(in.A)); err != nil {
			return err
		}
		c.dead = true
	case wasm.OpBrIf:
		if err := c.need(1); err != nil {
			return err
		}
		c.height--
		c.hook(irHostTee, irHostTeeBrIf)
		if err := c.branch(irBrIf, int(in.A)); err != nil {
			return err
		}
	case wasm.OpBrTable:
		if err := c.need(1); err != nil {
			return err
		}
		c.height--
		depths := make([]int, 0, len(in.Table)+1)
		for _, t := range in.Table {
			depths = append(depths, int(t))
		}
		depths = append(depths, int(in.A))
		ti := len(c.tables)
		entries := make([]irTarget, len(depths))
		c.tables = append(c.tables, entries)
		for i, d := range depths {
			if d >= len(c.frames) {
				return fmt.Errorf("br_table depth %d exceeds nesting %d", d, len(c.frames))
			}
			fr := &c.frames[len(c.frames)-1-d]
			if fr.isLoop {
				if err := c.need(fr.entryH); err != nil {
					return err
				}
				entries[i] = irTarget{pc: uint32(fr.loopPC), unwind: uint32(fr.entryH)}
				continue
			}
			keep := 0
			if fr.hasResult {
				keep = 1
			}
			if err := c.need(fr.entryH + keep); err != nil {
				return err
			}
			entries[i] = irTarget{unwind: uint32(fr.entryH), keep: uint8(keep)}
			fr.tpatches = append(fr.tpatches, tablePatch{table: ti, entry: i})
		}
		c.hook(irHostTee, irHostTeeBrTable)
		c.emit(irInstr{op: irBrTable, cost: 1, a: uint32(ti)})
		c.dead = true
	case wasm.OpReturn:
		// The reference tolerates a short stack here (takeResults returns
		// nil), so no static height requirement.
		c.emit(irInstr{op: irReturn, cost: 1, x: c.nResultsByte()})
		c.dead = true
	case wasm.OpCall:
		ft, err := c.m.FuncTypeAt(in.A)
		if err != nil {
			return err
		}
		if err := c.need(len(ft.Params)); err != nil {
			return err
		}
		c.adjust(len(ft.Params), len(ft.Results))
		if len(ft.Results) == 0 && int(in.A) < c.nImports && c.fuseHostCall(in.A, len(ft.Params)) {
			return nil
		}
		c.hook(irHostCC, irHostCCCall)
		c.emit(irInstr{op: irCall, cost: 1, a: in.A})
	case wasm.OpCallIndirect:
		if int(in.A) >= len(c.m.Types) {
			return fmt.Errorf("call_indirect type %d out of range", in.A)
		}
		ft := c.m.Types[in.A]
		if err := c.need(1 + len(ft.Params)); err != nil {
			return err
		}
		c.adjust(1+len(ft.Params), len(ft.Results))
		c.emit(irInstr{op: irCallInd, cost: 1, a: uint32(in.A)})
	case wasm.OpDrop:
		if err := c.need(1); err != nil {
			return err
		}
		c.height--
		c.emit(irInstr{op: irDrop, cost: 1})
	case wasm.OpSelect:
		if err := c.need(3); err != nil {
			return err
		}
		c.adjust(3, 1)
		c.emit(irInstr{op: irSelect, cost: 1})
	case wasm.OpLocalGet:
		if int(in.A) >= c.nLocals {
			return fmt.Errorf("local %d out of range", in.A)
		}
		c.adjust(0, 1)
		if p1, p2 := c.prev(1), c.prev(2); p2 != nil && p1.op == irHostCL && p2.op == irLocalSet &&
			p1.b == in.A && p2.a == in.A && in.A < 1<<16 {
			// The tee form: the argument is a value the group takes off
			// the stack, stores and puts back.
			prefix := p2.cost + p1.cost
			c.fuse(2, irInstr{op: irHostTee, cost: prefix + 1, x: uint8(prefix), a: p1.a, b: in.A, imm: p1.imm})
			return nil
		}
		c.emit(irInstr{op: irLocalGet, cost: 1, a: in.A})
	case wasm.OpLocalSet:
		if int(in.A) >= c.nLocals {
			return fmt.Errorf("local %d out of range", in.A)
		}
		if err := c.need(1); err != nil {
			return err
		}
		c.height--
		c.emit(irInstr{op: irLocalSet, cost: 1, a: in.A})
	case wasm.OpLocalTee:
		if int(in.A) >= c.nLocals {
			return fmt.Errorf("local %d out of range", in.A)
		}
		if err := c.need(1); err != nil {
			return err
		}
		c.emit(irInstr{op: irLocalTee, cost: 1, a: in.A})
	case wasm.OpGlobalGet:
		if int(in.A) >= len(c.m.Globals) {
			return fmt.Errorf("global %d out of range", in.A)
		}
		c.adjust(0, 1)
		c.emit(irInstr{op: irGlobalGet, cost: 1, a: in.A})
	case wasm.OpGlobalSet:
		if int(in.A) >= len(c.m.Globals) {
			return fmt.Errorf("global %d out of range", in.A)
		}
		if err := c.need(1); err != nil {
			return err
		}
		c.height--
		c.emit(irInstr{op: irGlobalSet, cost: 1, a: in.A})
	case wasm.OpI32Const:
		c.adjust(0, 1)
		c.emit(irInstr{op: irConst, cost: 1, imm: uint64(uint32(in.I32()))})
	case wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		c.adjust(0, 1)
		c.emit(irInstr{op: irConst, cost: 1, imm: in.Imm})
	case wasm.OpMemorySize:
		c.adjust(0, 1)
		c.emit(irInstr{op: irMemSize, cost: 1})
	case wasm.OpMemoryGrow:
		if err := c.need(1); err != nil {
			return err
		}
		c.adjust(1, 1)
		c.emit(irInstr{op: irMemGrow, cost: 1})
	default:
		return c.lowerDataOp(in)
	}
	return nil
}

// nResultsByte returns the function result count for irReturn encoding.
func (c *compiler) nResultsByte() uint8 {
	return c.fnResults
}

// branch emits a br/br_if to relative depth d (target pre-resolved for
// loops, forward-patched for blocks/ifs).
func (c *compiler) branch(op irOp, d int) error {
	if d >= len(c.frames) {
		// The reference interpreter panics (→ host-error trap) on a branch
		// past the outermost frame; reject so the fallback reproduces it.
		return fmt.Errorf("branch depth %d exceeds nesting %d", d, len(c.frames))
	}
	fr := &c.frames[len(c.frames)-1-d]
	if fr.isLoop {
		if err := c.need(fr.entryH); err != nil {
			return err
		}
		c.emit(irInstr{op: op, cost: 1, a: uint32(fr.loopPC), b: uint32(fr.entryH)})
		return nil
	}
	keep := 0
	if fr.hasResult {
		keep = 1
	}
	if err := c.need(fr.entryH + keep); err != nil {
		return err
	}
	c.emit(irInstr{op: op, cost: 1, b: uint32(fr.entryH), x: uint8(keep)})
	fr.patches = append(fr.patches, len(c.out)-1)
	return nil
}

// elseLive handles an else reached with a live then-arm fall-through.
func (c *compiler) elseLive() error {
	fr, err := c.ifTop()
	if err != nil {
		return err
	}
	// The then-arm jumps over the else-arm to the end opcode (which the
	// reference executes on this path, charging its fuel).
	c.emit(irInstr{op: irBr, cost: 1, b: uint32(c.height)})
	fr.elseJumpPC = len(c.out) - 1
	fr.elseJumpH = c.height
	c.out[fr.elsePatch].a = uint32(len(c.out))
	fr.elsePatch = -1
	c.setBarrier()
	c.height = fr.entryH
	return nil
}

// elseDead handles an else whose then-arm ended in dead code: the
// else-arm is still reachable through the if's conditional branch.
func (c *compiler) elseDead() error {
	fr, err := c.ifTop()
	if err != nil {
		return err
	}
	c.out[fr.elsePatch].a = uint32(len(c.out))
	fr.elsePatch = -1
	c.setBarrier()
	c.dead = false
	c.height = fr.entryH
	return nil
}

func (c *compiler) ifTop() (*cFrame, error) {
	if len(c.frames) == 0 {
		return nil, fmt.Errorf("else outside if")
	}
	fr := &c.frames[len(c.frames)-1]
	if !fr.isIf || fr.elseSeen {
		return nil, fmt.Errorf("else without matching if")
	}
	fr.elseSeen = true
	return fr, nil
}

// endFrame closes the innermost control frame, merging every live in-edge
// (fall-through, then-arm jump, skipped-if path, forward branches) into a
// single static stack height.
func (c *compiler) endFrame(deadFall bool) error {
	if len(c.frames) == 0 {
		// Function-terminating end: executes (and charges fuel) only when
		// reached by falling through.
		if !deadFall {
			c.emit(irInstr{op: irTick, cost: 1})
		}
		return nil
	}
	fr := c.frames[len(c.frames)-1]
	c.frames = c.frames[:len(c.frames)-1]
	if fr.isLoop {
		// Loop labels point backwards; the end has no incoming branches.
		if deadFall {
			c.dead = true
			return nil
		}
		c.emit(irInstr{op: irTick, cost: 1})
		return nil
	}
	keep := 0
	if fr.hasResult {
		keep = 1
	}
	// Collect the stack height of every live path into (or past) this end.
	const none = -1
	merged := none
	add := func(h int) error {
		if merged == none {
			merged = h
			return nil
		}
		if merged != h {
			return fmt.Errorf("inconsistent stack heights at merge: %d vs %d", merged, h)
		}
		return nil
	}
	if !deadFall {
		if err := add(c.height); err != nil {
			return err
		}
	}
	if fr.elseJumpPC >= 0 {
		if err := add(fr.elseJumpH); err != nil {
			return err
		}
	}
	if fr.elsePatch >= 0 {
		// if without else: the false path skips the end entirely.
		if err := add(fr.entryH); err != nil {
			return err
		}
	}
	if len(fr.patches) > 0 || len(fr.tpatches) > 0 {
		if err := add(fr.entryH + keep); err != nil {
			return err
		}
	}
	if merged == none {
		c.dead = true
		return nil
	}
	// The end opcode itself executes (and charges fuel) only on the
	// fall-through and then-arm-jump paths; branches land just past it.
	if !deadFall || fr.elseJumpPC >= 0 {
		if fr.elseJumpPC >= 0 {
			c.out[fr.elseJumpPC].a = uint32(len(c.out))
		}
		c.emit(irInstr{op: irTick, cost: 1})
	}
	label := uint32(len(c.out))
	if fr.elsePatch >= 0 {
		c.out[fr.elsePatch].a = label
	}
	for _, p := range fr.patches {
		c.out[p].a = label
	}
	for _, tp := range fr.tpatches {
		c.tables[tp.table][tp.entry].pc = label
	}
	c.setBarrier()
	c.dead = false
	c.height = merged
	return nil
}

// inlineOps maps the hot integer opcodes onto dedicated dispatch cases;
// everything else rides through applyNumeric unchanged.
var inlineOps = map[wasm.Opcode]irOp{
	wasm.OpI32Add: irI32Add, wasm.OpI32Sub: irI32Sub, wasm.OpI32Mul: irI32Mul,
	wasm.OpI32And: irI32And, wasm.OpI32Or: irI32Or, wasm.OpI32Xor: irI32Xor,
	wasm.OpI32Shl: irI32Shl, wasm.OpI32ShrS: irI32ShrS, wasm.OpI32ShrU: irI32ShrU,
	wasm.OpI32Eq: irI32Eq, wasm.OpI32Ne: irI32Ne,
	wasm.OpI32LtS: irI32LtS, wasm.OpI32LtU: irI32LtU,
	wasm.OpI32GtS: irI32GtS, wasm.OpI32GtU: irI32GtU,
	wasm.OpI32Eqz: irI32Eqz,
	wasm.OpI64Add: irI64Add, wasm.OpI64Sub: irI64Sub, wasm.OpI64Mul: irI64Mul,
	wasm.OpI64And: irI64And, wasm.OpI64Or: irI64Or, wasm.OpI64Xor: irI64Xor,
	wasm.OpI64Shl: irI64Shl, wasm.OpI64ShrS: irI64ShrS, wasm.OpI64ShrU: irI64ShrU,
	wasm.OpI64Eq: irI64Eq, wasm.OpI64Ne: irI64Ne,
	wasm.OpI64LtS: irI64LtS, wasm.OpI64LtU: irI64LtU,
	wasm.OpI64GtS: irI64GtS, wasm.OpI64GtU: irI64GtU,
	wasm.OpI64Eqz: irI64Eqz,
}

// numericEffect returns the stack effect of a pure numeric opcode handled
// by applyNumeric, or ok=false for opcodes the reference would reject.
func numericEffect(op wasm.Opcode) (pops, pushes int, ok bool) {
	switch {
	case op == wasm.OpI32Eqz || op == wasm.OpI64Eqz:
		return 1, 1, true
	case op >= wasm.OpI32Eq && op <= wasm.OpF64Ge:
		return 2, 1, true
	case op >= wasm.OpI32Clz && op <= wasm.OpI32Popcnt:
		return 1, 1, true
	case op >= wasm.OpI32Add && op <= wasm.OpI32Rotr:
		return 2, 1, true
	case op >= wasm.OpI64Clz && op <= wasm.OpI64Popcnt:
		return 1, 1, true
	case op >= wasm.OpI64Add && op <= wasm.OpI64Rotr:
		return 2, 1, true
	case op >= wasm.OpF32Abs && op <= wasm.OpF32Sqrt:
		return 1, 1, true
	case op >= wasm.OpF32Add && op <= wasm.OpF32Copysign:
		return 2, 1, true
	case op >= wasm.OpF64Abs && op <= wasm.OpF64Sqrt:
		return 1, 1, true
	case op >= wasm.OpF64Add && op <= wasm.OpF64Copysign:
		return 2, 1, true
	case op >= wasm.OpI32WrapI64 && op <= wasm.OpF64ReinterpretI64:
		return 1, 1, true
	default:
		return 0, 0, false
	}
}

// lowerDataOp handles loads, stores and numeric opcodes, applying the
// superinstruction peephole where a label cannot intervene.
func (c *compiler) lowerDataOp(in *wasm.Instr) error {
	prev := c.prev
	switch {
	case in.Op.IsLoad():
		if err := c.need(1); err != nil {
			return err
		}
		c.adjust(1, 1)
		c.hook(irHostTee, irHostTeeLoad)
		c.emit(irInstr{op: irLoad, cost: 1, x: uint8(in.Op), a: uint32(in.Op.MemBytes()), b: in.B})
	case in.Op.IsStore():
		if err := c.need(2); err != nil {
			return err
		}
		c.adjust(2, 0)
		if p1, p2, p3 := prev(1), prev(2), prev(3); p3 != nil && p3.op == irLocalSet && p2.op == irHostTee &&
			p1.op == irLocalGet && p1.a == p3.a && p1.a < 1<<16 {
			// The store hook: the value goes to a local, the tee logs the
			// address, and the value comes back for the store in the
			// next slot.
			c.fuse(3, irInstr{op: irHostTeeStore, cost: p3.cost + p2.cost + p1.cost + 1, x: uint8(p3.cost) + p2.x,
				a: p2.a, b: p2.b | p1.a<<16, imm: p2.imm})
			c.emit(irInstr{op: irStore, cost: 1, x: uint8(in.Op), a: uint32(in.Op.MemBytes()), b: in.B})
			return nil
		}
		if p := prev(1); p != nil && p.op == irConst {
			// const+store fusion: the value is an immediate.
			*p = irInstr{op: irConstStore, cost: p.cost + 1, x: uint8(in.Op), a: uint32(in.Op.MemBytes()), b: in.B, imm: p.imm}
			return nil
		}
		c.emit(irInstr{op: irStore, cost: 1, x: uint8(in.Op), a: uint32(in.Op.MemBytes()), b: in.B})
	default:
		pops, pushes, ok := numericEffect(in.Op)
		if !ok {
			return fmt.Errorf("unsupported opcode %s", in.Op.Name())
		}
		if err := c.need(pops); err != nil {
			return err
		}
		c.adjust(pops, pushes)
		if in.Op == wasm.OpI32Add || in.Op == wasm.OpI64Add {
			if p := prev(1); p != nil && p.op == irConst {
				fused := irConstAddI32
				if in.Op == wasm.OpI64Add {
					fused = irConstAddI64
				}
				*p = irInstr{op: fused, cost: p.cost + 1, imm: p.imm}
				return nil
			}
			if p1, p2 := prev(1), prev(2); p2 != nil && p1.op == irLocalGet && p2.op == irLocalGet {
				fused := irGetGetAddI32
				if in.Op == wasm.OpI64Add {
					fused = irGetGetAddI64
				}
				c.fuse(2, irInstr{op: fused, cost: p1.cost + p2.cost + 1, a: p2.a, b: p1.a})
				return nil
			}
		}
		if in.Op == wasm.OpI64Eq || in.Op == wasm.OpI64Ne {
			// The comparison hook: both operands go to locals, the call
			// logs them, and they come back for the comparison in the
			// next slot.
			p1, p2, p3, p4, p5 := prev(1), prev(2), prev(3), prev(4), prev(5)
			if p5 != nil && p5.op == irLocalSet && p4.op == irLocalSet && p3.op == irHostCLL &&
				p2.op == irLocalGet && p1.op == irLocalGet && p4.a == p3.b&0xffff && p5.a == p3.b>>16 &&
				p2.a == p4.a && p1.a == p5.a {
				c.fuse(5, irInstr{op: irHostCmp, cost: p5.cost + p4.cost + p3.cost + p2.cost + p1.cost + 1,
					x: uint8(p5.cost+p4.cost) + p3.x, a: p3.a, b: p3.b, imm: p3.imm})
			}
		}
		if op, ok := inlineOps[in.Op]; ok {
			c.emit(irInstr{op: op, cost: 1})
			return nil
		}
		c.emit(irInstr{op: irNumeric, cost: 1, x: uint8(in.Op)})
	}
	return nil
}
