package exec

import (
	"fmt"
	"math"

	"repro/internal/wasm"
)

// This file implements the fast execution core's dispatch loop: a dense
// switch over the decoded irInstr stream of ir.go. Branch targets, block
// arities and immediates are pre-resolved, each frame's locals and operand
// stack are pre-sized slices of one VM-owned stack (see pushFrame), the
// operand stack is indexed by an integer, and fuel is charged per decoded
// instruction (superinstructions carry the summed cost of the source
// instructions they replace), so successful executions consume exactly
// the fuel the reference tree-walker would.

// FastObserver receives one callback per executed decoded instruction:
// the function index, the decoded-stream pc, and the fuel charged. Setting
// an observer selects the tracing variant of the dispatch loop; with no
// observer the loop runs bare.
type FastObserver func(funcIndex uint32, pc int, cost int)

// NewFastVM returns a VM over inst that executes through the decoded-IR
// engine. Function bodies the conservative IR compiler rejects fall back
// to the reference tree-walker transparently, so observable behaviour is
// identical to NewVM in every case. Every fast VM over instances of one
// CompiledModule shares the module's IR, compiled on the first call.
func NewFastVM(inst *Instance) *VM {
	vm := NewVM(inst)
	vm.prog = inst.compiled.program()
	return vm
}

// Fast reports whether this VM dispatches through the decoded-IR engine.
func (vm *VM) Fast() bool { return vm.prog != nil }

// SetFastObserver installs (or, with nil, removes) the per-instruction
// tracing hook of the fast engine.
func (vm *VM) SetFastObserver(obs FastObserver) { vm.fastObs = obs }

// fastCompiled returns the compiled body for f, or nil when f must run on
// the reference interpreter.
func (vm *VM) fastCompiled(f *funcDef) *irFunc {
	if vm.prog == nil || int(f.index) >= len(vm.prog.funcs) {
		return nil
	}
	return vm.prog.funcs[f.index]
}

// fastExec runs fn in a frame on top of the VM's frame stack: its locals,
// then its operand stack. The frame is cut back off on every exit, so a
// returned result slice is a view of a dead frame that the next call
// overwrites; callers copy it out first.
func (vm *VM) fastExec(f *funcDef, fn *irFunc, args []uint64) (results []uint64, err error) {
	base, depth := vm.height, vm.depth
	defer func() {
		// A host-call group runs its host function without vm.call's
		// deferred unwind, so a panic leaves the depth to restore here.
		vm.height, vm.depth = base, depth
		if r := recover(); r != nil {
			// Mirrors the reference interpreter: residual malformed-body
			// panics become host-error traps instead of crashing.
			wrapped := fmt.Errorf("interpreter panic: %v", r)
			if e, ok := r.(error); ok {
				wrapped = fmt.Errorf("interpreter panic: %w", e)
			}
			results = nil
			err = &Trap{Kind: TrapHostError, FuncIndex: f.index, Wrapped: wrapped}
		}
	}()
	frame := vm.pushFrame(fn.nLocals + fn.maxStack)
	locals := frame[:fn.nLocals:fn.nLocals]
	copy(locals, args)
	clear(locals[len(args):])
	st := frame[fn.nLocals:]
	sp := 0

	code := fn.code
	obs := vm.fastObs
	for pc := 0; pc < len(code); {
		in := &code[pc]
		if obs != nil {
			obs(f.index, pc, int(in.cost))
		}
		if vm.fuel -= int64(in.cost); vm.fuel < 0 {
			return nil, vm.outOfFuel(f, fn, pc, locals, st, sp)
		}
		switch in.op {
		case irTick:
			// fuel-only bookkeeping

		case irUnreachable:
			return nil, &Trap{Kind: TrapUnreachable, FuncIndex: f.index, PC: int(fn.src[pc])}

		case irBr:
			if in.x == 1 {
				st[in.b] = st[sp-1]
			}
			sp = int(in.b) + int(in.x)
			pc = int(in.a)
			continue

		case irBrIf:
			sp--
			if st[sp] != 0 {
				if in.x == 1 {
					st[in.b] = st[sp-1]
				}
				sp = int(in.b) + int(in.x)
				pc = int(in.a)
				continue
			}

		case irBrIfZ:
			sp--
			if st[sp] == 0 {
				sp = int(in.b)
				pc = int(in.a)
				continue
			}

		case irBrTable:
			sp, pc = brTable(fn.tables[in.a], st, sp-1)
			continue

		case irReturn:
			n := int(in.x)
			if n == 0 || sp < n {
				return nil, nil
			}
			return st[sp-n : sp : sp], nil

		case irCall:
			callee := &vm.inst.funcs[in.a]
			n := len(callee.typ.Params)
			sp -= n
			res, cerr := vm.call(callee, st[sp:sp+n:sp+n])
			if cerr != nil {
				return nil, cerr
			}
			copy(st[sp:], res)
			sp += len(res)

		case irCallInd:
			sp--
			ti := st[sp]
			if int(ti) >= len(vm.inst.compiled.table) {
				return nil, &Trap{Kind: TrapUndefinedElement, FuncIndex: f.index, PC: int(fn.src[pc])}
			}
			fi := vm.inst.compiled.table[ti]
			if fi < 0 {
				return nil, &Trap{Kind: TrapUndefinedElement, FuncIndex: f.index, PC: int(fn.src[pc])}
			}
			if vm.prog.funcCanon[fi] != vm.prog.typeCanon[in.a] {
				return nil, &Trap{Kind: TrapIndirectCallTypeMismatch, FuncIndex: f.index, PC: int(fn.src[pc])}
			}
			callee := &vm.inst.funcs[fi]
			n := len(callee.typ.Params)
			sp -= n
			res, cerr := vm.call(callee, st[sp:sp+n:sp+n])
			if cerr != nil {
				return nil, cerr
			}
			copy(st[sp:], res)
			sp += len(res)

		case irDrop:
			sp--

		case irSelect:
			c, b, a := st[sp-1], st[sp-2], st[sp-3]
			sp -= 2
			if c != 0 {
				st[sp-1] = a
			} else {
				st[sp-1] = b
			}

		case irLocalGet:
			st[sp] = locals[in.a]
			sp++
		case irLocalSet:
			sp--
			locals[in.a] = st[sp]
		case irLocalTee:
			locals[in.a] = st[sp-1]
		case irGlobalGet:
			st[sp] = vm.inst.globals[in.a]
			sp++
		case irGlobalSet:
			sp--
			vm.inst.globals[in.a] = st[sp]

		case irConst:
			st[sp] = in.imm
			sp++

		case irMemSize:
			st[sp] = uint64(uint32(len(vm.inst.mem) / PageSize))
			sp++
		case irMemGrow:
			st[sp-1] = uint64(uint32(vm.inst.grow(uint32(st[sp-1]))))

		case irLoad:
			mem := vm.inst.mem
			addr := uint64(uint32(st[sp-1])) + uint64(in.b)
			end := addr + uint64(in.a)
			if end > uint64(len(mem)) {
				return nil, &Trap{Kind: TrapMemoryOutOfBounds, FuncIndex: f.index, PC: int(fn.src[pc])}
			}
			st[sp-1] = loadVal(wasm.Opcode(in.x), mem[addr:end])

		case irStore:
			mem := vm.inst.mem
			val := st[sp-1]
			addr := uint64(uint32(st[sp-2])) + uint64(in.b)
			sp -= 2
			end := addr + uint64(in.a)
			if end > uint64(len(mem)) {
				return nil, &Trap{Kind: TrapMemoryOutOfBounds, FuncIndex: f.index, PC: int(fn.src[pc])}
			}
			storeVal(wasm.Opcode(in.x), mem[addr:end], val)
			vm.inst.markDirty(addr, end)

		case irConstStore:
			mem := vm.inst.mem
			addr := uint64(uint32(st[sp-1])) + uint64(in.b)
			sp--
			end := addr + uint64(in.a)
			if end > uint64(len(mem)) {
				// The store is the second constituent.
				return nil, &Trap{Kind: TrapMemoryOutOfBounds, FuncIndex: f.index, PC: int(fn.src[pc]) + 1}
			}
			storeVal(wasm.Opcode(in.x), mem[addr:end], in.imm)
			vm.inst.markDirty(addr, end)

		case irNumeric:
			w := st[:sp]
			if _, k := applyNumeric(wasm.Opcode(in.x), &w); k != 0 {
				return nil, &Trap{Kind: k, FuncIndex: f.index, PC: int(fn.src[pc])}
			}
			sp = len(w)

		case irI32Add:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) + uint32(st[sp]))
		case irI32Sub:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) - uint32(st[sp]))
		case irI32Mul:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) * uint32(st[sp]))
		case irI32And:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) & uint32(st[sp]))
		case irI32Or:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) | uint32(st[sp]))
		case irI32Xor:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) ^ uint32(st[sp]))
		case irI32Shl:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) << (uint32(st[sp]) & 31))
		case irI32ShrS:
			sp--
			st[sp-1] = uint64(uint32(int32(st[sp-1]) >> (uint32(st[sp]) & 31)))
		case irI32ShrU:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) >> (uint32(st[sp]) & 31))
		case irI32Eq:
			sp--
			st[sp-1] = b2u(uint32(st[sp-1]) == uint32(st[sp]))
		case irI32Ne:
			sp--
			st[sp-1] = b2u(uint32(st[sp-1]) != uint32(st[sp]))
		case irI32LtS:
			sp--
			st[sp-1] = b2u(int32(st[sp-1]) < int32(st[sp]))
		case irI32LtU:
			sp--
			st[sp-1] = b2u(uint32(st[sp-1]) < uint32(st[sp]))
		case irI32GtS:
			sp--
			st[sp-1] = b2u(int32(st[sp-1]) > int32(st[sp]))
		case irI32GtU:
			sp--
			st[sp-1] = b2u(uint32(st[sp-1]) > uint32(st[sp]))
		case irI32Eqz:
			st[sp-1] = b2u(uint32(st[sp-1]) == 0)

		case irI64Add:
			sp--
			st[sp-1] += st[sp]
		case irI64Sub:
			sp--
			st[sp-1] -= st[sp]
		case irI64Mul:
			sp--
			st[sp-1] *= st[sp]
		case irI64And:
			sp--
			st[sp-1] &= st[sp]
		case irI64Or:
			sp--
			st[sp-1] |= st[sp]
		case irI64Xor:
			sp--
			st[sp-1] ^= st[sp]
		case irI64Shl:
			sp--
			st[sp-1] <<= st[sp] & 63
		case irI64ShrS:
			sp--
			st[sp-1] = uint64(int64(st[sp-1]) >> (st[sp] & 63))
		case irI64ShrU:
			sp--
			st[sp-1] >>= st[sp] & 63
		case irI64Eq:
			sp--
			st[sp-1] = b2u(st[sp-1] == st[sp])
		case irI64Ne:
			sp--
			st[sp-1] = b2u(st[sp-1] != st[sp])
		case irI64LtS:
			sp--
			st[sp-1] = b2u(int64(st[sp-1]) < int64(st[sp]))
		case irI64LtU:
			sp--
			st[sp-1] = b2u(st[sp-1] < st[sp])
		case irI64GtS:
			sp--
			st[sp-1] = b2u(int64(st[sp-1]) > int64(st[sp]))
		case irI64GtU:
			sp--
			st[sp-1] = b2u(st[sp-1] > st[sp])
		case irI64Eqz:
			st[sp-1] = b2u(st[sp-1] == 0)

		case irGetGetAddI32:
			st[sp] = uint64(uint32(locals[in.a]) + uint32(locals[in.b]))
			sp++
		case irGetGetAddI64:
			st[sp] = locals[in.a] + locals[in.b]
			sp++
		case irConstAddI32:
			st[sp-1] = uint64(uint32(st[sp-1]) + uint32(in.imm))
		case irConstAddI64:
			st[sp-1] += in.imm

		case irHostC:
			st[sp] = in.imm
			if err := vm.hostCall(in.a, st[sp:sp+1:sp+1]); err != nil {
				return nil, err
			}
		case irHostCL:
			st[sp], st[sp+1] = in.imm, locals[in.b]
			if err := vm.hostCall(in.a, st[sp:sp+2:sp+2]); err != nil {
				return nil, err
			}
		case irHostCC:
			st[sp], st[sp+1] = in.imm&math.MaxUint32, in.imm>>32
			if err := vm.hostCall(in.a, st[sp:sp+2:sp+2]); err != nil {
				return nil, err
			}
		case irHostCLL:
			st[sp], st[sp+1], st[sp+2] = in.imm, locals[in.b&0xffff], locals[in.b>>16]
			if err := vm.hostCall(in.a, st[sp:sp+3:sp+3]); err != nil {
				return nil, err
			}
		case irHostTee:
			if err := vm.hostTee(in, locals, st[sp-1:sp+1]); err != nil {
				return nil, err
			}

		// The hooked groups run their host-call group, then the plain
		// instruction of the next slot, and step over that slot.
		case irHostTeeBrIf:
			if err := vm.hostTee(in, locals, st[sp-1:sp+1]); err != nil {
				return nil, err
			}
			pc++
			sp--
			if st[sp] != 0 {
				br := &code[pc]
				if br.x == 1 {
					st[br.b] = st[sp-1]
				}
				sp = int(br.b) + int(br.x)
				pc = int(br.a)
				continue
			}
		case irHostTeeBrIfZ:
			if err := vm.hostTee(in, locals, st[sp-1:sp+1]); err != nil {
				return nil, err
			}
			pc++
			sp--
			if st[sp] == 0 {
				br := &code[pc]
				sp = int(br.b)
				pc = int(br.a)
				continue
			}
		case irHostTeeBrTable:
			if err := vm.hostTee(in, locals, st[sp-1:sp+1]); err != nil {
				return nil, err
			}
			sp, pc = brTable(fn.tables[code[pc+1].a], st, sp-1)
			continue
		case irHostTeeLoad:
			if err := vm.hostTee(in, locals, st[sp-1:sp+1]); err != nil {
				return nil, err
			}
			pc++
			v, ok := vm.load(&code[pc], st[sp-1])
			if !ok {
				return nil, &Trap{Kind: TrapMemoryOutOfBounds, FuncIndex: f.index, PC: int(fn.src[pc])}
			}
			st[sp-1] = v
		case irHostTeeStore:
			locals[in.b>>16] = st[sp-1]
			if err := vm.hostTee(in, locals, st[sp-2:sp]); err != nil {
				return nil, err
			}
			pc++
			sp -= 2
			if !vm.store(&code[pc], st[sp], locals[in.b>>16]) {
				return nil, &Trap{Kind: TrapMemoryOutOfBounds, FuncIndex: f.index, PC: int(fn.src[pc])}
			}
		case irHostCmp:
			sp -= 2
			a, b, err := vm.hostCmp(in, locals, st[sp:sp+3])
			if err != nil {
				return nil, err
			}
			pc++
			st[sp] = b2u((a == b) == (code[pc].op == irI64Eq))
			sp++
		case irHostCCCall:
			st[sp], st[sp+1] = in.imm&math.MaxUint32, in.imm>>32
			if err := vm.hostCall(in.a, st[sp:sp+2:sp+2]); err != nil {
				return nil, err
			}
			pc++
			callee := &vm.inst.funcs[code[pc].a]
			n := len(callee.typ.Params)
			sp -= n
			res, cerr := vm.call(callee, st[sp:sp+n:sp+n])
			if cerr != nil {
				return nil, cerr
			}
			copy(st[sp:], res)
			sp += len(res)

		default:
			return nil, &Trap{Kind: TrapHostError, FuncIndex: f.index, PC: int(fn.src[pc]),
				Wrapped: fmt.Errorf("invalid decoded opcode %d", in.op)}
		}
		pc++
	}
	// Unreachable: compiled bodies always end in irReturn.
	return nil, nil
}

// brTable takes the br_table branch whose index is st[sp] and returns
// the stack height and pc it lands on.
func brTable(tbl []irTarget, st []uint64, sp int) (int, int) {
	i := len(tbl) - 1
	if v := st[sp]; uint64(uint32(v)) < uint64(i) {
		i = int(uint32(v))
	}
	t := &tbl[i]
	if t.keep == 1 {
		st[t.unwind] = st[sp-1]
	}
	return int(t.unwind) + int(t.keep), int(t.pc)
}

// load reads the value the load in addresses from base, or reports that
// it lies out of bounds. The plain load and store cases inline the same
// steps; the hooked groups, which make a host call anyway, share these.
func (vm *VM) load(in *irInstr, base uint64) (uint64, bool) {
	mem := vm.inst.mem
	addr := uint64(uint32(base)) + uint64(in.b)
	end := addr + uint64(in.a)
	if end > uint64(len(mem)) {
		return 0, false
	}
	return loadVal(wasm.Opcode(in.x), mem[addr:end]), true
}

// store writes val where the store in addresses from base, or reports
// that it lies out of bounds.
func (vm *VM) store(in *irInstr, base, val uint64) bool {
	mem := vm.inst.mem
	addr := uint64(uint32(base)) + uint64(in.b)
	end := addr + uint64(in.a)
	if end > uint64(len(mem)) {
		return false
	}
	storeVal(wasm.Opcode(in.x), mem[addr:end], val)
	vm.inst.markDirty(addr, end)
	return true
}

// hostCall calls the host function fi with args as vm.call would, without
// its frame: the call counts toward MaxCallDepth, and an error that is not
// a trap wraps as TrapHostError. A group's host function has no results.
func (vm *VM) hostCall(fi uint32, args []uint64) error {
	if vm.depth >= vm.inst.MaxCallDepth {
		return &Trap{Kind: TrapStackExhausted, FuncIndex: fi}
	}
	vm.depth++
	_, err := vm.inst.funcs[fi].host(vm, args)
	vm.depth--
	if err != nil {
		if _, ok := AsTrap(err); ok {
			return err
		}
		return &Trap{Kind: TrapHostError, FuncIndex: fi, Wrapped: err}
	}
	return nil
}

// hostTee runs the call of a tee group on the operand v = s[0]: it stores
// v in the group's local, calls the host function with (imm, v) in the
// slots the source pushed them to, and leaves v on the stack.
func (vm *VM) hostTee(in *irInstr, locals, s []uint64) error {
	v := s[0]
	locals[in.b&0xffff] = v
	s[0], s[1] = in.imm, v
	err := vm.hostCall(in.a, s[:2:2])
	s[0] = v
	return err
}

// hostCmp runs the call of a comparison group on the operands a = s[0]
// and b = s[1]: it stores them in the group's locals and calls the host
// function with (imm, a, b) in the slots the source pushed them to. It
// returns the operands as the source reads them back.
func (vm *VM) hostCmp(in *irInstr, locals, s []uint64) (a, b uint64, err error) {
	locals[in.b>>16] = s[1]
	locals[in.b&0xffff] = s[0]
	a, b = locals[in.b&0xffff], locals[in.b>>16]
	s[0], s[1], s[2] = in.imm, a, b
	return a, b, vm.hostCall(in.a, s[:3:3])
}

// outOfFuel returns the trap of the step at pc, whose cost the budget no
// longer covers. The reference interpreter would have run as many of its
// constituents as the budget paid for and trapped at the next one, so
// the trap names that source pc. A host-call group whose call is not its
// last constituent makes the call first when the budget paid for it
// (in.x): its other constituents write only locals and the operand stack,
// which a trap discards, so the call is the only effect to reproduce.
func (vm *VM) outOfFuel(f *funcDef, fn *irFunc, pc int, locals, st []uint64, sp int) error {
	in := &fn.code[pc]
	paid := vm.fuel + int64(in.cost)
	if in.op >= irHostC && paid >= int64(in.x) {
		var err error
		switch in.op {
		case irHostTeeStore:
			locals[in.b>>16] = st[sp-1]
			err = vm.hostTee(in, locals, st[sp-2:sp])
		case irHostCmp:
			_, _, err = vm.hostCmp(in, locals, st[sp-2:sp+1])
		case irHostCCCall:
			st[sp], st[sp+1] = in.imm&math.MaxUint32, in.imm>>32
			err = vm.hostCall(in.a, st[sp:sp+2:sp+2])
		default: // the other tee forms: the groups whose call comes last never get here
			err = vm.hostTee(in, locals, st[sp-1:sp+1])
		}
		if err != nil {
			return err
		}
	}
	return &Trap{Kind: TrapFuelExhausted, FuncIndex: f.index, PC: int(fn.src[pc]) + int(paid)}
}

// pushFrame reserves n slots on top of the frame stack and returns them,
// capped at n. A frame that does not fit replaces the stack with one at
// least twice the size. Frames already running keep their views of the
// old array until they return, and a new frame reads only its own slots
// and the argument view it is handed, so the old contents are not
// copied. MaxCallDepth bounds how many frames the stack ever holds.
func (vm *VM) pushFrame(n int) []uint64 {
	base := vm.height
	top := base + n
	if top > len(vm.stack) {
		vm.stack = make([]uint64, max(2*len(vm.stack), top))
	}
	vm.height = top
	return vm.stack[base:top:top]
}

// b2u converts a comparison result to the Wasm boolean encoding.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
