package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/wasm"
)

// DefaultFuel is the default instruction budget per top-level invocation.
const DefaultFuel = 20_000_000

// VM executes functions of a single Instance. A VM is not safe for
// concurrent use; the chain layer keeps one VM per deployed account.
type VM struct {
	inst  *Instance
	fuel  int64
	depth int

	// prog, when non-nil, selects the decoded-IR fast engine (fastvm.go);
	// functions its conservative compiler rejected stay nil in prog.funcs
	// and run on the tree-walker below.
	prog    *irProgram
	fastObs FastObserver
	// stack holds the frames of the fast engine's active calls, and
	// height is the part of it they use (see pushFrame). height is back
	// at 0 after each top-level invocation; the array is kept for the
	// next one.
	stack  []uint64
	height int
	// args holds the arguments of the top-level invocation, so the
	// caller's variadic slice never escapes; result is the one-value
	// slot host functions return through Result.
	args   []uint64
	result [1]uint64

	// Context carries host-defined state (the chain's apply context) that
	// host functions retrieve via vm.Context.
	Context any
}

// NewVM returns a VM over inst with the default fuel budget.
func NewVM(inst *Instance) *VM { return &VM{inst: inst, fuel: DefaultFuel} }

// SetFuel replaces the remaining instruction budget.
func (vm *VM) SetFuel(fuel int64) { vm.fuel = fuel }

// Fuel returns the remaining instruction budget.
func (vm *VM) Fuel() int64 { return vm.fuel }

// Instance returns the instance this VM executes.
func (vm *VM) Instance() *Instance { return vm.inst }

// Result returns a one-value result slice for a host function to
// return, backed by a slot the VM owns: returning it allocates nothing.
// Both engines copy a host function's results out before they run
// anything else, so the slot is free again once the host call returns.
func (vm *VM) Result(v uint64) []uint64 {
	vm.result[0] = v
	return vm.result[:]
}

// Invoke calls the exported function with the given name.
func (vm *VM) Invoke(name string, args ...uint64) ([]uint64, error) {
	idx, ok := vm.inst.compiled.module.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("exec: no exported function %q", name)
	}
	return vm.InvokeIndex(idx, args...)
}

// InvokeIndex calls the function at the given function-space index.
func (vm *VM) InvokeIndex(idx uint32, args ...uint64) ([]uint64, error) {
	if int(idx) >= len(vm.inst.funcs) {
		return nil, fmt.Errorf("exec: function index %d out of range", idx)
	}
	f := &vm.inst.funcs[idx]
	if len(args) != len(f.typ.Params) {
		return nil, fmt.Errorf("exec: %s wants %d args, got %d", vm.inst.FuncName(idx), len(f.typ.Params), len(args))
	}
	// Both engines copy a function's arguments into its locals before
	// they run it, so one VM-owned buffer serves every invocation.
	vm.args = append(vm.args[:0], args...)
	res, err := vm.call(f, vm.args)
	if err != nil {
		return nil, err
	}
	// A fast-engine result is a view of the frame stack, which the next
	// call overwrites: no caller outside the VM may hold one.
	return slices.Clone(res), nil
}

func (vm *VM) call(f *funcDef, args []uint64) ([]uint64, error) {
	vm.depth++
	defer func() { vm.depth-- }()
	if vm.depth > vm.inst.MaxCallDepth {
		return nil, &Trap{Kind: TrapStackExhausted, FuncIndex: f.index}
	}
	if f.host != nil {
		res, err := f.host(vm, args)
		if err != nil {
			if _, ok := AsTrap(err); ok {
				return nil, err
			}
			return nil, &Trap{Kind: TrapHostError, FuncIndex: f.index, Wrapped: err}
		}
		return res, nil
	}
	if fn := vm.fastCompiled(f); fn != nil {
		return vm.fastExec(f, fn, args)
	}
	return vm.exec(f, args)
}

// ctrlFrame is one entry of the structured-control stack.
type ctrlFrame struct {
	startPC   int
	endPC     int
	stackH    int
	isLoop    bool
	hasResult bool
}

func (vm *VM) exec(f *funcDef, args []uint64) (results []uint64, err error) {
	locals := make([]uint64, len(f.typ.Params)+int(f.code.NumLocals()))
	copy(locals, args)

	var (
		stack []uint64
		ctrl  []ctrlFrame
	)
	push := func(v uint64) { stack = append(stack, v) }
	pop := func() uint64 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	trap := func(kind TrapKind, pc int) error {
		return &Trap{Kind: kind, FuncIndex: f.index, PC: pc}
	}

	body := f.code.Body
	mem := func() []byte { return vm.inst.mem }

	// branchTo unwinds to the frame at relative depth d per Wasm label
	// semantics and returns the next pc.
	branchTo := func(d int) int {
		target := ctrl[len(ctrl)-1-d]
		if target.isLoop {
			// Branch to a loop re-enters at its start; loop labels take no values.
			stack = stack[:target.stackH]
			ctrl = ctrl[:len(ctrl)-d] // keep the loop frame itself
			return target.startPC + 1
		}
		var result uint64
		if target.hasResult {
			result = stack[len(stack)-1]
		}
		stack = stack[:target.stackH]
		if target.hasResult {
			stack = append(stack, result)
		}
		ctrl = ctrl[:len(ctrl)-1-d]
		return target.endPC + 1
	}

	defer func() {
		if r := recover(); r != nil {
			// Index/slice panics indicate a malformed (unvalidated) body;
			// convert to a trap rather than crashing the process. An error
			// panic value keeps its chain (errors.Is/As through the trap).
			wrapped := fmt.Errorf("interpreter panic: %v", r)
			if e, ok := r.(error); ok {
				wrapped = fmt.Errorf("interpreter panic: %w", e)
			}
			results = nil
			err = &Trap{Kind: TrapHostError, FuncIndex: f.index, Wrapped: wrapped}
		}
	}()

	pc := 0
	for pc < len(body) {
		if vm.fuel--; vm.fuel < 0 {
			return nil, trap(TrapFuelExhausted, pc)
		}
		in := body[pc]
		switch in.Op {
		case wasm.OpUnreachable:
			return nil, trap(TrapUnreachable, pc)
		case wasm.OpNop:
		case wasm.OpBlock:
			ctrl = append(ctrl, ctrlFrame{
				startPC: pc, endPC: f.meta.EndOf[pc], stackH: len(stack),
				hasResult: in.A != wasm.BlockTypeEmpty,
			})
		case wasm.OpLoop:
			ctrl = append(ctrl, ctrlFrame{
				startPC: pc, endPC: f.meta.EndOf[pc], stackH: len(stack),
				isLoop: true, hasResult: in.A != wasm.BlockTypeEmpty,
			})
		case wasm.OpIf:
			cond := pop()
			endPC := f.meta.EndOf[pc]
			elsePC := f.meta.ElseOf[pc]
			if cond != 0 {
				ctrl = append(ctrl, ctrlFrame{startPC: pc, endPC: endPC, stackH: len(stack), hasResult: in.A != wasm.BlockTypeEmpty})
			} else if elsePC != endPC {
				ctrl = append(ctrl, ctrlFrame{startPC: pc, endPC: endPC, stackH: len(stack), hasResult: in.A != wasm.BlockTypeEmpty})
				pc = elsePC + 1
				continue
			} else {
				pc = endPC + 1
				continue
			}
		case wasm.OpElse:
			// Reached only by falling through the then-arm: skip to end.
			top := ctrl[len(ctrl)-1]
			pc = top.endPC // the end opcode pops the frame
			continue
		case wasm.OpEnd:
			if len(ctrl) > 0 {
				ctrl = ctrl[:len(ctrl)-1]
			}
		case wasm.OpBr:
			pc = branchTo(int(in.A))
			continue
		case wasm.OpBrIf:
			if pop() != 0 {
				pc = branchTo(int(in.A))
				continue
			}
		case wasm.OpBrTable:
			i := uint32(pop())
			d := in.A
			if int(i) < len(in.Table) {
				d = in.Table[i]
			}
			pc = branchTo(int(d))
			continue
		case wasm.OpReturn:
			return vm.takeResults(f, stack), nil
		case wasm.OpCall:
			callee := &vm.inst.funcs[in.A]
			res, err := vm.callFrom(callee, &stack)
			if err != nil {
				return nil, err
			}
			stack = append(stack, res...)
		case wasm.OpCallIndirect:
			ti := pop()
			if int(ti) >= len(vm.inst.compiled.table) {
				return nil, trap(TrapUndefinedElement, pc)
			}
			fi := vm.inst.compiled.table[ti]
			if fi < 0 {
				return nil, trap(TrapUndefinedElement, pc)
			}
			callee := &vm.inst.funcs[fi]
			want := vm.inst.compiled.module.Types[in.A]
			if !callee.typ.Equal(want) {
				return nil, trap(TrapIndirectCallTypeMismatch, pc)
			}
			res, err := vm.callFrom(callee, &stack)
			if err != nil {
				return nil, err
			}
			stack = append(stack, res...)
		case wasm.OpDrop:
			pop()
		case wasm.OpSelect:
			c, b, a := pop(), pop(), pop()
			if c != 0 {
				push(a)
			} else {
				push(b)
			}
		case wasm.OpLocalGet:
			push(locals[in.A])
		case wasm.OpLocalSet:
			locals[in.A] = pop()
		case wasm.OpLocalTee:
			locals[in.A] = stack[len(stack)-1]
		case wasm.OpGlobalGet:
			push(vm.inst.globals[in.A])
		case wasm.OpGlobalSet:
			vm.inst.globals[in.A] = pop()

		case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			if in.Op == wasm.OpI32Const {
				push(uint64(uint32(in.I32())))
			} else {
				push(in.Imm)
			}

		case wasm.OpMemorySize:
			push(uint64(uint32(len(mem()) / PageSize)))
		case wasm.OpMemoryGrow:
			pages := uint32(pop())
			push(uint64(uint32(vm.inst.grow(pages))))

		default:
			if in.Op.IsLoad() {
				addr := uint64(uint32(pop())) + uint64(in.B)
				n := in.Op.MemBytes()
				if addr+uint64(n) > uint64(len(mem())) {
					return nil, trap(TrapMemoryOutOfBounds, pc)
				}
				push(loadVal(in.Op, mem()[addr:addr+uint64(n)]))
			} else if in.Op.IsStore() {
				val := pop()
				addr := uint64(uint32(pop())) + uint64(in.B)
				n := in.Op.MemBytes()
				if addr+uint64(n) > uint64(len(mem())) {
					return nil, trap(TrapMemoryOutOfBounds, pc)
				}
				storeVal(in.Op, mem()[addr:addr+uint64(n)], val)
				vm.inst.markDirty(addr, addr+uint64(n))
			} else {
				v, terr := applyNumeric(in.Op, &stack)
				if terr != 0 {
					return nil, trap(terr, pc)
				}
				_ = v
			}
		}
		pc++
	}
	return vm.takeResults(f, stack), nil
}

// callFrom pops the callee's arguments off the caller's stack and invokes it.
func (vm *VM) callFrom(callee *funcDef, stack *[]uint64) ([]uint64, error) {
	n := len(callee.typ.Params)
	s := *stack
	if len(s) < n {
		return nil, &Trap{Kind: TrapHostError, FuncIndex: callee.index, Wrapped: fmt.Errorf("stack underflow calling %s", callee.name)}
	}
	args := make([]uint64, n)
	copy(args, s[len(s)-n:])
	*stack = s[:len(s)-n]
	return vm.call(callee, args)
}

func (vm *VM) takeResults(f *funcDef, stack []uint64) []uint64 {
	n := len(f.typ.Results)
	if n == 0 || len(stack) < n {
		return nil
	}
	out := make([]uint64, n)
	copy(out, stack[len(stack)-n:])
	return out
}

func loadVal(op wasm.Opcode, p []byte) uint64 {
	switch op {
	case wasm.OpI32Load8U, wasm.OpI64Load8U:
		return uint64(p[0])
	case wasm.OpI32Load8S:
		return uint64(uint32(int32(int8(p[0]))))
	case wasm.OpI64Load8S:
		return uint64(int64(int8(p[0])))
	case wasm.OpI32Load16U, wasm.OpI64Load16U:
		return uint64(binary.LittleEndian.Uint16(p))
	case wasm.OpI32Load16S:
		return uint64(uint32(int32(int16(binary.LittleEndian.Uint16(p)))))
	case wasm.OpI64Load16S:
		return uint64(int64(int16(binary.LittleEndian.Uint16(p))))
	case wasm.OpI32Load, wasm.OpF32Load, wasm.OpI64Load32U:
		return uint64(binary.LittleEndian.Uint32(p))
	case wasm.OpI64Load32S:
		return uint64(int64(int32(binary.LittleEndian.Uint32(p))))
	case wasm.OpI64Load, wasm.OpF64Load:
		return binary.LittleEndian.Uint64(p)
	default:
		return 0
	}
}

func storeVal(op wasm.Opcode, p []byte, val uint64) {
	switch op {
	case wasm.OpI32Store8, wasm.OpI64Store8:
		p[0] = byte(val)
	case wasm.OpI32Store16, wasm.OpI64Store16:
		binary.LittleEndian.PutUint16(p, uint16(val))
	case wasm.OpI32Store, wasm.OpF32Store, wasm.OpI64Store32:
		binary.LittleEndian.PutUint32(p, uint32(val))
	case wasm.OpI64Store, wasm.OpF64Store:
		binary.LittleEndian.PutUint64(p, val)
	}
}

// applyNumeric executes a pure numeric/comparison/conversion opcode against
// the stack. It returns a trap kind of 0 on success.
func applyNumeric(op wasm.Opcode, stackp *[]uint64) (uint64, TrapKind) {
	stack := *stackp
	pop := func() uint64 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	push := func(v uint64) { stack = append(stack, v) }
	pushBool := func(b bool) {
		if b {
			push(1)
		} else {
			push(0)
		}
	}
	defer func() { *stackp = stack }()

	switch op {
	// i32 comparisons
	case wasm.OpI32Eqz:
		pushBool(uint32(pop()) == 0)
	case wasm.OpI32Eq:
		b, a := uint32(pop()), uint32(pop())
		pushBool(a == b)
	case wasm.OpI32Ne:
		b, a := uint32(pop()), uint32(pop())
		pushBool(a != b)
	case wasm.OpI32LtS:
		b, a := int32(pop()), int32(pop())
		pushBool(a < b)
	case wasm.OpI32LtU:
		b, a := uint32(pop()), uint32(pop())
		pushBool(a < b)
	case wasm.OpI32GtS:
		b, a := int32(pop()), int32(pop())
		pushBool(a > b)
	case wasm.OpI32GtU:
		b, a := uint32(pop()), uint32(pop())
		pushBool(a > b)
	case wasm.OpI32LeS:
		b, a := int32(pop()), int32(pop())
		pushBool(a <= b)
	case wasm.OpI32LeU:
		b, a := uint32(pop()), uint32(pop())
		pushBool(a <= b)
	case wasm.OpI32GeS:
		b, a := int32(pop()), int32(pop())
		pushBool(a >= b)
	case wasm.OpI32GeU:
		b, a := uint32(pop()), uint32(pop())
		pushBool(a >= b)

	// i64 comparisons
	case wasm.OpI64Eqz:
		pushBool(pop() == 0)
	case wasm.OpI64Eq:
		b, a := pop(), pop()
		pushBool(a == b)
	case wasm.OpI64Ne:
		b, a := pop(), pop()
		pushBool(a != b)
	case wasm.OpI64LtS:
		b, a := int64(pop()), int64(pop())
		pushBool(a < b)
	case wasm.OpI64LtU:
		b, a := pop(), pop()
		pushBool(a < b)
	case wasm.OpI64GtS:
		b, a := int64(pop()), int64(pop())
		pushBool(a > b)
	case wasm.OpI64GtU:
		b, a := pop(), pop()
		pushBool(a > b)
	case wasm.OpI64LeS:
		b, a := int64(pop()), int64(pop())
		pushBool(a <= b)
	case wasm.OpI64LeU:
		b, a := pop(), pop()
		pushBool(a <= b)
	case wasm.OpI64GeS:
		b, a := int64(pop()), int64(pop())
		pushBool(a >= b)
	case wasm.OpI64GeU:
		b, a := pop(), pop()
		pushBool(a >= b)

	// f32/f64 comparisons
	case wasm.OpF32Eq, wasm.OpF32Ne, wasm.OpF32Lt, wasm.OpF32Gt, wasm.OpF32Le, wasm.OpF32Ge:
		b := math.Float32frombits(uint32(pop()))
		a := math.Float32frombits(uint32(pop()))
		pushBool(fcmp(op, float64(a), float64(b)))
	case wasm.OpF64Eq, wasm.OpF64Ne, wasm.OpF64Lt, wasm.OpF64Gt, wasm.OpF64Le, wasm.OpF64Ge:
		b := math.Float64frombits(pop())
		a := math.Float64frombits(pop())
		pushBool(fcmp(op, a, b))

	// i32 arithmetic
	case wasm.OpI32Clz:
		push(uint64(uint32(bits.LeadingZeros32(uint32(pop())))))
	case wasm.OpI32Ctz:
		push(uint64(uint32(bits.TrailingZeros32(uint32(pop())))))
	case wasm.OpI32Popcnt:
		push(uint64(uint32(bits.OnesCount32(uint32(pop())))))
	case wasm.OpI32Add:
		b, a := uint32(pop()), uint32(pop())
		push(uint64(a + b))
	case wasm.OpI32Sub:
		b, a := uint32(pop()), uint32(pop())
		push(uint64(a - b))
	case wasm.OpI32Mul:
		b, a := uint32(pop()), uint32(pop())
		push(uint64(a * b))
	case wasm.OpI32DivS:
		b, a := int32(pop()), int32(pop())
		if b == 0 {
			return 0, TrapDivideByZero
		}
		if a == math.MinInt32 && b == -1 {
			return 0, TrapIntegerOverflow
		}
		push(uint64(uint32(a / b)))
	case wasm.OpI32DivU:
		b, a := uint32(pop()), uint32(pop())
		if b == 0 {
			return 0, TrapDivideByZero
		}
		push(uint64(a / b))
	case wasm.OpI32RemS:
		b, a := int32(pop()), int32(pop())
		if b == 0 {
			return 0, TrapDivideByZero
		}
		if a == math.MinInt32 && b == -1 {
			push(0)
		} else {
			push(uint64(uint32(a % b)))
		}
	case wasm.OpI32RemU:
		b, a := uint32(pop()), uint32(pop())
		if b == 0 {
			return 0, TrapDivideByZero
		}
		push(uint64(a % b))
	case wasm.OpI32And:
		b, a := uint32(pop()), uint32(pop())
		push(uint64(a & b))
	case wasm.OpI32Or:
		b, a := uint32(pop()), uint32(pop())
		push(uint64(a | b))
	case wasm.OpI32Xor:
		b, a := uint32(pop()), uint32(pop())
		push(uint64(a ^ b))
	case wasm.OpI32Shl:
		b, a := uint32(pop()), uint32(pop())
		push(uint64(a << (b & 31)))
	case wasm.OpI32ShrS:
		b, a := uint32(pop()), int32(pop())
		push(uint64(uint32(a >> (b & 31))))
	case wasm.OpI32ShrU:
		b, a := uint32(pop()), uint32(pop())
		push(uint64(a >> (b & 31)))
	case wasm.OpI32Rotl:
		b, a := uint32(pop()), uint32(pop())
		push(uint64(bits.RotateLeft32(a, int(b&31))))
	case wasm.OpI32Rotr:
		b, a := uint32(pop()), uint32(pop())
		push(uint64(bits.RotateLeft32(a, -int(b&31))))

	// i64 arithmetic
	case wasm.OpI64Clz:
		push(uint64(bits.LeadingZeros64(pop())))
	case wasm.OpI64Ctz:
		push(uint64(bits.TrailingZeros64(pop())))
	case wasm.OpI64Popcnt:
		push(uint64(bits.OnesCount64(pop())))
	case wasm.OpI64Add:
		b, a := pop(), pop()
		push(a + b)
	case wasm.OpI64Sub:
		b, a := pop(), pop()
		push(a - b)
	case wasm.OpI64Mul:
		b, a := pop(), pop()
		push(a * b)
	case wasm.OpI64DivS:
		b, a := int64(pop()), int64(pop())
		if b == 0 {
			return 0, TrapDivideByZero
		}
		if a == math.MinInt64 && b == -1 {
			return 0, TrapIntegerOverflow
		}
		push(uint64(a / b))
	case wasm.OpI64DivU:
		b, a := pop(), pop()
		if b == 0 {
			return 0, TrapDivideByZero
		}
		push(a / b)
	case wasm.OpI64RemS:
		b, a := int64(pop()), int64(pop())
		if b == 0 {
			return 0, TrapDivideByZero
		}
		if a == math.MinInt64 && b == -1 {
			push(0)
		} else {
			push(uint64(a % b))
		}
	case wasm.OpI64RemU:
		b, a := pop(), pop()
		if b == 0 {
			return 0, TrapDivideByZero
		}
		push(a % b)
	case wasm.OpI64And:
		b, a := pop(), pop()
		push(a & b)
	case wasm.OpI64Or:
		b, a := pop(), pop()
		push(a | b)
	case wasm.OpI64Xor:
		b, a := pop(), pop()
		push(a ^ b)
	case wasm.OpI64Shl:
		b, a := pop(), pop()
		push(a << (b & 63))
	case wasm.OpI64ShrS:
		b, a := pop(), int64(pop())
		push(uint64(a >> (b & 63)))
	case wasm.OpI64ShrU:
		b, a := pop(), pop()
		push(a >> (b & 63))
	case wasm.OpI64Rotl:
		b, a := pop(), pop()
		push(bits.RotateLeft64(a, int(b&63)))
	case wasm.OpI64Rotr:
		b, a := pop(), pop()
		push(bits.RotateLeft64(a, -int(b&63)))

	// f32 arithmetic
	case wasm.OpF32Abs, wasm.OpF32Neg, wasm.OpF32Ceil, wasm.OpF32Floor,
		wasm.OpF32Trunc, wasm.OpF32Nearest, wasm.OpF32Sqrt:
		a := float64(math.Float32frombits(uint32(pop())))
		push(f32bits(float32(funary(op, a))))
	case wasm.OpF32Add, wasm.OpF32Sub, wasm.OpF32Mul, wasm.OpF32Div,
		wasm.OpF32Min, wasm.OpF32Max, wasm.OpF32Copysign:
		b := float64(math.Float32frombits(uint32(pop())))
		a := float64(math.Float32frombits(uint32(pop())))
		push(f32bits(float32(fbinary(op, a, b))))

	// f64 arithmetic
	case wasm.OpF64Abs, wasm.OpF64Neg, wasm.OpF64Ceil, wasm.OpF64Floor,
		wasm.OpF64Trunc, wasm.OpF64Nearest, wasm.OpF64Sqrt:
		a := math.Float64frombits(pop())
		push(f64bits(funary(op, a)))
	case wasm.OpF64Add, wasm.OpF64Sub, wasm.OpF64Mul, wasm.OpF64Div,
		wasm.OpF64Min, wasm.OpF64Max, wasm.OpF64Copysign:
		b := math.Float64frombits(pop())
		a := math.Float64frombits(pop())
		push(f64bits(fbinary(op, a, b)))

	// conversions
	case wasm.OpI32WrapI64:
		push(uint64(uint32(pop())))
	case wasm.OpI64ExtendI32S:
		push(uint64(int64(int32(uint32(pop())))))
	case wasm.OpI64ExtendI32U:
		push(uint64(uint32(pop())))
	case wasm.OpI32TruncF32S, wasm.OpI32TruncF64S:
		f := popFloat(op, &stack)
		if !(f > -2147483649 && f < 2147483648) { // NaN fails both
			return 0, truncTrap(f)
		}
		push(uint64(uint32(int32(f))))
	case wasm.OpI32TruncF32U, wasm.OpI32TruncF64U:
		f := popFloat(op, &stack)
		if !(f > -1 && f < 4294967296) {
			return 0, truncTrap(f)
		}
		push(uint64(uint32(f)))
	case wasm.OpI64TruncF32S, wasm.OpI64TruncF64S:
		f := popFloat(op, &stack)
		if !(f >= -9223372036854775808 && f < 9223372036854775808) {
			return 0, truncTrap(f)
		}
		push(uint64(int64(f)))
	case wasm.OpI64TruncF32U, wasm.OpI64TruncF64U:
		f := popFloat(op, &stack)
		if !(f > -1 && f < 18446744073709551616) {
			return 0, truncTrap(f)
		}
		push(uint64(f))
	case wasm.OpF32ConvertI32S:
		push(f32bits(float32(int32(uint32(pop())))))
	case wasm.OpF32ConvertI32U:
		push(f32bits(float32(uint32(pop()))))
	case wasm.OpF32ConvertI64S:
		push(f32bits(float32(int64(pop()))))
	case wasm.OpF32ConvertI64U:
		push(f32bits(float32(pop())))
	case wasm.OpF32DemoteF64:
		push(f32bits(float32(math.Float64frombits(pop()))))
	case wasm.OpF64ConvertI32S:
		push(f64bits(float64(int32(uint32(pop())))))
	case wasm.OpF64ConvertI32U:
		push(f64bits(float64(uint32(pop()))))
	case wasm.OpF64ConvertI64S:
		push(f64bits(float64(int64(pop()))))
	case wasm.OpF64ConvertI64U:
		push(f64bits(float64(pop())))
	case wasm.OpF64PromoteF32:
		push(f64bits(float64(math.Float32frombits(uint32(pop())))))
	case wasm.OpI32ReinterpretF32, wasm.OpI64ReinterpretF64,
		wasm.OpF32ReinterpretI32, wasm.OpF64ReinterpretI64:
		// Raw-bits representation makes reinterpretation the identity,
		// except i32<-f32 must mask to 32 bits.
		v := pop()
		if op == wasm.OpI32ReinterpretF32 || op == wasm.OpF32ReinterpretI32 {
			v = uint64(uint32(v))
		}
		push(v)
	default:
		return 0, TrapHostError
	}
	return 0, 0
}

func popFloat(op wasm.Opcode, stack *[]uint64) float64 {
	s := *stack
	v := s[len(s)-1]
	*stack = s[:len(s)-1]
	switch op {
	case wasm.OpI32TruncF32S, wasm.OpI32TruncF32U, wasm.OpI64TruncF32S, wasm.OpI64TruncF32U:
		return float64(math.Float32frombits(uint32(v)))
	default:
		return math.Float64frombits(v)
	}
}

func truncTrap(f float64) TrapKind {
	if math.IsNaN(f) {
		return TrapInvalidConversion
	}
	return TrapIntegerOverflow
}

func fcmp(op wasm.Opcode, a, b float64) bool {
	switch op {
	case wasm.OpF32Eq, wasm.OpF64Eq:
		return a == b
	case wasm.OpF32Ne, wasm.OpF64Ne:
		return a != b
	case wasm.OpF32Lt, wasm.OpF64Lt:
		return a < b
	case wasm.OpF32Gt, wasm.OpF64Gt:
		return a > b
	case wasm.OpF32Le, wasm.OpF64Le:
		return a <= b
	default:
		return a >= b
	}
}

func funary(op wasm.Opcode, a float64) float64 {
	switch op {
	case wasm.OpF32Abs, wasm.OpF64Abs:
		return math.Abs(a)
	case wasm.OpF32Neg, wasm.OpF64Neg:
		return -a
	case wasm.OpF32Ceil, wasm.OpF64Ceil:
		return math.Ceil(a)
	case wasm.OpF32Floor, wasm.OpF64Floor:
		return math.Floor(a)
	case wasm.OpF32Trunc, wasm.OpF64Trunc:
		return math.Trunc(a)
	case wasm.OpF32Nearest, wasm.OpF64Nearest:
		return math.RoundToEven(a)
	default:
		return math.Sqrt(a)
	}
}

func fbinary(op wasm.Opcode, a, b float64) float64 {
	switch op {
	case wasm.OpF32Add, wasm.OpF64Add:
		return a + b
	case wasm.OpF32Sub, wasm.OpF64Sub:
		return a - b
	case wasm.OpF32Mul, wasm.OpF64Mul:
		return a * b
	case wasm.OpF32Div, wasm.OpF64Div:
		return a / b
	case wasm.OpF32Min, wasm.OpF64Min:
		return math.Min(a, b)
	case wasm.OpF32Max, wasm.OpF64Max:
		return math.Max(a, b)
	default:
		return math.Copysign(a, b)
	}
}
