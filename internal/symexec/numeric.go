package symexec

import (
	"fmt"

	"repro/internal/symbolic"
	"repro/internal/wasm"
)

// applyNumeric lifts a pure numeric/comparison/conversion opcode into the
// symbolic domain (Table 3's unary/binary rows). Floating-point results are
// opaque fresh variables: EOSIO contracts do not branch on float inputs in
// the workloads WASAI targets, and the paper's constraint language is
// bitvectors.
func (r *Replayer) applyNumeric(op wasm.Opcode, stack *[]*symbolic.Expr, popW func(uint8) *symbolic.Expr) error {
	c := r.ctx
	push := func(e *symbolic.Expr) { *stack = append(*stack, e) }
	pushBool := func(b *symbolic.Expr, w uint8) { push(c.FromBool(b, 32)); _ = w }

	bin64 := func(f func(a, b *symbolic.Expr) *symbolic.Expr) {
		b := popW(64)
		a := popW(64)
		push(f(a, b))
	}
	bin32 := func(f func(a, b *symbolic.Expr) *symbolic.Expr) {
		b := popW(32)
		a := popW(32)
		push(f(a, b))
	}
	cmp64 := func(f func(a, b *symbolic.Expr) *symbolic.Expr) {
		b := popW(64)
		a := popW(64)
		pushBool(f(a, b), 32)
	}
	cmp32 := func(f func(a, b *symbolic.Expr) *symbolic.Expr) {
		b := popW(32)
		a := popW(32)
		pushBool(f(a, b), 32)
	}

	switch op {
	// i32 comparisons
	case wasm.OpI32Eqz:
		pushBool(c.Eq(popW(32), c.Const(0, 32)), 32)
	case wasm.OpI32Eq:
		cmp32(c.Eq)
	case wasm.OpI32Ne:
		cmp32(c.Ne)
	case wasm.OpI32LtS:
		cmp32(c.Slt)
	case wasm.OpI32LtU:
		cmp32(c.Ult)
	case wasm.OpI32GtS:
		cmp32(c.Sgt)
	case wasm.OpI32GtU:
		cmp32(c.Ugt)
	case wasm.OpI32LeS:
		cmp32(c.Sle)
	case wasm.OpI32LeU:
		cmp32(c.Ule)
	case wasm.OpI32GeS:
		cmp32(c.Sge)
	case wasm.OpI32GeU:
		cmp32(c.Uge)

	// i64 comparisons (i64.eq / i64.ne are handled at the call site to
	// consume their HookCmp events)
	case wasm.OpI64Eqz:
		pushBool(c.Eq(popW(64), c.Const(0, 64)), 32)
	case wasm.OpI64LtS:
		cmp64(c.Slt)
	case wasm.OpI64LtU:
		cmp64(c.Ult)
	case wasm.OpI64GtS:
		cmp64(c.Sgt)
	case wasm.OpI64GtU:
		cmp64(c.Ugt)
	case wasm.OpI64LeS:
		cmp64(c.Sle)
	case wasm.OpI64LeU:
		cmp64(c.Ule)
	case wasm.OpI64GeS:
		cmp64(c.Sge)
	case wasm.OpI64GeU:
		cmp64(c.Uge)

	// i32 arithmetic
	case wasm.OpI32Add:
		bin32(c.Add)
	case wasm.OpI32Sub:
		bin32(c.Sub)
	case wasm.OpI32Mul:
		bin32(c.Mul)
	case wasm.OpI32DivS:
		bin32(c.SDiv)
	case wasm.OpI32DivU:
		bin32(c.UDiv)
	case wasm.OpI32RemS:
		bin32(c.SRem)
	case wasm.OpI32RemU:
		bin32(c.URem)
	case wasm.OpI32And:
		bin32(c.And)
	case wasm.OpI32Or:
		bin32(c.Or)
	case wasm.OpI32Xor:
		bin32(c.Xor)
	case wasm.OpI32Shl:
		bin32(c.Shl)
	case wasm.OpI32ShrS:
		bin32(c.Ashr)
	case wasm.OpI32ShrU:
		bin32(c.Lshr)
	case wasm.OpI32Rotl:
		bin32(c.Rotl)
	case wasm.OpI32Rotr:
		bin32(c.Rotr)
	case wasm.OpI32Popcnt:
		push(c.Popcount(popW(32)))
	case wasm.OpI32Clz, wasm.OpI32Ctz:
		// Rarely input-dependent; model as opaque.
		popW(32)
		push(c.Fresh("clz32", 32))

	// i64 arithmetic
	case wasm.OpI64Add:
		bin64(c.Add)
	case wasm.OpI64Sub:
		bin64(c.Sub)
	case wasm.OpI64Mul:
		bin64(c.Mul)
	case wasm.OpI64DivS:
		bin64(c.SDiv)
	case wasm.OpI64DivU:
		bin64(c.UDiv)
	case wasm.OpI64RemS:
		bin64(c.SRem)
	case wasm.OpI64RemU:
		bin64(c.URem)
	case wasm.OpI64And:
		bin64(c.And)
	case wasm.OpI64Or:
		bin64(c.Or)
	case wasm.OpI64Xor:
		bin64(c.Xor)
	case wasm.OpI64Shl:
		bin64(c.Shl)
	case wasm.OpI64ShrS:
		bin64(c.Ashr)
	case wasm.OpI64ShrU:
		bin64(c.Lshr)
	case wasm.OpI64Rotl:
		bin64(c.Rotl)
	case wasm.OpI64Rotr:
		bin64(c.Rotr)
	case wasm.OpI64Popcnt:
		push(c.Popcount(popW(64)))
	case wasm.OpI64Clz, wasm.OpI64Ctz:
		popW(64)
		push(c.Fresh("clz64", 64))

	// conversions
	case wasm.OpI32WrapI64:
		push(c.Truncate(popW(64), 32))
	case wasm.OpI64ExtendI32S:
		push(c.SExt(popW(32), 64))
	case wasm.OpI64ExtendI32U:
		push(c.ZExt(popW(32), 64))
	case wasm.OpI32ReinterpretF32, wasm.OpF32ReinterpretI32:
		push(popW(32))
	case wasm.OpI64ReinterpretF64, wasm.OpF64ReinterpretI64:
		push(popW(64))

	default:
		// Floating-point operations and float<->int conversions: opaque.
		imm, known := op.Imm()
		if !known || imm != wasm.ImmNone {
			return fmt.Errorf("symexec: unhandled opcode %s", op.Name())
		}
		arity, width := floatArity(op)
		if arity == 0 {
			return fmt.Errorf("symexec: unhandled opcode %s", op.Name())
		}
		for i := 0; i < arity; i++ {
			if len(*stack) == 0 {
				return fmt.Errorf("symexec: stack underflow at %s", op.Name())
			}
			*stack = (*stack)[:len(*stack)-1]
		}
		push(c.Fresh("fp", width))
	}
	return nil
}

// floatArity returns operand count and result width for float-family
// opcodes (0 arity marks opcodes this function does not cover).
func floatArity(op wasm.Opcode) (int, uint8) {
	switch {
	case op >= wasm.OpF32Eq && op <= wasm.OpF64Ge:
		return 2, 32 // comparison result is i32
	case op >= wasm.OpF32Abs && op <= wasm.OpF32Sqrt:
		return 1, 32
	case op >= wasm.OpF32Add && op <= wasm.OpF32Copysign:
		return 2, 32
	case op >= wasm.OpF64Abs && op <= wasm.OpF64Sqrt:
		return 1, 64
	case op >= wasm.OpF64Add && op <= wasm.OpF64Copysign:
		return 2, 64
	case op >= wasm.OpI32TruncF32S && op <= wasm.OpI32TruncF64U:
		return 1, 32
	case op >= wasm.OpI64TruncF32S && op <= wasm.OpI64TruncF64U:
		return 1, 64
	case op >= wasm.OpF32ConvertI32S && op <= wasm.OpF32DemoteF64:
		return 1, 32
	case op >= wasm.OpF64ConvertI32S && op <= wasm.OpF64PromoteF32:
		return 1, 64
	default:
		return 0, 0
	}
}
