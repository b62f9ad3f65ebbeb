package symexec

import (
	"testing"

	"repro/internal/symbolic"
	"repro/internal/wasm"
)

// applyOp pushes the (constant) operands and applies the opcode through the
// symbolic Table-3 semantics, returning the evaluated result.
func applyOp(t *testing.T, op wasm.Opcode, operands ...uint64) uint64 {
	t.Helper()
	r := &Replayer{ctx: symbolic.NewCtx()}
	var stack []*symbolic.Expr
	width := uint8(64)
	if opIs32(op) {
		width = 32
	}
	for _, v := range operands {
		stack = append(stack, r.ctx.Const(v, width))
	}
	popW := func(w uint8) *symbolic.Expr {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch {
		case e.Width == w:
			return e
		case e.Width > w:
			return r.ctx.Truncate(e, w)
		default:
			return r.ctx.ZExt(e, w)
		}
	}
	if err := r.applyNumeric(op, &stack, popW); err != nil {
		t.Fatalf("%s: %v", op.Name(), err)
	}
	if len(stack) != 1 {
		t.Fatalf("%s: stack depth %d after op", op.Name(), len(stack))
	}
	return symbolic.Eval(stack[0], nil)
}

func n64(v int64) uint64 { return uint64(v) }

func opIs32(op wasm.Opcode) bool {
	name := op.Name()
	return len(name) > 3 && name[:3] == "i32"
}

func TestApplyNumericSemantics(t *testing.T) {
	cases := []struct {
		op       wasm.Opcode
		operands []uint64
		want     uint64
	}{
		{wasm.OpI64Add, []uint64{40, 2}, 42},
		{wasm.OpI64Sub, []uint64{2, 40}, n64(-38)},
		{wasm.OpI64Mul, []uint64{6, 7}, 42},
		{wasm.OpI64DivU, []uint64{42, 5}, 8},
		{wasm.OpI64DivS, []uint64{n64(-42), 5}, n64(-8)},
		{wasm.OpI64RemU, []uint64{42, 5}, 2},
		{wasm.OpI64RemS, []uint64{n64(-42), 5}, n64(-2)},
		{wasm.OpI64And, []uint64{0xF0, 0x3C}, 0x30},
		{wasm.OpI64Or, []uint64{0xF0, 0x0F}, 0xFF},
		{wasm.OpI64Xor, []uint64{0xFF, 0x0F}, 0xF0},
		{wasm.OpI64Shl, []uint64{1, 8}, 256},
		{wasm.OpI64ShrU, []uint64{256, 8}, 1},
		{wasm.OpI64ShrS, []uint64{n64(-256), 8}, n64(-1)},
		{wasm.OpI64Rotl, []uint64{0x8000000000000000, 1}, 1},
		{wasm.OpI64Rotr, []uint64{1, 1}, 0x8000000000000000},
		{wasm.OpI64Popcnt, []uint64{0xFF}, 8},
		{wasm.OpI64Eqz, []uint64{0}, 1},
		{wasm.OpI64LtU, []uint64{1, 2}, 1},
		{wasm.OpI64LtS, []uint64{n64(-1), 0}, 1},
		{wasm.OpI64GtU, []uint64{2, 1}, 1},
		{wasm.OpI64GtS, []uint64{0, n64(-1)}, 1},
		{wasm.OpI64LeU, []uint64{2, 2}, 1},
		{wasm.OpI64LeS, []uint64{2, 1}, 0},
		{wasm.OpI64GeU, []uint64{2, 2}, 1},
		{wasm.OpI64GeS, []uint64{1, 2}, 0},
		{wasm.OpI32Add, []uint64{0xFFFFFFFF, 1}, 0},
		{wasm.OpI32Sub, []uint64{0, 1}, 0xFFFFFFFF},
		{wasm.OpI32Mul, []uint64{3, 5}, 15},
		{wasm.OpI32DivU, []uint64{7, 2}, 3},
		{wasm.OpI32DivS, []uint64{0xFFFFFFF9 /* -7 */, 2}, 0xFFFFFFFD},
		{wasm.OpI32RemU, []uint64{7, 4}, 3},
		{wasm.OpI32RemS, []uint64{0xFFFFFFF9, 4}, 0xFFFFFFFD},
		{wasm.OpI32And, []uint64{6, 3}, 2},
		{wasm.OpI32Or, []uint64{6, 3}, 7},
		{wasm.OpI32Xor, []uint64{6, 3}, 5},
		{wasm.OpI32Shl, []uint64{1, 31}, 0x80000000},
		{wasm.OpI32ShrU, []uint64{0x80000000, 31}, 1},
		{wasm.OpI32ShrS, []uint64{0x80000000, 31}, 0xFFFFFFFF},
		{wasm.OpI32Rotl, []uint64{0x80000000, 1}, 1},
		{wasm.OpI32Rotr, []uint64{1, 1}, 0x80000000},
		{wasm.OpI32Popcnt, []uint64{0xF0F0}, 8},
		{wasm.OpI32Eqz, []uint64{7}, 0},
		{wasm.OpI32Eq, []uint64{4, 4}, 1},
		{wasm.OpI32Ne, []uint64{4, 4}, 0},
		{wasm.OpI32LtU, []uint64{0xFFFFFFFF, 1}, 0},
		{wasm.OpI32LtS, []uint64{0xFFFFFFFF, 1}, 1},
		{wasm.OpI32GtU, []uint64{0xFFFFFFFF, 1}, 1},
		{wasm.OpI32GtS, []uint64{0xFFFFFFFF, 1}, 0},
		{wasm.OpI32LeU, []uint64{1, 1}, 1},
		{wasm.OpI32LeS, []uint64{2, 1}, 0},
		{wasm.OpI32GeU, []uint64{1, 2}, 0},
		{wasm.OpI32GeS, []uint64{1, 1}, 1},
	}
	for _, tc := range cases {
		got := applyOp(t, tc.op, tc.operands...)
		if got != tc.want {
			t.Errorf("%s(%v) = %#x, want %#x", tc.op.Name(), tc.operands, got, tc.want)
		}
	}
}

func TestApplyNumericConversions(t *testing.T) {
	r := &Replayer{ctx: symbolic.NewCtx()}
	popW := func(stack *[]*symbolic.Expr) func(uint8) *symbolic.Expr {
		return func(w uint8) *symbolic.Expr {
			e := (*stack)[len(*stack)-1]
			*stack = (*stack)[:len(*stack)-1]
			switch {
			case e.Width == w:
				return e
			case e.Width > w:
				return r.ctx.Truncate(e, w)
			default:
				return r.ctx.ZExt(e, w)
			}
		}
	}

	// i32.wrap_i64
	stack := []*symbolic.Expr{r.ctx.Const(0x1234567890ABCDEF, 64)}
	if err := r.applyNumeric(wasm.OpI32WrapI64, &stack, popW(&stack)); err != nil {
		t.Fatal(err)
	}
	if got := symbolic.Eval(stack[0], nil); got != 0x90ABCDEF {
		t.Errorf("wrap = %#x", got)
	}
	// i64.extend_i32_s
	stack = []*symbolic.Expr{r.ctx.Const(0x80000000, 32)}
	if err := r.applyNumeric(wasm.OpI64ExtendI32S, &stack, popW(&stack)); err != nil {
		t.Fatal(err)
	}
	if got := symbolic.Eval(stack[0], nil); got != 0xFFFFFFFF80000000 {
		t.Errorf("extend_s = %#x", got)
	}
	// Floats become opaque fresh variables of the right width.
	stack = []*symbolic.Expr{r.ctx.Const(0, 64), r.ctx.Const(0, 64)}
	if err := r.applyNumeric(wasm.OpF64Add, &stack, popW(&stack)); err != nil {
		t.Fatal(err)
	}
	if len(stack) != 1 || stack[0].Width != 64 {
		t.Errorf("f64.add result: depth %d width %d", len(stack), stack[0].Width)
	}
	// Float comparison yields an opaque 32-bit value.
	stack = []*symbolic.Expr{r.ctx.Const(0, 32), r.ctx.Const(0, 32)}
	if err := r.applyNumeric(wasm.OpF32Lt, &stack, popW(&stack)); err != nil {
		t.Fatal(err)
	}
	if len(stack) != 1 || stack[0].Width != 32 {
		t.Errorf("f32.lt result: depth %d width %d", len(stack), stack[0].Width)
	}
}
