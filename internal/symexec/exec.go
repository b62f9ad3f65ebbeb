package symexec

import (
	"errors"
	"fmt"

	"repro/internal/symbolic"
	"repro/internal/trace"
	"repro/internal/wasm"
)

// ctrlFrame mirrors the structured-control stack of the concrete VM.
type ctrlFrame struct {
	startPC   int
	endPC     int
	stackH    int
	isLoop    bool
	hasResult bool
}

// execFunc symbolically executes one function of the original module,
// consuming trace events for every non-deterministic step (Table 3).
func (r *Replayer) execFunc(fn uint32, locals []*symbolic.Expr) (results []*symbolic.Expr, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			results, err = nil, fmt.Errorf("symexec: func %d: %v", fn, rec)
		}
	}()
	code := r.mod.CodeFor(fn)
	if code == nil {
		return nil, fmt.Errorf("symexec: func %d has no body (import?)", fn)
	}
	meta, err := r.meta(fn)
	if err != nil {
		return nil, err
	}
	ft, err := r.mod.FuncTypeAt(fn)
	if err != nil {
		return nil, err
	}

	var (
		stack []*symbolic.Expr
		ctrl  []ctrlFrame
	)
	push := func(e *symbolic.Expr) { stack = append(stack, e) }
	pop := func() *symbolic.Expr {
		if len(stack) == 0 {
			panic("symbolic stack underflow")
		}
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return e
	}
	// popW pops and coerces to width w (robust against width drift from
	// zero-initialized locals).
	popW := func(w uint8) *symbolic.Expr {
		e := pop()
		switch {
		case e.Width == w:
			return e
		case e.Width > w:
			return r.ctx.Truncate(e, w)
		default:
			return r.ctx.ZExt(e, w)
		}
	}

	branchTo := func(d int) int {
		target := ctrl[len(ctrl)-1-d]
		if target.isLoop {
			stack = stack[:target.stackH]
			ctrl = ctrl[:len(ctrl)-d]
			return target.startPC + 1
		}
		var res *symbolic.Expr
		if target.hasResult && len(stack) > 0 {
			res = stack[len(stack)-1]
		}
		stack = stack[:target.stackH]
		if res != nil {
			stack = append(stack, res)
		}
		ctrl = ctrl[:len(ctrl)-1-d]
		return target.endPC + 1
	}

	takeResults := func() []*symbolic.Expr {
		n := len(ft.Results)
		if n == 0 || len(stack) < n {
			return nil
		}
		out := make([]*symbolic.Expr, n)
		copy(out, stack[len(stack)-n:])
		return out
	}

	body := code.Body
	pc := 0
	for pc < len(body) {
		if r.steps++; r.steps > r.maxSteps {
			return nil, fmt.Errorf("symexec: step budget exceeded (%d)", r.maxSteps)
		}
		in := body[pc]
		switch {
		case in.Op == wasm.OpUnreachable:
			// The concrete run trapped here; the trace ends.
			return nil, errTraceEnd

		case in.Op == wasm.OpNop:

		case in.Op == wasm.OpBlock, in.Op == wasm.OpLoop:
			ctrl = append(ctrl, ctrlFrame{
				startPC: pc, endPC: meta.EndOf[pc], stackH: len(stack),
				isLoop: in.Op == wasm.OpLoop, hasResult: in.A != wasm.BlockTypeEmpty,
			})

		case in.Op == wasm.OpIf:
			ev, err := r.expect(trace.HookCond, fn, pc)
			if err != nil {
				return nil, err
			}
			cond := pop()
			taken := ev.Operand != 0
			r.conds = append(r.conds, CondState{
				Kind: CondBranch, Cond: cond, Taken: taken, Func: fn, PC: pc,
			})
			endPC := meta.EndOf[pc]
			elsePC := meta.ElseOf[pc]
			if taken {
				ctrl = append(ctrl, ctrlFrame{startPC: pc, endPC: endPC, stackH: len(stack), hasResult: in.A != wasm.BlockTypeEmpty})
			} else if elsePC != endPC {
				ctrl = append(ctrl, ctrlFrame{startPC: pc, endPC: endPC, stackH: len(stack), hasResult: in.A != wasm.BlockTypeEmpty})
				pc = elsePC + 1
				continue
			} else {
				pc = endPC + 1
				continue
			}

		case in.Op == wasm.OpElse:
			pc = ctrl[len(ctrl)-1].endPC
			continue

		case in.Op == wasm.OpEnd:
			if pc == len(body)-1 {
				if _, err := r.expectLabel(trace.HookFuncEnd, fn); err != nil {
					return nil, err
				}
				return takeResults(), nil
			}
			if len(ctrl) > 0 {
				ctrl = ctrl[:len(ctrl)-1]
			}

		case in.Op == wasm.OpBr:
			pc = branchTo(int(in.A))
			continue

		case in.Op == wasm.OpBrIf:
			ev, err := r.expect(trace.HookCond, fn, pc)
			if err != nil {
				return nil, err
			}
			cond := pop()
			taken := ev.Operand != 0
			r.conds = append(r.conds, CondState{
				Kind: CondBranch, Cond: cond, Taken: taken, Func: fn, PC: pc,
			})
			if taken {
				pc = branchTo(int(in.A))
				continue
			}

		case in.Op == wasm.OpBrTable:
			ev, err := r.expect(trace.HookBrTable, fn, pc)
			if err != nil {
				return nil, err
			}
			idx := pop()
			r.conds = append(r.conds, CondState{
				Kind: CondBrTable, Cond: idx, Index: ev.Operand,
				NumTargets: len(in.Table) + 1, Func: fn, PC: pc,
			})
			d := in.A
			if int(ev.Operand) < len(in.Table) {
				d = in.Table[ev.Operand]
			}
			pc = branchTo(int(d))
			continue

		case in.Op == wasm.OpReturn:
			if _, err := r.expectLabel(trace.HookFuncEnd, fn); err != nil {
				return nil, err
			}
			return takeResults(), nil

		case in.Op == wasm.OpCall, in.Op == wasm.OpCallIndirect:
			if in.Op == wasm.OpCallIndirect {
				pop() // table index expression; resolution comes from the trace
			}
			if _, err := r.expect(trace.HookCallPre, fn, pc); err != nil {
				return nil, err
			}
			callEv, err := r.expect(trace.HookCall, fn, pc)
			if err != nil {
				return nil, err
			}
			callee := uint32(callEv.Operand)
			if err := r.doCall(fn, pc, callee, &stack); err != nil {
				return nil, err
			}

		case in.Op == wasm.OpDrop:
			pop()

		case in.Op == wasm.OpSelect:
			c := popW(32)
			b := pop()
			a := pop()
			if b.Width != a.Width {
				if b.Width < a.Width {
					b = r.ctx.ZExt(b, a.Width)
				} else {
					a = r.ctx.ZExt(a, b.Width)
				}
			}
			push(r.ctx.Ite(r.ctx.Bool(c), a, b))

		case in.Op == wasm.OpLocalGet:
			push(locals[in.A])
		case in.Op == wasm.OpLocalSet:
			locals[in.A] = pop()
		case in.Op == wasm.OpLocalTee:
			locals[in.A] = stack[len(stack)-1]
		case in.Op == wasm.OpGlobalGet:
			push(r.globals[in.A])
		case in.Op == wasm.OpGlobalSet:
			r.globals[in.A] = pop()

		case in.Op == wasm.OpI32Const:
			push(r.ctx.Const(uint64(uint32(in.I32())), 32))
		case in.Op == wasm.OpI64Const:
			push(r.ctx.Const(in.Imm, 64))
		case in.Op == wasm.OpF32Const:
			push(r.ctx.Const(in.Imm, 32))
		case in.Op == wasm.OpF64Const:
			push(r.ctx.Const(in.Imm, 64))

		case in.Op == wasm.OpMemorySize:
			// Table 3: balance the stack with the constant 4096.
			push(r.ctx.Const(4096, 32))
		case in.Op == wasm.OpMemoryGrow:
			pop()
			push(r.ctx.Const(4096, 32))

		case in.Op.IsLoad():
			ev, err := r.expect(trace.HookMem, fn, pc)
			if err != nil {
				return nil, err
			}
			pop() // symbolic address expression; the model uses the concrete one
			addr := uint32(ev.Operand) + in.B
			val, err := r.mem.LoadOp(in.Op, addr)
			if err != nil {
				return nil, err
			}
			push(val)

		case in.Op.IsStore():
			ev, err := r.expect(trace.HookMem, fn, pc)
			if err != nil {
				return nil, err
			}
			val := pop()
			pop() // symbolic address
			addr := uint32(ev.Operand) + in.B
			if err := r.mem.StoreOp(in.Op, addr, val); err != nil {
				return nil, err
			}

		case in.Op == wasm.OpI64Eq || in.Op == wasm.OpI64Ne:
			// Two HookCmp events carry the concrete operands for the
			// guard-code detector; the symbolic result comes from μ.
			if _, err := r.expect(trace.HookCmp, fn, pc); err != nil {
				return nil, err
			}
			if _, err := r.expect(trace.HookCmp, fn, pc); err != nil {
				return nil, err
			}
			b := popW(64)
			a := popW(64)
			res := r.ctx.Eq(a, b)
			if in.Op == wasm.OpI64Ne {
				res = r.ctx.BoolNot(res)
			}
			push(r.ctx.FromBool(res, 32))

		default:
			if err := r.applyNumeric(in.Op, &stack, popW); err != nil {
				return nil, err
			}
		}
		pc++
	}
	// Fell off the end without an explicit final End (cannot happen for
	// decoded bodies, which are End-terminated).
	return takeResults(), nil
}

// expectLabel consumes a label event (function_begin/function_end) for fn.
func (r *Replayer) expectLabel(kind trace.HookKind, fn uint32) (trace.Event, error) {
	ev, err := r.next()
	if err != nil {
		return ev, err
	}
	if ev.Kind != kind || ev.Func != fn {
		return ev, fmt.Errorf("symexec: trace desync: want %s(func %d), got %s(func %d, pc %d)",
			kind, fn, ev.Kind, ev.Func, ev.PC)
	}
	return ev, nil
}

// doCall handles both host and local callees at call site (fn, pc).
func (r *Replayer) doCall(fn uint32, pc int, callee uint32, stack *[]*symbolic.Expr) error {
	ft, err := r.mod.FuncTypeAt(callee)
	if err != nil {
		return err
	}
	// Pop arguments (last parameter on top).
	n := len(ft.Params)
	s := *stack
	if len(s) < n {
		return fmt.Errorf("symexec: stack underflow calling func %d", callee)
	}
	args := make([]*symbolic.Expr, n)
	copy(args, s[len(s)-n:])
	*stack = s[:len(s)-n]

	if int(callee) < r.numImports {
		return r.doHostCall(fn, pc, callee, args, stack)
	}

	// Local callee: its begin label, parameter duplication and body events
	// follow in the trace (Table 3's call_pre/function_begin).
	if _, err := r.expectLabel(trace.HookFuncBegin, callee); err != nil {
		return err
	}
	calleeFt, err := r.mod.FuncTypeAt(callee)
	if err != nil {
		return err
	}
	// Consume the HookParam duplications.
	for i := 0; i < len(calleeFt.Params); i++ {
		ev, err := r.next()
		if err != nil {
			return err
		}
		if ev.Kind != trace.HookParam {
			return fmt.Errorf("symexec: want param event for func %d, got %s", callee, ev.Kind)
		}
	}
	code := r.mod.CodeFor(callee)
	if code == nil {
		return fmt.Errorf("symexec: callee %d has no body", callee)
	}
	locals := make([]*symbolic.Expr, len(calleeFt.Params)+int(code.NumLocals()))
	copy(locals, args)
	zero := r.ctx.Const(0, 64)
	for i := len(args); i < len(locals); i++ {
		locals[i] = zero
	}
	results, err := r.execFunc(callee, locals)
	if err != nil {
		return err
	}
	// call_post at the caller.
	if _, err := r.expect(trace.HookCallPost, fn, pc); err != nil {
		return err
	}
	*stack = append(*stack, results...)
	return nil
}

// hostName returns the import name of an imported function index.
func (r *Replayer) hostName(callee uint32) string {
	imp, ok := r.mod.ImportedFunc(int(callee))
	if !ok {
		return ""
	}
	return imp.Name
}

// doHostCall models library-API calls: returns come from the call_post
// event, and eosio_assert contributes an assertion conditional state.
func (r *Replayer) doHostCall(fn uint32, pc int, callee uint32, args []*symbolic.Expr, stack *[]*symbolic.Expr) error {
	name := r.hostName(callee)
	if name == "eosio_assert" && len(args) > 0 {
		r.conds = append(r.conds, CondState{
			Kind: CondAssert, Cond: args[0], Taken: true, Func: fn, PC: pc,
		})
	}
	ft, err := r.mod.FuncTypeAt(callee)
	if err != nil {
		return err
	}
	ev, err := r.expect(trace.HookCallPost, fn, pc)
	if err != nil {
		if errors.Is(err, errTraceEnd) && name == "eosio_assert" {
			// The assert failed and aborted the transaction: the recorded
			// conditional took the unsatisfied direction.
			r.conds[len(r.conds)-1].Taken = false
		}
		return err
	}
	if len(ft.Results) > 0 {
		*stack = append(*stack, r.ctx.Const(ev.Operand, widthOf(ft.Results[0])))
	}
	return nil
}
