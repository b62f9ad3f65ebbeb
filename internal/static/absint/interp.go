package absint

import (
	"fmt"

	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// Per-run exploration budgets. Generated and wild contracts stay orders of
// magnitude below these; hitting any of them marks the run incomplete,
// which soundly degrades every universally-quantified claim to Unknown.
const (
	maxPaths = 4096
	maxSteps = 1 << 20
	maxDepth = 64
)

// engine holds the per-module immutable context shared by every run.
type engine struct {
	mod     *wasm.Module
	ir      *exec.IRView
	nImp    int
	nFunc   int
	impName []string // import index -> host function name
	nParams []int    // func index -> parameter count
	nRes    []int    // func index -> result count
	table   []int64  // resolved element table (-1 = unset)
	tableOK bool
	memMin  uint64 // initial linear memory size in bytes
	apply   int64  // exported apply func index, -1 if unusable
	start   int64  // start func index, -1 if none
}

func newEngine(mod *wasm.Module) (*engine, error) {
	e := &engine{
		mod:   mod,
		ir:    exec.IRFor(mod),
		nImp:  mod.NumImportedFuncs(),
		nFunc: mod.NumFuncs(),
		apply: -1,
		start: -1,
	}
	e.impName = make([]string, e.nImp)
	for i := 0; i < e.nImp; i++ {
		imp, ok := mod.ImportedFunc(i)
		if !ok {
			return nil, fmt.Errorf("absint: import %d missing", i)
		}
		e.impName[i] = imp.Name
	}
	e.nParams = make([]int, e.nFunc)
	e.nRes = make([]int, e.nFunc)
	for i := 0; i < e.nFunc; i++ {
		ft, err := mod.FuncTypeAt(uint32(i))
		if err != nil {
			return nil, err
		}
		e.nParams[i] = len(ft.Params)
		e.nRes[i] = len(ft.Results)
	}
	e.resolveTable()
	e.resolveMemory()
	if idx, ok := mod.ExportedFunc("apply"); ok && int(idx) < e.nFunc {
		if ft, err := mod.FuncTypeAt(idx); err == nil &&
			len(ft.Params) == 3 && ft.Params[0] == wasm.I64 && ft.Params[1] == wasm.I64 && ft.Params[2] == wasm.I64 {
			e.apply = int64(idx)
		}
	}
	if mod.Start != nil && int(*mod.Start) < e.nFunc {
		e.start = int64(*mod.Start)
	}
	return e, nil
}

// resolveTable materializes table 0 from constant-offset element segments.
// Anything dynamic (non-const offsets, missing table) leaves tableOK false
// and every call_indirect unresolvable.
func (e *engine) resolveTable() {
	if len(e.mod.Tables) == 0 {
		e.tableOK = len(e.mod.Elems) == 0
		return
	}
	size := int(e.mod.Tables[0].Limits.Min)
	if size < 0 || size > 1<<16 {
		return
	}
	e.table = make([]int64, size)
	for i := range e.table {
		e.table[i] = -1
	}
	for _, seg := range e.mod.Elems {
		if seg.TableIndex != 0 || len(seg.Offset) != 1 || seg.Offset[0].Op != wasm.OpI32Const {
			return
		}
		base := int(int32(uint32(seg.Offset[0].Imm)))
		if base < 0 || base+len(seg.Funcs) > size {
			return
		}
		for i, fi := range seg.Funcs {
			if int(fi) >= e.nFunc {
				return
			}
			e.table[base+i] = int64(fi)
		}
	}
	e.tableOK = true
}

func (e *engine) resolveMemory() {
	if len(e.mod.Memories) > 0 {
		e.memMin = uint64(e.mod.Memories[0].Limits.Min) * uint64(exec.PageSize)
		return
	}
	for _, imp := range e.mod.Imports {
		if imp.Kind == wasm.ExternalMemory {
			e.memMin = uint64(imp.Memory.Limits.Min) * uint64(exec.PageSize)
			return
		}
	}
}

// initGlobals returns the per-path initial global values: immutable
// constant globals keep their value; everything mutable is Unknown, because
// the contract instance persists across the campaign's transactions and a
// previous action may have rewritten it.
func (e *engine) initGlobals() []Value {
	gs := make([]Value, len(e.mod.Globals))
	for i, g := range e.mod.Globals {
		if !g.Type.Mutable && len(g.Init) == 1 &&
			(g.Init[0].Op == wasm.OpI32Const || g.Init[0].Op == wasm.OpI64Const) {
			gs[i] = exact(g.Init[0].Imm)
		} else {
			gs[i] = unknown()
		}
	}
	return gs
}

// Step is one branch decision of a replayable witness path.
type Step struct {
	Func  uint32 `json:"func"`
	PC    uint32 `json:"pc"` // source pc (original body index)
	Taken bool   `json:"taken"`
}

// memKey addresses one exact-width store in the per-path memory overlay.
type memKey struct {
	addr  uint64
	width uint8
}

// state is one abstract execution path: field refinements, memory overlay,
// and the oracle-relevant facts accumulated so far.
type state struct {
	fields  [numFields]fieldDom
	globals []Value
	mem     map[memKey]Value

	payloadBase uint64
	payloadOK   bool

	authSeen bool
	entered  []bool
	firstInd int64 // first call_indirect callee on this path (-1 = none yet)

	hitTapos        bool
	hitSendInline   bool
	hitSend         bool
	hitEffectNoAuth bool
	guardDef        bool
	reqRecip        bool

	trail []Step
	assum []assumption
}

func (st *state) clone() *state {
	c := &state{}
	*c = *st
	for i := range c.fields {
		c.fields[i] = st.fields[i].clone()
	}
	c.globals = append([]Value(nil), st.globals...)
	c.mem = make(map[memKey]Value, len(st.mem))
	for k, v := range st.mem {
		c.mem[k] = v
	}
	c.entered = append([]bool(nil), st.entered...)
	c.trail = append([]Step(nil), st.trail...)
	c.assum = append([]assumption(nil), st.assum...)
	return c
}

// frac returns the fraction of the harness draw space the path's field
// refinements retain, the admissibility measure for witness assumptions.
func (r *run) frac(st *state) float64 {
	p := 1.0
	for f := FieldID(1); f < numFields; f++ {
		fs := &r.sc.fields[f]
		if fs.pinned || (r.witness && fs.witnessPin) {
			continue
		}
		p *= fs.space.fracAfter(st.fields[f])
	}
	return p
}

// coverAgg accumulates what a cover run proves about a scenario.
type coverAgg struct {
	complete        bool
	paths           int
	entered         []bool         // union over paths
	firstInds       map[int64]bool // per-path first indirect callee (-1 = none)
	anyTapos        bool
	anySendInline   bool
	anySend         bool
	anyEffectNoAuth bool
	anyReqRecip     bool
	guardPossible   bool
	guardAllOK      bool // ∀ paths: (entered fStar || sent) → definite guard cmp
	condSeen        map[uint64]uint8
}

// run is one traversal of one scenario: cover mode enumerates every path
// (complete-or-Unknown), witness mode follows only definite or admissibly
// assumable edges toward a goal.
type run struct {
	e       *engine
	sc      scenario
	witness bool
	goal    func(*state) bool
	fStar   int64 // latched eosponser candidate for guard aggregation (-1 none)

	steps      int
	paths      int
	incomplete bool
	found      *state
	agg        coverAgg
}

type result struct {
	st      *state
	trapped bool
	vals    []Value
}

func (e *engine) newRun(sc scenario, witness bool, fStar int64, goal func(*state) bool) *run {
	return &run{
		e: e, sc: sc, witness: witness, fStar: fStar, goal: goal,
		agg: coverAgg{
			entered:    make([]bool, e.nFunc),
			firstInds:  map[int64]bool{},
			guardAllOK: true,
			condSeen:   map[uint64]uint8{},
		},
	}
}

func (e *engine) initState(r *run) *state {
	st := &state{
		globals:  e.initGlobals(),
		mem:      map[memKey]Value{},
		entered:  make([]bool, e.nFunc),
		firstInd: -1,
	}
	for f := FieldID(1); f < numFields; f++ {
		fs := &r.sc.fields[f]
		st.fields[f] = fs.cover.clone()
		if r.witness && fs.witnessPin {
			st.fields[f].lo, st.fields[f].hi = fs.witnessPinVal, fs.witnessPinVal
		}
	}
	return st
}

// execute runs the scenario from a root function with the given arguments.
func (r *run) execute(root int64, args []Value) {
	if root < 0 {
		r.incomplete = true
		return
	}
	st := r.e.initState(r)
	for _, res := range r.execFunc(uint32(root), args, st, 0) {
		r.finish(res.st, res.trapped)
	}
}

// finish folds one terminal path into the aggregates.
func (r *run) finish(st *state, trapped bool) {
	_ = trapped
	r.paths++
	for i, b := range st.entered {
		if b {
			r.agg.entered[i] = true
		}
	}
	r.agg.firstInds[st.firstInd] = true
	if r.fStar >= 0 {
		hitF := int(r.fStar) < len(st.entered) && st.entered[r.fStar]
		if (hitF || st.hitSend) && !st.guardDef {
			r.agg.guardAllOK = false
		}
	}
}

// abort abandons the current path as unsupported or over budget.
func (r *run) abort(st *state) []result {
	_ = st
	r.incomplete = true
	return nil
}

func (r *run) checkGoal(st *state) {
	if r.goal != nil && r.found == nil && r.goal(st) {
		r.found = st.clone()
	}
}

// execFunc abstractly executes one function body, returning every terminal
// outcome (returns and traps) reachable under the mode's edge policy.
func (r *run) execFunc(fi uint32, args []Value, st *state, depth int) []result {
	if r.found != nil {
		return nil
	}
	if depth > maxDepth {
		return r.abort(st)
	}
	if int(fi) < len(st.entered) {
		st.entered[fi] = true
		r.checkGoal(st)
	}
	fv := r.e.ir.Func(fi)
	if !fv.OK() {
		return r.abort(st)
	}
	locals := make([]Value, fv.NLocals())
	for i := range locals {
		if i < len(args) {
			locals[i] = args[i]
		} else {
			locals[i] = exact(0) // declared locals are zero-initialized
		}
	}
	return r.exec(fv, fi, 0, locals, make([]Value, 0, 16), st, depth)
}

func cloneFrame(locals, stk []Value) ([]Value, []Value) {
	l := append([]Value(nil), locals...)
	s := append([]Value(nil), stk...)
	return l, s
}

// branchRefine applies the refinement implied by taking cond==outcome on
// the given state, enforcing the assumption budget in witness mode.
// Reports whether the edge is feasible.
func (r *run) branchRefine(st *state, cond Value, outcome bool) bool {
	p, negp, ok := predOf(cond)
	if !ok {
		// No structure to refine on. Cover explores anyway; a witness
		// cannot guarantee the direction.
		return !r.witness
	}
	want := outcome != negp
	op := p.op
	if !want {
		op = op.negate()
	}
	// Only field-vs-exact shapes refine; everything else is explored
	// unrefined in cover mode and rejected in witness mode.
	a, b := p.a, p.b
	if a.kind == kExact && b.kind == kField {
		a, b = b, a
		op = mirrorCmp(op)
	}
	if a.kind != kField || b.kind != kExact {
		return !r.witness
	}
	fd := &st.fields[a.field]
	if !fd.refineCmp(op, b.c, a.mask, p.w32) {
		return false // contradiction: edge infeasible
	}
	if r.witness {
		fs := &r.sc.fields[a.field]
		if !fs.pinned && !fs.witnessPin {
			if r.frac(st) < minAssumeFrac {
				return false // assumption too narrow for the draw space
			}
			st.assum = append(st.assum, assumption{field: a.field,
				desc: fmt.Sprintf("%s %d (mask %#x)", cmpName(op), int64(b.c), a.mask)})
		}
	}
	return true
}

func mirrorCmp(op cmpOp) cmpOp {
	switch op {
	case cmpLtS:
		return cmpGtS
	case cmpLtU:
		return cmpGtU
	case cmpGtS:
		return cmpLtS
	case cmpGtU:
		return cmpLtU
	case cmpLeS:
		return cmpGeS
	case cmpLeU:
		return cmpGeU
	case cmpGeS:
		return cmpLeS
	case cmpGeU:
		return cmpLeU
	default:
		return op // eq/ne symmetric
	}
}

func cmpName(op cmpOp) string {
	switch op {
	case cmpEq:
		return "=="
	case cmpNe:
		return "!="
	case cmpLtS, cmpLtU:
		return "<"
	case cmpGtS, cmpGtU:
		return ">"
	case cmpLeS, cmpLeU:
		return "<="
	default:
		return ">="
	}
}

// predOf extracts the predicate structure of a value used as a condition.
func predOf(v Value) (p pred, negated, ok bool) {
	switch v.kind {
	case kBool:
		return *v.pred, v.neg, true
	case kField:
		// Branching directly on a (field & mask) value: truth is != 0.
		return pred{op: cmpNe, a: v, b: exact(0)}, false, true
	default:
		return pred{}, false, false
	}
}

// truth decides a branch condition under the state's refinements.
func (r *run) truth(st *state, v Value) (res, ok bool) {
	switch v.kind {
	case kExact:
		return v.c != 0, true
	case kBool:
		if res, ok = r.decidePred(st, *v.pred); ok {
			return res != v.neg, true
		}
	case kField:
		if res, ok = decideCmp(st.fields[v.field], v.mask, cmpNe, 0, false); ok {
			return res, true
		}
	}
	return false, false
}

// decidePred evaluates a predicate under the refinements in st.
func (r *run) decidePred(st *state, p pred) (res, ok bool) {
	a, b := r.resolve(st, p.a), r.resolve(st, p.b)
	if a.kind == kExact && b.kind == kExact {
		return evalCmp(p.op, a.c, b.c, p.w32), true
	}
	if a.kind == kField && b.kind == kExact {
		return decideCmp(st.fields[a.field], a.mask, p.op, b.c, p.w32)
	}
	if a.kind == kExact && b.kind == kField {
		return decideCmp(st.fields[b.field], b.mask, mirrorCmp(p.op), a.c, p.w32)
	}
	if a.kind == kField && b.kind == kField && a.field == b.field && a.mask == b.mask {
		switch p.op {
		case cmpEq, cmpLeS, cmpLeU, cmpGeS, cmpGeU:
			return true, true
		case cmpNe, cmpLtS, cmpLtU, cmpGtS, cmpGtU:
			return false, true
		}
	}
	return false, false
}

// resolve collapses a field value whose refined domain pins one constant.
func (r *run) resolve(st *state, v Value) Value {
	if v.kind == kField {
		if c, ok := st.fields[v.field].maskedDom(v.mask).exactVal(); ok {
			return exact(c)
		}
	}
	return v
}

// mayBe reports whether v may equal k on this path (over-approximate).
func (r *run) mayBe(st *state, v Value, k uint64) bool {
	if res, ok := r.decidePred(st, pred{op: cmpEq, a: v, b: exact(k)}); ok {
		return res
	}
	return true
}

// isDef reports whether v definitely equals k on this path.
func (r *run) isDef(st *state, v Value, k uint64) bool {
	res, ok := r.decidePred(st, pred{op: cmpEq, a: v, b: exact(k)})
	return ok && res
}

// cmpEvent models the HookLogCmp instrumentation on executed i64.eq /
// i64.ne: the Fake Notification oracle inspects the operand pair.
func (r *run) cmpEvent(st *state, a, b Value) {
	defPair := (r.isDef(st, a, agentC) && r.isDef(st, b, victimC)) ||
		(r.isDef(st, a, victimC) && r.isDef(st, b, agentC))
	if defPair {
		st.guardDef = true
		return
	}
	mayPair := (r.mayBe(st, a, agentC) && r.mayBe(st, b, victimC)) ||
		(r.mayBe(st, a, victimC) && r.mayBe(st, b, agentC))
	if mayPair {
		r.agg.guardPossible = true
	}
}

func (r *run) observeCond(fi uint32, src uint32, outcome bool) {
	key := uint64(fi)<<32 | uint64(src)
	if outcome {
		r.agg.condSeen[key] |= 1
	} else {
		r.agg.condSeen[key] |= 2
	}
}

func (r *run) step(st *state, fi uint32, src uint32, taken bool) {
	if r.witness && len(st.trail) < 512 {
		st.trail = append(st.trail, Step{Func: fi, PC: src, Taken: taken})
	}
}

// exec interprets fv from pc with the given frame until every descendant
// path terminates. Forks clone the state and frame; results accumulate
// depth-first in deterministic order.
func (r *run) exec(fv exec.IRFuncView, fi uint32, pc int, locals, stk []Value, st *state, depth int) []result {
	pop := func() (Value, bool) {
		if len(stk) == 0 {
			return Value{}, false
		}
		v := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		return v, true
	}
	push := func(v Value) { stk = append(stk, v) }

	// unwind applies a branch's stack adjustment.
	unwind := func(keep uint8, to uint32) bool {
		if int(to)+int(keep) > len(stk) {
			return false
		}
		if keep == 1 {
			stk[to] = stk[len(stk)-1]
		}
		stk = stk[:int(to)+int(keep)]
		return true
	}

	for {
		if r.found != nil {
			return nil
		}
		r.steps++
		if r.steps > maxSteps || r.paths > maxPaths {
			return r.abort(st)
		}
		if pc < 0 || pc >= fv.Len() {
			return r.abort(st)
		}
		in := fv.Instr(pc)

		switch in.Op {
		case exec.IRTick:
			// fuel bookkeeping only

		case exec.IRUnreachable:
			return []result{{st: st, trapped: true}}

		case exec.IRBr:
			if int(in.A) <= pc {
				return r.abort(st) // backward branch: loops unsupported
			}
			if !unwind(in.X, in.B) {
				return r.abort(st)
			}
			pc = int(in.A)
			continue

		case exec.IRBrIf, exec.IRBrIfZ:
			cond, ok := pop()
			if !ok {
				return r.abort(st)
			}
			// The branch is taken when cond != 0 (IRBrIf) or cond == 0
			// (IRBrIfZ, the lowered `if` else-edge).
			takenTruth := in.Op == exec.IRBrIf
			if int(in.A) <= pc && in.Op == exec.IRBrIf {
				// Backward br_if: only the fall-through edge is analyzable.
				t, decided := r.truth(st, cond)
				if decided && t == takenTruth {
					return r.abort(st)
				}
				if !decided {
					r.incomplete = true // taken edge unexplored
					if r.witness {
						return nil
					}
				}
				r.observeCond(fi, in.Src, !takenTruth)
				pc++
				continue
			}
			takeBranch := func(s *state, l, k []Value) []result {
				if int(in.A) <= pc {
					return r.abort(s) // backward else-edge: loops unsupported
				}
				if in.Op == exec.IRBrIfZ {
					if int(in.B) > len(k) {
						return r.abort(s)
					}
					k = k[:in.B]
				} else if int(in.B)+int(in.X) <= len(k) {
					if in.X == 1 {
						k[in.B] = k[len(k)-1]
					}
					k = k[:int(in.B)+int(in.X)]
				} else {
					return r.abort(s)
				}
				return r.exec(fv, fi, int(in.A), l, k, s, depth)
			}
			if t, ok := r.truth(st, cond); ok {
				r.observeCond(fi, in.Src, t)
				r.step(st, fi, in.Src, t == takenTruth)
				if t == takenTruth {
					out := takeBranch(st, locals, stk)
					return out
				}
				pc++
				continue
			}
			// Fork: condition-true side, then condition-false side.
			var out []result
			for _, truth := range [2]bool{true, false} {
				s2 := st.clone()
				l2, k2 := cloneFrame(locals, stk)
				if !r.branchRefine(s2, cond, truth) {
					continue
				}
				r.observeCond(fi, in.Src, truth)
				r.step(s2, fi, in.Src, truth == takenTruth)
				if truth == takenTruth {
					out = append(out, takeBranch(s2, l2, k2)...)
				} else {
					out = append(out, r.exec(fv, fi, pc+1, l2, k2, s2, depth)...)
				}
			}
			return out

		case exec.IRBrTable:
			idxv, ok := pop()
			if !ok || int(in.A) >= fv.NTables() {
				return r.abort(st)
			}
			tbl := fv.Table(int(in.A))
			if len(tbl) == 0 {
				return r.abort(st)
			}
			takeTarget := func(s *state, l, k []Value, t exec.IRTarget) []result {
				if int(t.PC) <= pc {
					return r.abort(s)
				}
				if int(t.Unwind)+int(t.Keep) > len(k) {
					return r.abort(s)
				}
				if t.Keep == 1 {
					k[t.Unwind] = k[len(k)-1]
				}
				k = k[:int(t.Unwind)+int(t.Keep)]
				return r.exec(fv, fi, int(t.PC), l, k, s, depth)
			}
			if iv := r.resolve(st, idxv); iv.kind == kExact {
				i := len(tbl) - 1
				if uint64(uint32(iv.c)) < uint64(i) {
					i = int(uint32(iv.c))
				}
				return takeTarget(st, locals, stk, tbl[i])
			}
			if r.witness {
				return nil // cannot guarantee a target
			}
			var out []result
			for i := range tbl {
				s2 := st.clone()
				l2, k2 := cloneFrame(locals, stk)
				out = append(out, takeTarget(s2, l2, k2, tbl[i])...)
			}
			return out

		case exec.IRReturn:
			n := int(in.X)
			if n > len(stk) {
				return r.abort(st)
			}
			vals := append([]Value(nil), stk[len(stk)-n:]...)
			return []result{{st: st, vals: vals}}

		case exec.IRCall:
			out, ok := r.call(fv, fi, pc, int64(in.A), locals, stk, st, depth)
			if !ok {
				return r.abort(st)
			}
			return out

		case exec.IRHostC, exec.IRHostCL, exec.IRHostCC, exec.IRHostCLL, exec.IRHostTee,
			exec.IRHostTeeBrIf, exec.IRHostTeeBrIfZ, exec.IRHostTeeBrTable, exec.IRHostTeeLoad,
			exec.IRHostTeeStore, exec.IRHostCmp, exec.IRHostCCCall:
			// A host-call group: its constituents up to the call, then
			// the call. A hooked group's plain instruction in the next
			// slot runs as itself. Steps count each constituent, as they
			// did before the lowering fused them.
			args, ok := groupArgs(in, locals, &stk)
			if !ok {
				return r.abort(st)
			}
			r.steps += int(in.Cost) - 1
			if in.Op >= exec.IRHostTeeBrIf {
				r.steps--
			}
			return r.doCall(fv, fi, pc, int64(in.A), args, locals, stk, st, depth)

		case exec.IRCallInd:
			idxv, ok := pop()
			if !ok {
				return r.abort(st)
			}
			iv := r.resolve(st, idxv)
			if iv.kind != kExact || !r.e.tableOK {
				return r.abort(st)
			}
			ti := uint64(uint32(iv.c))
			if ti >= uint64(len(r.e.table)) || r.e.table[ti] < 0 {
				return []result{{st: st, trapped: true}}
			}
			callee := r.e.table[ti]
			if r.e.ir.FuncCanon(uint32(callee)) != r.e.ir.TypeCanon(in.A) {
				return []result{{st: st, trapped: true}}
			}
			if st.firstInd < 0 {
				st.firstInd = callee
			}
			out, ok := r.call(fv, fi, pc, callee, locals, stk, st, depth)
			if !ok {
				return r.abort(st)
			}
			return out

		case exec.IRDrop:
			if _, ok := pop(); !ok {
				return r.abort(st)
			}

		case exec.IRSelect:
			c, ok1 := pop()
			b, ok2 := pop()
			a, ok3 := pop()
			if !ok1 || !ok2 || !ok3 {
				return r.abort(st)
			}
			if t, ok := r.truth(st, c); ok {
				if t {
					push(a)
				} else {
					push(b)
				}
			} else if a.kind == kExact && b.kind == kExact && a.c == b.c {
				push(a)
			} else {
				push(unknown())
			}

		case exec.IRLocalGet:
			if int(in.A) >= len(locals) {
				return r.abort(st)
			}
			push(locals[in.A])
		case exec.IRLocalSet:
			v, ok := pop()
			if !ok || int(in.A) >= len(locals) {
				return r.abort(st)
			}
			locals[in.A] = v
		case exec.IRLocalTee:
			if len(stk) == 0 || int(in.A) >= len(locals) {
				return r.abort(st)
			}
			locals[in.A] = stk[len(stk)-1]

		case exec.IRGlobalGet:
			if int(in.A) >= len(st.globals) {
				return r.abort(st)
			}
			push(st.globals[in.A])
		case exec.IRGlobalSet:
			v, ok := pop()
			if !ok || int(in.A) >= len(st.globals) {
				return r.abort(st)
			}
			st.globals[in.A] = v

		case exec.IRConst:
			push(exact(in.Imm))

		case exec.IRMemSize:
			push(unknown())
		case exec.IRMemGrow:
			if _, ok := pop(); !ok {
				return r.abort(st)
			}
			push(unknown())

		case exec.IRLoad:
			addr, ok := pop()
			if !ok {
				return r.abort(st)
			}
			v, mayTrap := r.load(st, addr, in)
			push(v)
			if mayTrap {
				return r.withTrapFork(fv, fi, pc+1, locals, stk, st, depth)
			}

		case exec.IRStore:
			val, ok1 := pop()
			addr, ok2 := pop()
			if !ok1 || !ok2 {
				return r.abort(st)
			}
			if r.store(st, addr, val, in) {
				return r.withTrapFork(fv, fi, pc+1, locals, stk, st, depth)
			}

		case exec.IRConstStore:
			addr, ok := pop()
			if !ok {
				return r.abort(st)
			}
			if r.store(st, addr, exact(in.Imm), in) {
				return r.withTrapFork(fv, fi, pc+1, locals, stk, st, depth)
			}

		case exec.IRNumeric:
			ok, mayTrap, trapNow := r.numeric(st, wasm.Opcode(in.X), &stk)
			if !ok {
				return r.abort(st)
			}
			if trapNow {
				return []result{{st: st, trapped: true}}
			}
			if mayTrap {
				return r.withTrapFork(fv, fi, pc+1, locals, stk, st, depth)
			}

		case exec.IRGetGetAddI32, exec.IRGetGetAddI64:
			if int(in.A) >= len(locals) || int(in.B) >= len(locals) {
				return r.abort(st)
			}
			a, b := locals[in.A], locals[in.B]
			if a.kind == kExact && b.kind == kExact {
				if in.Op == exec.IRGetGetAddI32 {
					push(exact(uint64(uint32(a.c) + uint32(b.c))))
				} else {
					push(exact(a.c + b.c))
				}
			} else {
				push(unknown())
			}

		case exec.IRConstAddI32, exec.IRConstAddI64:
			v, ok := pop()
			if !ok {
				return r.abort(st)
			}
			if v.kind == kExact {
				if in.Op == exec.IRConstAddI32 {
					push(exact(uint64(uint32(v.c) + uint32(in.Imm))))
				} else {
					push(exact(v.c + in.Imm))
				}
			} else {
				push(unknown())
			}

		default:
			if !r.inlineOp(st, in.Op, &stk) {
				return r.abort(st)
			}
		}
		pc++
	}
}

// withTrapFork emits a trapped terminal alongside the continuing path, for
// operations that may or may not trap (unknown address, unknown divisor,
// unmodeled host behaviour).
func (r *run) withTrapFork(fv exec.IRFuncView, fi uint32, pc int, locals, stk []Value, st *state, depth int) []result {
	out := []result{{st: st.clone(), trapped: true}}
	if r.witness && r.found == nil {
		// A witness path must be replayable: past a possible trap the
		// dynamic run is no longer guaranteed to continue.
		return out
	}
	l2, k2 := cloneFrame(locals, stk)
	out = append(out, r.exec(fv, fi, pc, l2, k2, st, depth)...)
	return out
}

// call pops the arguments of a direct or indirect call and dispatches it.
func (r *run) call(fv exec.IRFuncView, fi uint32, pc int, callee int64, locals, stk []Value, st *state, depth int) ([]result, bool) {
	if callee < 0 || int(callee) >= r.e.nFunc {
		return nil, false
	}
	n := r.e.nParams[callee]
	if n > len(stk) {
		return nil, false
	}
	args := append([]Value(nil), stk[len(stk)-n:]...)
	return r.doCall(fv, fi, pc, callee, args, locals, stk[:len(stk)-n], st, depth), true
}

// groupArgs applies a host-call group to the frame up to its call and
// returns the call's arguments. The tee forms store the operand they take
// off the stack and leave it there; the store and comparison hooks store
// their operands and push them back, as the source reads them again after
// the call, which sees neither locals nor the operand stack.
func groupArgs(in exec.IRInstr, locals []Value, stk *[]Value) ([]Value, bool) {
	lo, hi := int(in.B&0xffff), int(in.B>>16)
	s := *stk
	switch in.Op {
	case exec.IRHostC:
		return []Value{exact(in.Imm)}, true
	case exec.IRHostCL:
		if int(in.B) >= len(locals) {
			return nil, false
		}
		return []Value{exact(in.Imm), locals[in.B]}, true
	case exec.IRHostCC, exec.IRHostCCCall:
		return []Value{exact(in.Imm & 0xffffffff), exact(in.Imm >> 32)}, true
	case exec.IRHostCLL, exec.IRHostCmp:
		if lo >= len(locals) || hi >= len(locals) {
			return nil, false
		}
		if in.Op == exec.IRHostCmp {
			if len(s) < 2 {
				return nil, false
			}
			locals[hi], locals[lo] = s[len(s)-1], s[len(s)-2]
			*stk = append(s[:len(s)-2], locals[lo], locals[hi])
		}
		return []Value{exact(in.Imm), locals[lo], locals[hi]}, true
	case exec.IRHostTeeStore:
		if len(s) < 2 || lo >= len(locals) || hi >= len(locals) {
			return nil, false
		}
		locals[hi] = s[len(s)-1]
		locals[lo] = s[len(s)-2]
		*stk = append(s[:len(s)-1], locals[hi])
		return []Value{exact(in.Imm), locals[lo]}, true
	}
	// The other tee forms.
	if len(s) == 0 || lo >= len(locals) {
		return nil, false
	}
	locals[lo] = s[len(s)-1]
	return []Value{exact(in.Imm), locals[lo]}, true
}

// doCall dispatches a call with its arguments popped: host imports
// through the host model, local functions recursively. Each outcome that
// returns continues at pc+1 with the callee's results pushed on stk.
func (r *run) doCall(fv exec.IRFuncView, fi uint32, pc int, callee int64, args, locals, stk []Value, st *state, depth int) []result {
	var subs []result
	if int(callee) < r.e.nImp {
		subs = r.hostCall(r.e.impName[callee], int(callee), args, st)
	} else {
		subs = r.execFunc(uint32(callee), args, st, depth+1)
	}
	var out []result
	for i, sub := range subs {
		if sub.trapped {
			out = append(out, sub)
			continue
		}
		l2, k2 := locals, stk
		if i < len(subs)-1 {
			l2, k2 = cloneFrame(locals, stk)
		}
		k2 = append(k2, sub.vals...)
		out = append(out, r.exec(fv, fi, pc+1, l2, k2, sub.st, depth)...)
	}
	return out
}
