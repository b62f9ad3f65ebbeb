package symexec

import (
	"errors"
	"fmt"

	"repro/internal/symbolic"
	"repro/internal/trace"
	"repro/internal/wasm"
)

// CondKind classifies a recorded conditional state (§3.1).
type CondKind int

// Conditional-state kinds.
const (
	CondBranch  CondKind = iota + 1 // br_if / if
	CondAssert                      // eosio_assert invocation
	CondBrTable                     // br_table index
)

// CondState is one conditional state along the executed path: the symbolic
// condition, the direction the concrete execution took, and where.
type CondState struct {
	Kind CondKind
	// Cond is the branch condition (any width; non-zero = taken) for
	// CondBranch/CondAssert, or the index expression for CondBrTable.
	Cond *symbolic.Expr
	// Taken is the concrete direction (CondBranch) — asserts always "took"
	// the satisfied direction.
	Taken bool
	// Index is the concrete br_table index (CondBrTable).
	Index uint64
	// NumTargets is the br_table target count including the default.
	NumTargets int
	// Func and PC locate the conditional in the original module.
	Func uint32
	PC   int
}

// PathConstraint returns the constraint this state imposes on the executed
// path (the as-taken condition).
func (cs *CondState) PathConstraint(ctx *symbolic.Ctx) *symbolic.Expr {
	switch cs.Kind {
	case CondBrTable:
		return ctx.Eq(cs.Cond, ctx.Const(cs.Index, cs.Cond.Width))
	default:
		b := ctx.Bool(cs.Cond)
		if cs.Taken {
			return b
		}
		return ctx.BoolNot(b)
	}
}

// Result is the outcome of one symbolic replay. Its expressions belong to
// the replayer's context and are valid until the next Run on the same
// Replayer, which empties that context.
type Result struct {
	Ctx   *symbolic.Ctx
	Conds []CondState
	// ActionFunc is the original-module index of the replayed action
	// function (the paper's id_e when the action is the eosponser).
	ActionFunc uint32
	// Truncated reports that the trace ended before the action function
	// returned (reverted execution or instruction-budget stop).
	Truncated bool
	// Steps counts replayed instructions.
	Steps int
	// LoadObjects counts §3.4.1 symbolic load objects materialized.
	LoadObjects int
}

// Options configure a replay.
type Options struct {
	// Globals overrides initial global values (e.g. _self, which the
	// skipped dispatcher would have set).
	Globals map[uint32]uint64
	// MaxSteps bounds the replay (default 400k instructions).
	MaxSteps int
	// OpaqueInputs disables the §3.4.2 calling-convention input inference:
	// action arguments become anonymous symbolic values with no mapping
	// back to the transaction payload, so flipped constraints cannot be
	// turned into seeds. Exists for the ablation benchmark.
	OpaqueInputs bool
}

// ErrNoActionCall reports a trace with no indirect action dispatch.
var ErrNoActionCall = errors.New("symexec: no action-function dispatch in trace")

// Param describes one action argument for §3.4.2 input inference. Exactly
// one family of fields is used depending on Type.
type Param struct {
	Type string // "name", "uint64", "int64", "asset", "string"
	// U64 is the concrete seed value for scalar types.
	U64 uint64
	// Amount and Symbol are the concrete asset halves.
	Amount, Symbol uint64
	// Str is the concrete string value (its length fixes the layout).
	Str []byte
}

// VarName returns the canonical symbolic-variable name for parameter i,
// shared with the fuzzer's model-to-seed mapping.
func VarName(i int) string { return paramName(&varNames, "p%d", i) }

// VarAmount and VarSymbol name the asset halves; VarStrByte names one
// string content byte.
func VarAmount(i int) string     { return paramName(&amountNames, "p%d.amount", i) }
func VarSymbol(i int) string     { return paramName(&symbolNames, "p%d.symbol", i) }
func VarStrByte(i, j int) string { return fmt.Sprintf("p%d[%d]", i, j) }

// namedParams is how many parameters have their variable names formatted
// once, at start-up, so a replay formats none: every generated action
// has four.
const namedParams = 8

var varNames, amountNames, symbolNames = formatNames("p%d"), formatNames("p%d.amount"), formatNames("p%d.symbol")

func formatNames(format string) (names [namedParams]string) {
	for i := range names {
		names[i] = fmt.Sprintf(format, i)
	}
	return names
}

// paramName returns the name of parameter i: from names when i is small,
// formatted otherwise.
func paramName(names *[namedParams]string, format string, i int) string {
	if i >= 0 && i < namedParams {
		return names[i]
	}
	return fmt.Sprintf(format, i)
}

// Replayer walks traces of one module while symbolically executing the
// original module per Table 3. It keeps its expression context and memory
// model between runs, emptied at the start of each, and each function's
// control metadata, which depends on the module only. A Replayer is not
// safe for concurrent use.
type Replayer struct {
	ctx        *symbolic.Ctx
	mod        *wasm.Module
	mem        *Memory
	numImports int
	//wasai:localcache job-local: one per Replayer, which the fuzzer keeps
	// for one job; keyed by function index, and a function's metadata is a
	// pure function of its body.
	metaCache map[uint32]wasm.ControlMeta

	// Per-run state, set by Run. concrete keeps its storage between runs.
	concrete []uint64
	events   []trace.Event
	pos      int
	globals  []*symbolic.Expr
	conds    []CondState
	steps    int
	maxSteps int
}

// NewReplayer returns a replayer for traces of instrumented executions of
// mod.
func NewReplayer(mod *wasm.Module) *Replayer {
	ctx := symbolic.NewCtx()
	return &Replayer{
		ctx:        ctx,
		mod:        mod,
		mem:        NewMemory(ctx),
		numImports: mod.NumImportedFuncs(),
		metaCache:  map[uint32]wasm.ControlMeta{},
	}
}

// errTraceEnd signals orderly exhaustion of the trace (reverted runs).
var errTraceEnd = errors.New("trace exhausted")

// Run replays tr (from an instrumented execution of r's module)
// symbolically, seeding the action function's inputs per params and the
// §3.4.2 layout. It first empties r's context and memory, so its result is
// the same on a reused replayer as on a new one, and the previous run's
// Result expires.
//
// Run is engine-agnostic by construction: it never selects or touches an
// exec engine, it only consumes the trace event stream. The instrumentation
// hooks are host calls, which the tree-walking interpreter and the
// decoded-IR engine (exec.NewFastVM) dispatch identically, so a trace —
// and therefore this replay — is byte-identical whichever engine produced
// it.
func Run(r *Replayer, tr *trace.Trace, params []Param, opts Options) (*Result, error) {
	r.ctx.Reset()
	r.mem.Reset()
	r.events, r.pos = tr.Events, 0
	r.conds, r.steps = nil, 0
	r.maxSteps = opts.MaxSteps
	if r.maxSteps == 0 {
		r.maxSteps = 400_000
	}
	ctx, mod := r.ctx, r.mod
	r.globals = r.globals[:0]
	for _, g := range mod.Globals {
		v := uint64(0)
		if len(g.Init) == 1 {
			v = g.Init[0].Imm
		}
		r.globals = append(r.globals, ctx.Const(v, widthOf(g.Type.Type)))
	}
	for idx, v := range opts.Globals {
		if int(idx) < len(r.globals) {
			r.globals[idx] = ctx.Const(v, r.globals[idx].Width)
		}
	}

	// Locate the action dispatch: the first indirect call in the trace
	// (§3.4.2 "we parse the indirect calls in the apply function").
	actionFunc, ok := r.findActionDispatch()
	if !ok {
		return nil, ErrNoActionCall
	}
	// Skip to its function_begin and collect the concrete parameters.
	concrete, ok := r.seekFunctionEntry(actionFunc)
	if !ok {
		return nil, fmt.Errorf("symexec: no function_begin for action func %d", actionFunc)
	}

	if opts.OpaqueInputs {
		params = nil // every argument becomes a nameless fresh value
	}
	locals, err := r.buildInputs(actionFunc, params, concrete)
	if err != nil {
		return nil, err
	}

	res := &Result{Ctx: ctx, ActionFunc: actionFunc}
	_, err = r.execFunc(actionFunc, locals)
	if err != nil && !errors.Is(err, errTraceEnd) {
		return nil, err
	}
	res.Truncated = errors.Is(err, errTraceEnd)
	res.Conds = r.conds
	res.Steps = r.steps
	res.LoadObjects = r.mem.LoadObjects()
	return res, nil
}

func widthOf(t wasm.ValType) uint8 {
	switch t {
	case wasm.I32, wasm.F32:
		return 32
	default:
		return 64
	}
}

func (r *Replayer) findActionDispatch() (uint32, bool) {
	for _, ev := range r.events {
		if ev.Kind == trace.HookCall && ev.Op == wasm.OpCallIndirect {
			return uint32(ev.Operand), true
		}
	}
	return 0, false
}

// seekFunctionEntry advances past the events preceding the action
// function's body and returns its concrete parameter values.
func (r *Replayer) seekFunctionEntry(fn uint32) ([]uint64, bool) {
	for i, ev := range r.events {
		if ev.Kind == trace.HookFuncBegin && ev.Func == fn {
			concrete := r.concrete[:0]
			j := i + 1
			for ; j < len(r.events) && r.events[j].Kind == trace.HookParam; j++ {
				concrete = append(concrete, r.events[j].Operand)
			}
			r.pos, r.concrete = j, concrete
			return concrete, true
		}
	}
	return nil, false
}

// buildInputs realizes Table 2: value parameters become symbolic variables
// directly; pointer parameters (asset, string) keep their concrete pointer
// and the pointed-to memory is laid out as input regions, whose symbolic
// content is built on first load.
func (r *Replayer) buildInputs(fn uint32, params []Param, concrete []uint64) ([]*symbolic.Expr, error) {
	ft, err := r.mod.FuncTypeAt(fn)
	if err != nil {
		return nil, err
	}
	code := r.mod.CodeFor(fn)
	if code == nil {
		return nil, fmt.Errorf("symexec: action func %d has no body", fn)
	}
	nLocals := len(ft.Params) + int(code.NumLocals())
	locals := make([]*symbolic.Expr, nLocals)
	zero := r.ctx.Const(0, 64)
	for i := range locals {
		locals[i] = zero
	}
	// Parameter 0 is `self` (concrete); ρ_i maps to local i+1.
	for i := 0; i < len(ft.Params) && i < len(concrete); i++ {
		locals[i] = r.ctx.Const(concrete[i], widthOf(ft.Params[i]))
	}
	for i, p := range params {
		li := i + 1
		if li >= len(ft.Params) {
			break
		}
		switch p.Type {
		case "asset":
			if li >= len(concrete) {
				return nil, fmt.Errorf("symexec: missing concrete pointer for param %d", i)
			}
			r.mem.inputAsset(uint32(concrete[li]), i)
		case "string":
			if li >= len(concrete) {
				return nil, fmt.Errorf("symexec: missing concrete pointer for param %d", i)
			}
			r.mem.inputString(uint32(concrete[li]), i, len(p.Str))
		default: // name, uint64, int64 — value types
			locals[li] = r.ctx.Var(VarName(i), widthOf(ft.Params[li]))
		}
	}
	return locals, nil
}

// --- event cursor ------------------------------------------------------------

func (r *Replayer) next() (trace.Event, error) {
	if r.pos >= len(r.events) {
		return trace.Event{}, errTraceEnd
	}
	ev := r.events[r.pos]
	r.pos++
	return ev, nil
}

// expect consumes the next event, requiring the given kind at the site.
func (r *Replayer) expect(kind trace.HookKind, fn uint32, pc int) (trace.Event, error) {
	ev, err := r.next()
	if err != nil {
		return ev, err
	}
	if ev.Kind != kind || ev.Func != fn || ev.PC != pc {
		return ev, fmt.Errorf("symexec: trace desync: want %s@(%d,%d), got %s@(%d,%d)",
			kind, fn, pc, ev.Kind, ev.Func, ev.PC)
	}
	return ev, nil
}

func (r *Replayer) meta(fn uint32) (wasm.ControlMeta, error) {
	if m, ok := r.metaCache[fn]; ok {
		return m, nil
	}
	code := r.mod.CodeFor(fn)
	if code == nil {
		return wasm.ControlMeta{}, fmt.Errorf("symexec: func %d has no body", fn)
	}
	m, err := wasm.AnalyzeControl(code.Body)
	if err != nil {
		return wasm.ControlMeta{}, err
	}
	r.metaCache[fn] = m
	return m, nil
}
