package static

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/chain"
	"repro/internal/contractgen"
	"repro/internal/wasm"
)

// FuncReport is the static summary of one local function.
type FuncReport struct {
	// Index is the function-space index (imports first).
	Index uint32
	// Name is the debug name when the module carries one.
	Name string
	// CFG is the function's control flow graph.
	CFG *CFG
	// Blocks, Branches and Complexity are the CFG's size metrics.
	Blocks, Branches, Complexity int
	// HostCalls lists the host-API import names the function calls
	// directly, sorted and de-duplicated.
	HostCalls []string
	// Taint is the heuristic taint summary.
	Taint Taint
}

// ActionReport describes one action entry: a function installed in the
// dispatch table (call_indirect slot), which is how EOSIO contracts expose
// actions to apply's dispatcher.
type ActionReport struct {
	// Slot is the table slot (elem position); Func the function index.
	Slot uint32
	Func uint32
	// HostAPIs lists every host import reachable from this entry, sorted.
	HostAPIs []string
	// Branches totals the conditional branch sites reachable from this
	// entry — the per-action fuel/effort metric.
	Branches int
}

// Report is the static pre-analysis of one module.
type Report struct {
	// NumFuncs and NumImports size the function index space.
	NumFuncs, NumImports int
	// Funcs summarizes every local function, in index order.
	Funcs []FuncReport
	// CallGraph is the inter-procedural graph the reachability derives from.
	CallGraph *CallGraph
	// Roots are the analysis entry points: exported functions + start.
	Roots []uint32
	// ReachableHostAPIs lists host import names reachable from the roots,
	// sorted.
	ReachableHostAPIs []string
	// IndirectReachable reports a reachable call_indirect site (the
	// precondition for the scanner's eosponser identification).
	IndirectReachable bool
	// Actions holds the per-action (dispatch-table entry) reachability.
	Actions []ActionReport
	// Candidates maps each of the five oracle classes to its static
	// candidate flag: false means the dynamic oracle provably cannot fire
	// on this module (a necessary condition is absent), so a campaign may
	// skip it; true means the class is worth fuzzing.
	Candidates map[contractgen.Class]bool
	// Branches and Complexity total the metrics over reachable local
	// functions — the campaign cost estimate.
	Branches, Complexity int
	// TaintedSinks is the union of per-function tainted sink names, sorted.
	TaintedSinks []string
}

// candidateClasses pins the oracle classes this package computes candidate
// flags for. cmd/wasai-lint enforces parity: every class the scanner's
// detectors reference must appear here.
var candidateClasses = []contractgen.Class{
	contractgen.ClassFakeEOS,
	contractgen.ClassFakeNotif,
	contractgen.ClassMissAuth,
	contractgen.ClassBlockinfoDep,
	contractgen.ClassRollback,
	contractgen.ClassStateTamper,
	contractgen.ClassOrderDep,
	contractgen.ClassCrossContract,
}

// dbWriteAPIs and dbReadAPIs split the db_* surface for the on-chain-data
// candidate flags.
var (
	dbWriteAPIs = []string{chain.APIDBStore, chain.APIDBUpdate, chain.APIDBRemove}
	dbReadAPIs  = []string{
		chain.APIDBFind, chain.APIDBGet, chain.APIDBLowerbound,
		chain.APIDBEnd, chain.APIDBNext, chain.APIDBPrevious,
	}
)

// Analyze runs the full static pass: CFG per function, call graph,
// reachability from the exported entry points, taint, and the per-class
// candidate flags. The module should be Decode+Validate clean; malformed
// bodies fail with an error: a contract the pass cannot model gets no
// static information, never an all-negative report.
func Analyze(m *wasm.Module) (*Report, error) {
	r := &Report{
		NumFuncs:   m.NumFuncs(),
		NumImports: m.NumImportedFuncs(),
		CallGraph:  BuildCallGraph(m),
		Candidates: map[contractgen.Class]bool{},
	}

	// Host import names by function index.
	importName := map[uint32]string{}
	idx := uint32(0)
	for _, imp := range m.Imports {
		if imp.Kind == wasm.ExternalFunc {
			importName[idx] = imp.Name
			idx++
		}
	}

	// Per-function pass.
	for i := range m.Code {
		fidx := uint32(r.NumImports + i)
		code := &m.Code[i]
		cfg, err := BuildCFG(code.Body)
		if err != nil {
			return nil, fmt.Errorf("static: func %d: %w", fidx, err)
		}
		fr := FuncReport{
			Index:      fidx,
			Name:       m.FuncNames[fidx],
			CFG:        cfg,
			Blocks:     len(cfg.Blocks),
			Branches:   cfg.Branches,
			Complexity: cfg.Complexity(),
			Taint:      analyzeTaint(m, fidx, code, importName),
		}
		seen := map[string]bool{}
		for _, in := range code.Body {
			if in.Op == wasm.OpCall {
				if name, ok := importName[in.A]; ok && !seen[name] {
					seen[name] = true
					fr.HostCalls = append(fr.HostCalls, name)
				}
			}
		}
		sort.Strings(fr.HostCalls)
		r.Funcs = append(r.Funcs, fr)
	}

	// Roots: exports + start function.
	for _, ex := range m.Exports {
		if ex.Kind == wasm.ExternalFunc {
			r.Roots = append(r.Roots, ex.Index)
		}
	}
	if m.Start != nil {
		r.Roots = append(r.Roots, *m.Start)
	}
	sort.Slice(r.Roots, func(i, j int) bool { return r.Roots[i] < r.Roots[j] })

	reach := r.CallGraph.Reachable(r.Roots...)
	r.IndirectReachable = r.CallGraph.IndirectReachable(reach)

	apiSet := map[string]bool{}
	taintSet := map[string]bool{}
	for _, fr := range r.Funcs {
		if !reach[fr.Index] {
			continue
		}
		r.Branches += fr.Branches
		r.Complexity += fr.Complexity
		for _, name := range fr.HostCalls {
			apiSet[name] = true
		}
		for _, name := range fr.Taint.TaintedSinks {
			taintSet[name] = true
		}
	}
	for f := range reach {
		if name, ok := importName[f]; ok {
			apiSet[name] = true
		}
	}
	r.ReachableHostAPIs = sortedKeys(apiSet)
	r.TaintedSinks = sortedKeys(taintSet)

	// Per-action reachability over the dispatch table.
	for _, el := range m.Elems {
		for slot, fi := range el.Funcs {
			ar := ActionReport{Slot: uint32(slot), Func: fi}
			areach := r.CallGraph.Reachable(fi)
			aAPIs := map[string]bool{}
			for _, fr := range r.Funcs {
				if !areach[fr.Index] {
					continue
				}
				ar.Branches += fr.Branches
				for _, name := range fr.HostCalls {
					aAPIs[name] = true
				}
			}
			for f := range areach {
				if name, ok := importName[f]; ok {
					aAPIs[name] = true
				}
			}
			ar.HostAPIs = sortedKeys(aAPIs)
			r.Actions = append(r.Actions, ar)
		}
	}

	// Candidate flags: necessary conditions for each trace oracle.
	//
	//   Rollback fires only on an executed send_inline; BlockinfoDep only
	//   on an executed tapos_*; MissAuth only on an executed effect API.
	//   Fake EOS and Fake Notif both require the scanner to locate the
	//   eosponser, which needs an executed call_indirect.
	//
	// Reachability over-approximates execution, so flag=false is a proof
	// the oracle cannot fire; flag=true is only a candidate.
	hasAPI := func(names ...string) bool {
		for _, n := range names {
			if apiSet[n] {
				return true
			}
		}
		return false
	}
	effects := sortedKeys(chain.EffectAPIs)
	r.Candidates[contractgen.ClassRollback] = apiSet[chain.APISendInline]
	r.Candidates[contractgen.ClassBlockinfoDep] = hasAPI(chain.APITaposBlockNum, chain.APITaposBlockPrefix)
	r.Candidates[contractgen.ClassMissAuth] = hasAPI(effects...)
	r.Candidates[contractgen.ClassFakeEOS] = r.IndirectReachable
	r.Candidates[contractgen.ClassFakeNotif] = r.IndirectReachable
	// On-chain-data scenario oracles (internal/fuzz scenario driver):
	//
	//   StateTamper fires only on an executed db-write intrinsic (the
	//   overwrite evidence is a victim DBWrite record). OrderDep needs the
	//   contract to either mutate persistent state (db writes) or make the
	//   transaction outcome depend on mutable chain state (db reads over
	//   tables another transaction may have changed, or sends whose
	//   success hangs on token balances); with none of those, every
	//   transaction outcome is a pure function of its own inputs — each
	//   apply runs in a fresh instance — and permutation cannot matter.
	//   CrossContract fires only on an executed send_inline.
	r.Candidates[contractgen.ClassStateTamper] = hasAPI(dbWriteAPIs...)
	r.Candidates[contractgen.ClassOrderDep] = hasAPI(dbWriteAPIs...) ||
		hasAPI(dbReadAPIs...) || hasAPI(chain.APISendInline, chain.APISendDeferred)
	r.Candidates[contractgen.ClassCrossContract] = apiSet[chain.APISendInline]
	return r, nil
}

// AnyCandidate reports whether any oracle class is statically possible.
func (r *Report) AnyCandidate() bool {
	for _, c := range candidateClasses {
		if r.Candidates[c] {
			return true
		}
	}
	return false
}

// Score estimates how much dynamic work the contract deserves. Candidate
// classes dominate (a contract that can exhibit more oracle classes ranks
// higher), tainted sinks and branch counts break ties. It is reported
// through wasai.StaticReport; the campaign engine does not read it.
func (r *Report) Score() int {
	score := 0
	for _, c := range candidateClasses {
		if r.Candidates[c] {
			score += 1000
		}
	}
	score += 50 * len(r.TaintedSinks)
	score += r.Branches
	return score
}

// String renders the report canonically: every collection is sorted, so two
// analyses of the same module are byte-identical (the determinism tests
// compare exactly this).
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "static: funcs=%d imports=%d branches=%d complexity=%d score=%d\n",
		r.NumFuncs, r.NumImports, r.Branches, r.Complexity, r.Score())
	fmt.Fprintf(&sb, "roots=%v indirect=%v\n", r.Roots, r.IndirectReachable)
	fmt.Fprintf(&sb, "reachable-apis=%s\n", strings.Join(r.ReachableHostAPIs, ","))
	fmt.Fprintf(&sb, "tainted-sinks=%s\n", strings.Join(r.TaintedSinks, ","))
	for _, c := range candidateClasses {
		fmt.Fprintf(&sb, "candidate %-14s %v\n", c, r.Candidates[c])
	}
	for _, a := range r.Actions {
		fmt.Fprintf(&sb, "action slot=%d func=%d branches=%d apis=%s\n",
			a.Slot, a.Func, a.Branches, strings.Join(a.HostAPIs, ","))
	}
	for _, f := range r.Funcs {
		fmt.Fprintf(&sb, "func %d name=%q blocks=%d branches=%d complexity=%d calls=%s tainted=%s\n",
			f.Index, f.Name, f.Blocks, f.Branches, f.Complexity,
			strings.Join(f.HostCalls, ","), strings.Join(f.Taint.TaintedSinks, ","))
		for bi, b := range f.CFG.Blocks {
			fmt.Fprintf(&sb, "  block %d [%d,%d) -> %v\n", bi, b.Start, b.End, b.Succs)
		}
	}
	return sb.String()
}

// sortedKeys returns the map's keys sorted.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
