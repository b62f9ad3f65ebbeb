package static

import (
	"sort"

	"repro/internal/wasm"
)

// CallGraph is the inter-procedural call graph over the module's function
// index space (imports first, then local functions). Direct edges come from
// call instructions; indirect edges over-approximate call_indirect by
// admitting every function installed in the table (elem sections) whose
// signature matches the instruction's type immediate.
type CallGraph struct {
	// NumFuncs is the size of the function index space.
	NumFuncs int
	// NumImports is the number of imported functions (indices below it are
	// host functions and have no out-edges).
	NumImports int
	// Callees maps each function to its sorted, de-duplicated successor
	// set (direct and resolved-indirect targets merged).
	Callees map[uint32][]uint32
	// HasIndirect marks functions containing at least one call_indirect.
	HasIndirect map[uint32]bool
	// TableFuncs lists every function reachable through the table (the
	// call_indirect candidate pool), sorted.
	TableFuncs []uint32
}

// BuildCallGraph constructs the call graph. Out-of-range call targets are
// ignored rather than failed: the module may be malformed, and the analysis
// must degrade to over-approximation, not error, wherever it safely can.
func BuildCallGraph(m *wasm.Module) *CallGraph {
	g := &CallGraph{
		NumFuncs:    m.NumFuncs(),
		NumImports:  m.NumImportedFuncs(),
		Callees:     map[uint32][]uint32{},
		HasIndirect: map[uint32]bool{},
	}

	// Candidate pool for call_indirect: every function listed in an elem
	// segment, grouped by signature.
	tableSet := map[uint32]bool{}
	byType := map[int][]uint32{} // type-index slot in m.Types -> functions
	for _, el := range m.Elems {
		for _, fi := range el.Funcs {
			if int(fi) >= g.NumFuncs || tableSet[fi] {
				continue
			}
			tableSet[fi] = true
			ft, err := m.FuncTypeAt(fi)
			if err != nil {
				continue
			}
			for ti := range m.Types {
				if m.Types[ti].Equal(ft) {
					byType[ti] = append(byType[ti], fi)
				}
			}
		}
	}
	for fi := range tableSet {
		g.TableFuncs = append(g.TableFuncs, fi)
	}
	sort.Slice(g.TableFuncs, func(i, j int) bool { return g.TableFuncs[i] < g.TableFuncs[j] })

	for i := range m.Code {
		caller := uint32(g.NumImports + i)
		seen := map[uint32]bool{}
		var out []uint32
		add := func(fi uint32) {
			if int(fi) < g.NumFuncs && !seen[fi] {
				seen[fi] = true
				out = append(out, fi)
			}
		}
		for _, in := range m.Code[i].Body {
			switch in.Op {
			case wasm.OpCall:
				add(in.A)
			case wasm.OpCallIndirect:
				g.HasIndirect[caller] = true
				for _, fi := range byType[int(in.A)] {
					add(fi)
				}
			}
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		g.Callees[caller] = out
	}
	return g
}

// Reachable returns the set of functions reachable from the roots
// (inclusive) by following call edges.
func (g *CallGraph) Reachable(roots ...uint32) map[uint32]bool {
	seen := map[uint32]bool{}
	stack := make([]uint32, 0, len(roots))
	for _, r := range roots {
		if int(r) < g.NumFuncs && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.Callees[f] {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return seen
}

// IndirectReachable reports whether any function in the reachable set
// contains a call_indirect instruction — the static precondition for the
// scanner's eosponser identification (it locates id_e as the callee of the
// first indirect call in a trace).
func (g *CallGraph) IndirectReachable(reachable map[uint32]bool) bool {
	for f := range reachable {
		if g.HasIndirect[f] {
			return true
		}
	}
	return false
}
