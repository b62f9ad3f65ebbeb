package symbolic

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// Result is the outcome of a Solve call.
type Result int

// Solve outcomes.
const (
	Sat Result = iota + 1
	Unsat
	Unknown
)

// String names the result.
func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	case Unknown:
		return "unknown"
	default:
		return "result(?)"
	}
}

// Solver decides conjunctions of 1-bit constraints. The zero value is
// usable; MaxConflicts bounds the CDCL search (0 = default budget),
// mirroring the paper's 3,000 ms per-query cap as a deterministic budget.
type Solver struct {
	// MaxConflicts bounds the SAT search. Default 200_000 conflicts.
	MaxConflicts int64
	// DisableFastPath turns off concrete probing (for ablation benches).
	DisableFastPath bool
	// Stop cancels in-flight SAT searches cooperatively (see SAT.Stop);
	// an interrupted query reports Unknown.
	Stop <-chan struct{}

	// Stats accumulate across Solve calls.
	Stats SolverStats
}

// SolverStats counts solver activity for the evaluation harness.
// Propagations totals unit-propagation work across DPLL instances.
type SolverStats struct {
	Queries      int
	FastPathHits int
	SATCalls     int
	SATConflicts int64
	Unknowns     int
	Propagations int64
}

// Solve decides the conjunction of constraints (each 1-bit wide). On Sat it
// returns a model assigning every free variable.
func (s *Solver) Solve(constraints []*Expr) (Model, Result) {
	s.Stats.Queries++
	var live []*Expr
	for _, c := range constraints {
		if c.IsFalse() {
			return nil, Unsat
		}
		if c.IsTrue() {
			continue
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return Model{}, Sat
	}

	if !s.DisableFastPath {
		if m, ok := s.probe(live); ok {
			s.Stats.FastPathHits++
			return m, Sat
		}
	}

	// Complete path: bit-blast + CDCL.
	s.Stats.SATCalls++
	b := newBlaster()
	for _, c := range live {
		if err := b.assert(c); err != nil {
			s.Stats.Unknowns++
			return nil, Unknown
		}
	}
	budget := s.MaxConflicts
	if budget == 0 {
		budget = DefaultMaxConflicts
	}
	b.sat.MaxConflicts = budget
	b.sat.Stop = s.Stop
	sat, ok := b.sat.Solve()
	s.Stats.SATConflicts += b.sat.conflicts
	s.Stats.Propagations += b.sat.props
	if !ok {
		s.Stats.Unknowns++
		return nil, Unknown
	}
	if !sat {
		return nil, Unsat
	}
	m := b.model()
	// Fill variables the blaster never saw (eliminated by simplification).
	vars := map[string]*Expr{}
	for _, c := range live {
		c.Vars(vars)
	}
	for name := range vars {
		if _, ok := m[name]; !ok {
			m[name] = 0
		}
	}
	// The division encoding is relational; verify the model concretely and
	// report Unknown rather than a wrong model in the (rare) spurious case.
	if !SatisfiesAll(live, m) {
		s.Stats.Unknowns++
		return nil, Unknown
	}
	return m, Sat
}

// --- Concrete-probing fast path ---------------------------------------------

// probe tries to satisfy the constraints with a bounded local search over
// candidate values mined from the constraint structure. This is the
// workhorse for fuzzing constraints, which overwhelmingly compare inputs
// against constants (paper §4.3's "complicated verification" benchmark is
// exactly this shape).
func (s *Solver) probe(constraints []*Expr) (Model, bool) {
	// First-use order, not map order: the improvement loop below visits
	// variables in sequence and keeps the first strict improvement, so
	// the model it lands on depends on iteration order. First-use order
	// makes that order a pure function of query structure — run-to-run
	// deterministic and invariant under variable renaming, which the
	// solver-query memo's Ordered-key replay relies on.
	vars := VarsFirstUse(constraints)
	if len(vars) == 0 || len(vars) > 64 {
		return nil, false
	}
	cands := map[string][]uint64{}
	addCand := func(name string, v uint64) {
		cands[name] = append(cands[name], v)
	}
	for _, c := range constraints {
		mineCandidates(c, true, addCand)
	}
	// Universal fallbacks.
	for _, v := range vars {
		addCand(v.Name, 0)
		addCand(v.Name, 1)
		addCand(v.Name, mask(v.Width))
	}
	for name := range cands {
		sort.Slice(cands[name], func(i, j int) bool { return cands[name][i] < cands[name][j] })
		cands[name] = dedupU64(cands[name])
	}

	m := Model{}
	for _, v := range vars {
		m[v.Name] = 0
	}
	countSat := func() int {
		n := 0
		for _, c := range constraints {
			if EvalBool(c, m) {
				n++
			}
		}
		return n
	}
	best := countSat()
	if best == len(constraints) {
		return m, true
	}
	// Greedy coordinate improvement over candidates, visiting variables
	// in first-use order (see above).
	for pass := 0; pass < 6; pass++ {
		improved := false
		for _, v := range vars {
			name := v.Name
			cur := m[name]
			bestV, bestN := cur, best
			for _, v := range cands[name] {
				if v == cur {
					continue
				}
				m[name] = v
				if n := countSat(); n > bestN {
					bestV, bestN = v, n
				}
			}
			m[name] = bestV
			if bestN > best {
				best = bestN
				improved = true
				if best == len(constraints) {
					return m, true
				}
			}
		}
		if !improved {
			break
		}
	}
	return nil, false
}

func dedupU64(in []uint64) []uint64 {
	out := in[:0]
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// mineCandidates walks a constraint extracting candidate values for the
// variables it mentions, inverting simple operator chains. want is the
// polarity the constraint should take.
func mineCandidates(e *Expr, want bool, add func(string, uint64)) {
	switch e.Kind {
	case KXor:
		// BoolNot is encoded as Xor(x, 1).
		if e.Width == 1 && e.B.IsTrue() {
			mineCandidates(e.A, !want, add)
			return
		}
	case KAnd:
		if e.Width == 1 {
			mineCandidates(e.A, want, add)
			mineCandidates(e.B, want, add)
			return
		}
	case KOr:
		if e.Width == 1 {
			mineCandidates(e.A, want, add)
			mineCandidates(e.B, want, add)
			return
		}
	case KEq:
		if cv, ok := e.B.IsConst(); ok {
			if want {
				invertChain(e.A, cv, add)
			} else {
				invertChain(e.A, cv+1, add)
				invertChain(e.A, cv-1, add)
				invertChain(e.A, ^cv, add)
			}
			return
		}
		// var == var: try making both zero (fallbacks cover it).
	case KUlt:
		av, aok := e.A.IsConst()
		bv, bok := e.B.IsConst()
		switch {
		case bok && want: // x < c  ->  c-1, 0
			invertChain(e.A, bv-1, add)
			invertChain(e.A, 0, add)
		case bok && !want: // !(x < c) -> c, max
			invertChain(e.A, bv, add)
			invertChain(e.A, mask(e.A.Width), add)
		case aok && want: // c < x -> c+1, max
			invertChain(e.B, av+1, add)
			invertChain(e.B, mask(e.B.Width), add)
		case aok && !want: // !(c < x) -> c, 0
			invertChain(e.B, av, add)
			invertChain(e.B, 0, add)
		}
		return
	case KSlt:
		av, aok := e.A.IsConst()
		bv, bok := e.B.IsConst()
		switch {
		case bok && want:
			invertChain(e.A, bv-1, add)
			invertChain(e.A, uint64(signExtend(mask(e.A.Width)>>1, e.A.Width))+1, add) // min signed
		case bok && !want:
			invertChain(e.A, bv, add)
			invertChain(e.A, mask(e.A.Width)>>1, add) // max signed
		case aok && want:
			invertChain(e.B, av+1, add)
			invertChain(e.B, mask(e.B.Width)>>1, add)
		case aok && !want:
			invertChain(e.B, av, add)
		}
		return
	}
	// Generic: nothing structural; mine subtrees for embedded comparisons.
	if e.A != nil && e.A.Width == 1 {
		mineCandidates(e.A, want, add)
	}
	if e.B != nil && e.B.Width == 1 {
		mineCandidates(e.B, want, add)
	}
}

// invertChain propagates a target value backwards through invertible
// operator chains until reaching a variable.
func invertChain(e *Expr, target uint64, add func(string, uint64)) {
	for depth := 0; depth < 32; depth++ {
		target &= mask(e.Width)
		switch e.Kind {
		case KVar:
			add(e.Name, target)
			return
		case KAdd:
			if cv, ok := e.B.IsConst(); ok {
				target -= cv
				e = e.A
				continue
			}
			return
		case KSub:
			if cv, ok := e.B.IsConst(); ok {
				target += cv
				e = e.A
				continue
			}
			if cv, ok := e.A.IsConst(); ok {
				target = cv - target
				e = e.B
				continue
			}
			return
		case KXor:
			if cv, ok := e.B.IsConst(); ok {
				target ^= cv
				e = e.A
				continue
			}
			return
		case KNot:
			target = ^target
			e = e.A
			continue
		case KZext, KSext:
			e = e.A
			continue
		case KExtract:
			if e.Lo == 0 {
				e = e.A
				continue
			}
			target <<= e.Lo
			e = e.A
			continue
		case KConcat:
			// Push into the low part; high part handled when it is a var.
			loW := e.B.Width
			invertChain(e.B, target&mask(loW), add)
			invertChain(e.A, target>>loW, add)
			return
		case KShl:
			if cv, ok := e.B.IsConst(); ok {
				target >>= cv % uint64(e.Width)
				e = e.A
				continue
			}
			return
		case KLshr:
			if cv, ok := e.B.IsConst(); ok {
				target <<= cv % uint64(e.Width)
				e = e.A
				continue
			}
			return
		case KMul:
			if cv, ok := e.B.IsConst(); ok && cv != 0 && cv&(cv-1) == 0 {
				// Power-of-two multiplier: invert by shifting.
				shift := uint(0)
				for cv > 1 {
					cv >>= 1
					shift++
				}
				target >>= shift
				e = e.A
				continue
			}
			return
		default:
			return
		}
	}
}

// --- Parallel pool -----------------------------------------------------------

// Query is one independent constraint system handed to the pool.
type Query struct {
	ID          int
	Constraints []*Expr
}

// Answer is the pool's verdict on one query.
type Answer struct {
	ID     int
	Model  Model
	Result Result
}

// SolvePool solves queries concurrently (paper §3.4.4: "we collect the
// target constraints together and solve them in parallel"). workers <= 0
// uses one worker per query up to 8.
func SolvePool(queries []Query, workers int, maxConflicts int64) []Answer {
	answers, _ := SolvePoolStats(queries, workers, maxConflicts)
	return answers
}

// SolvePoolStats is SolvePool returning the merged solver statistics.
// Answers are returned in submission order — NOT completion order — so
// callers that act on models in sequence (the fuzzer turns them into
// adaptive seeds) behave identically regardless of worker scheduling.
func SolvePoolStats(queries []Query, workers int, maxConflicts int64) ([]Answer, SolverStats) {
	answers, stats, _ := SolvePoolCtx(context.Background(), queries, PoolOptions{
		Workers: workers, MaxConflicts: maxConflicts,
	})
	return answers, stats
}

// PoolOptions tunes SolvePoolCtx.
type PoolOptions struct {
	// Workers bounds pool concurrency (<= 0: one per query, capped at 8).
	Workers int
	// MaxConflicts bounds each query's SAT search (0 = default budget).
	MaxConflicts int64
	// Faults is the fault-injection hook: it is consulted once per query
	// and a non-nil error aborts the pool (the error is classified
	// solver-exhausted by the injector). Nil injects nothing.
	Faults *faultinject.Injector
	// Memo is the solver-query cache consulted before DPLL (nil: no
	// memoization). It is ignored whenever Faults is non-nil: a faulted
	// attempt must neither be served from nor feed the cache, so an
	// injected fault can never poison results shared with clean attempts.
	Memo SolverMemo
}

// SolvePoolCtx is the resilient form of SolvePoolStats: the context
// cancels in-flight SAT searches cooperatively (cancelled queries report
// Unknown), and the fault-injection hook can starve the pool's budget.
// The returned error is non-nil only when a fault fired; whether a fault
// fires depends on the injector's deterministic per-job call count, never
// on worker scheduling, so faulted campaigns stay worker-count invariant.
func SolvePoolCtx(ctx context.Context, queries []Query, opts PoolOptions) ([]Answer, SolverStats, error) {
	memo := opts.Memo
	if opts.Faults != nil {
		// Faulted attempts bypass the memo entirely (no read, no write,
		// no hit/miss accounting): results influenced by an injected
		// fault must never reach the shared cache, and cache hits must
		// never mask the planned fault. The fault hook below still runs
		// once per query first, so the injector's deterministic call
		// count is identical with the memo on or off.
		memo = nil
	}
	answers := make([]Answer, len(queries))
	var stats SolverStats
	// Memo hits are answered here, before any worker starts, so a batch
	// the memo answers in full starts no goroutine. Each miss keeps its
	// Canon for the Store after solving.
	type task struct {
		pos   int
		canon Canon
	}
	misses := make([]task, 0, len(queries))
	for i, q := range queries {
		var canon Canon
		if memo != nil {
			canon = Canonicalize(q.Constraints, opts.MaxConflicts)
			if v, ok := memo.Lookup(canon); ok {
				var m Model
				if v.Result == Sat {
					m = v.ModelFor(canon)
				}
				answers[i] = Answer{ID: q.ID, Model: m, Result: v.Result}
				// A hit still counts as a query (Queries stays
				// comparable memo-on vs memo-off) but skips the fast
				// path and DPLL, so SATCalls/FastPathHits record only
				// real solving work.
				stats.Queries++
				continue
			}
		}
		misses = append(misses, task{pos: i, canon: canon})
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 8
	}
	workers = min(workers, len(misses))
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		poolErr error
		aborted atomic.Bool
	)
	in := make(chan task)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range in {
				q := queries[t.pos]
				if aborted.Load() {
					answers[t.pos] = Answer{ID: q.ID, Result: Unknown}
					continue
				}
				if err := opts.Faults.SolverFault(); err != nil {
					aborted.Store(true)
					mu.Lock()
					if poolErr == nil {
						poolErr = err
					}
					mu.Unlock()
					answers[t.pos] = Answer{ID: q.ID, Result: Unknown}
					continue
				}
				s := &Solver{MaxConflicts: opts.MaxConflicts, Stop: ctx.Done()}
				m, r := s.Solve(q.Constraints)
				if memo != nil && (r == Sat || r == Unsat) {
					memo.Store(t.canon, VerdictOf(t.canon, m, r))
				}
				answers[t.pos] = Answer{ID: q.ID, Model: m, Result: r}
				mu.Lock()
				stats.Queries += s.Stats.Queries
				stats.FastPathHits += s.Stats.FastPathHits
				stats.SATCalls += s.Stats.SATCalls
				stats.SATConflicts += s.Stats.SATConflicts
				stats.Unknowns += s.Stats.Unknowns
				stats.Propagations += s.Stats.Propagations
				mu.Unlock()
			}
		}()
	}
	for _, t := range misses {
		in <- t
	}
	close(in)
	wg.Wait()
	return answers, stats, poolErr
}
