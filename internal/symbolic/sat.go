package symbolic

// sat.go implements a CDCL SAT solver: two-watched-literal propagation,
// first-UIP conflict analysis with clause learning, VSIDS-style activity
// decay, phase saving, and Luby restarts. It is the decision procedure the
// bit-blaster targets, playing the role of Z3's SAT core.

// Lit is a literal: variable index shifted left, low bit = negated.
type Lit int32

// MkLit builds a literal for variable v (0-based), negated when neg.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Flip returns the complementary literal.
func (l Lit) Flip() Lit { return l ^ 1 }

type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

type clause struct {
	lits     []Lit
	learned  bool
	activity float64
}

// SAT is a CDCL solver instance. Create with NewSAT, add clauses, Solve.
type SAT struct {
	clauses  []*clause
	watches  [][]*clause // literal -> clauses watching it
	assign   []lbool     // variable -> value
	level    []int32     // variable -> decision level
	reason   []*clause   // variable -> implying clause
	trail    []Lit
	trailLim []int // decision-level boundaries in trail
	qhead    int

	activity  []float64
	varInc    float64
	heap      []int // indexed binary max-heap of branch candidates, keyed on activity
	hpos      []int // variable -> index in heap, -1 when absent
	phase     []bool
	conflicts int64
	props     int64 // literals dequeued by unit propagation

	// MaxConflicts bounds the search; 0 means unlimited. Exceeding it makes
	// Solve return unknown (false, false).
	MaxConflicts int64
	// Stop interrupts the search cooperatively: Solve polls the channel
	// every few hundred loop iterations and returns unknown (false, false)
	// once it is closed. This is the cancellation checkpoint inside the
	// DPLL loop — a timed-out campaign job must stop burning its worker
	// even mid-query, not merely be abandoned by its caller.
	Stop <-chan struct{}

	unsat bool
}

// NewSAT returns a solver with n variables (indices 0..n-1).
func NewSAT(n int) *SAT {
	s := &SAT{
		watches:  make([][]*clause, 2*n),
		assign:   make([]lbool, n),
		level:    make([]int32, n),
		reason:   make([]*clause, n),
		activity: make([]float64, n),
		phase:    make([]bool, n),
		varInc:   1,
		heap:     make([]int, n),
		hpos:     make([]int, n),
	}
	// All activities start equal, so ascending variable order is already a
	// valid heap under better (ties break toward the lower index).
	for v := 0; v < n; v++ {
		s.heap[v], s.hpos[v] = v, v
	}
	return s
}

// NumVars returns the variable count.
func (s *SAT) NumVars() int { return len(s.assign) }

// AddVar appends a fresh variable and returns its index.
func (s *SAT) AddVar() int {
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.watches = append(s.watches, nil, nil)
	v := len(s.assign) - 1
	s.hpos = append(s.hpos, -1)
	s.heapPush(v)
	return v
}

// --- branching heap ---------------------------------------------------------
//
// The heap keeps every unassigned variable (plus, lazily, variables assigned
// since their last push — pickBranch discards those on pop). It replaces a
// linear scan over all variables per decision with O(log n) operations.

// better orders the heap: higher activity wins, ties break toward the lower
// variable index — exactly the variable the old linear scan selected, so
// decision sequences (and therefore models and digests) are unchanged.
func (s *SAT) better(a, b int) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *SAT) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.better(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.hpos[s.heap[i]] = i
		i = p
	}
	s.heap[i] = v
	s.hpos[v] = i
}

func (s *SAT) heapDown(i int) {
	v := s.heap[i]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.better(s.heap[r], s.heap[c]) {
			c = r
		}
		if !s.better(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.hpos[s.heap[i]] = i
		i = c
	}
	s.heap[i] = v
	s.hpos[v] = i
}

func (s *SAT) heapPush(v int) {
	if s.hpos[v] >= 0 {
		return
	}
	s.heap = append(s.heap, v)
	s.hpos[v] = len(s.heap) - 1
	s.heapUp(len(s.heap) - 1)
}

func (s *SAT) heapPop() int {
	v := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.hpos[s.heap[0]] = 0
	s.heap = s.heap[:last]
	s.hpos[v] = -1
	if last > 0 {
		s.heapDown(0)
	}
	return v
}

func (s *SAT) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if l.Neg() {
		return -v
	}
	return v
}

// AddClause adds a clause; duplicate and trivially-true clauses are
// simplified away. Returns false if the formula became trivially UNSAT.
func (s *SAT) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	// Simplify: remove duplicates and false literals at level 0, detect taut.
	seen := map[Lit]bool{}
	var out []Lit
	for _, l := range lits {
		if seen[l] {
			continue
		}
		if seen[l.Flip()] {
			return true // tautology
		}
		if len(s.trailLim) == 0 {
			switch s.value(l) {
			case lTrue:
				return true
			case lFalse:
				continue
			}
		}
		seen[l] = true
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if !s.enqueue(out[0], nil) {
			s.unsat = true
			return false
		}
		if conf := s.propagate(); conf != nil {
			s.unsat = true
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *SAT) watch(c *clause) {
	// Watch the first two literals.
	s.watches[c.lits[0].Flip()] = append(s.watches[c.lits[0].Flip()], c)
	s.watches[c.lits[1].Flip()] = append(s.watches[c.lits[1].Flip()], c)
}

func (s *SAT) enqueue(l Lit, from *clause) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation; it returns a conflicting clause or nil.
func (s *SAT) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		s.props++
		ws := s.watches[p]
		s.watches[p] = ws[:0:0] // rebuilt below
		kept := s.watches[p]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			// Normalize: watched literal being falsified at lits[1].
			if c.lits[0].Flip() == p {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Flip()] = append(s.watches[c.lits[1].Flip()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflict.
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				// Conflict: restore remaining watches and report.
				kept = append(kept, ws[i+1:]...)
				s.watches[p] = kept
				return c
			}
		}
		s.watches[p] = kept
	}
	return nil
}

func (s *SAT) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		// Rescaling multiplies every activity by the same factor, so the
		// heap order is untouched.
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.hpos[v] >= 0 {
		s.heapUp(s.hpos[v])
	}
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backtrack level.
func (s *SAT) analyze(conf *clause) ([]Lit, int) {
	curLevel := int32(len(s.trailLim))
	seen := make(map[int]bool)
	var learned []Lit
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	c := conf

	for {
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal slot
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == curLevel {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Pick the next literal on the trail to resolve on.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[v]
	}
	learned = append([]Lit{p.Flip()}, learned...)

	// Backtrack level: second-highest level in the clause.
	btLevel := 0
	for i := 1; i < len(learned); i++ {
		if int(s.level[learned[i].Var()]) > btLevel {
			btLevel = int(s.level[learned[i].Var()])
		}
	}
	return learned, btLevel
}

func (s *SAT) backtrack(level int) {
	if len(s.trailLim) <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = nil
		s.heapPush(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = bound
}

// pickBranch selects the unassigned variable with the highest activity
// (ties toward the lower index) by popping the heap; entries assigned since
// their push are discarded lazily, and backtrack re-inserts what it frees.
func (s *SAT) pickBranch() int {
	for len(s.heap) > 0 {
		if v := s.heapPop(); s.assign[v] == lUndef {
			return v
		}
	}
	return -1
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i >= 1<<(k-1) && i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// Solve searches for a satisfying assignment. It returns (sat, ok): ok is
// false when the conflict budget was exhausted or Stop fired (result
// unknown). MaxConflicts bounds each call independently.
func (s *SAT) Solve() (bool, bool) {
	if s.unsat {
		return false, true
	}
	// A repeated call starts again from the root level (level-0 facts are
	// permanent).
	s.backtrack(0)
	if conf := s.propagate(); conf != nil {
		s.unsat = true
		return false, true
	}
	start := s.conflicts
	restart := int64(1)
	restartBudget := luby(restart) * 100

	for steps := 0; ; steps++ {
		if steps&255 == 0 && s.Stop != nil {
			select {
			case <-s.Stop:
				return false, false
			default:
			}
		}
		conf := s.propagate()
		if conf != nil {
			s.conflicts++
			if s.MaxConflicts > 0 && s.conflicts-start > s.MaxConflicts {
				return false, false
			}
			if len(s.trailLim) == 0 {
				s.unsat = true
				return false, true // conflict at root
			}
			learned, btLevel := s.analyze(conf)
			s.backtrack(btLevel)
			if len(learned) == 1 {
				if !s.enqueue(learned[0], nil) {
					if len(s.trailLim) == 0 {
						s.unsat = true
					}
					return false, true
				}
			} else {
				c := &clause{lits: learned, learned: true}
				s.clauses = append(s.clauses, c)
				s.watch(c)
				if !s.enqueue(learned[0], c) {
					if len(s.trailLim) == 0 {
						s.unsat = true
					}
					return false, true
				}
			}
			s.varInc *= 1.05
			restartBudget--
			if restartBudget <= 0 {
				restart++
				restartBudget = luby(restart) * 100
				s.backtrack(0)
			}
			continue
		}
		v := s.pickBranch()
		if v < 0 {
			return true, true // all assigned, no conflict
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		if !s.enqueue(MkLit(v, !s.phase[v]), nil) {
			// Cannot happen: v was unassigned.
			return false, true
		}
	}
}

// ValueOf returns the assignment of variable v after a SAT result.
func (s *SAT) ValueOf(v int) bool { return s.assign[v] == lTrue }
