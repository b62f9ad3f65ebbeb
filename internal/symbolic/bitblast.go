package symbolic

import (
	"fmt"
	"math/bits"
)

// bitblast.go lowers bitvector expressions to CNF over the CDCL core via
// Tseitin encoding: one SAT variable per bit, gate clauses per operator.

type blaster struct {
	//wasai:localcache solver instance scoped to one query (Solve), discarded
	// with the blaster; learned clauses never outlive the query.
	sat *SAT
	// Per-query Tseitin memo, dead once the query is solved — not a
	// cross-job cache (those must go through internal/memo).
	//wasai:localcache single-query node->literal memo, discarded with the blaster
	cache map[*Expr][]Lit
	vars  map[string][]Lit // BV variable name -> bit literals (LSB first)
	tru   Lit              // literal forced true
}

func newBlaster() *blaster {
	b := &blaster{sat: NewSAT(0), cache: map[*Expr][]Lit{}, vars: map[string][]Lit{}}
	v := b.sat.AddVar()
	b.tru = MkLit(v, false)
	b.sat.AddClause(b.tru)
	return b
}

func (b *blaster) fls() Lit { return b.tru.Flip() }

func (b *blaster) lit(val bool) Lit {
	if val {
		return b.tru
	}
	return b.fls()
}

func (b *blaster) fresh() Lit { return MkLit(b.sat.AddVar(), false) }

// gate helpers -------------------------------------------------------------

func (b *blaster) andGate(a, c Lit) Lit {
	if a == b.fls() || c == b.fls() {
		return b.fls()
	}
	if a == b.tru {
		return c
	}
	if c == b.tru {
		return a
	}
	if a == c {
		return a
	}
	if a == c.Flip() {
		return b.fls()
	}
	o := b.fresh()
	b.sat.AddClause(a.Flip(), c.Flip(), o)
	b.sat.AddClause(a, o.Flip())
	b.sat.AddClause(c, o.Flip())
	return o
}

func (b *blaster) orGate(a, c Lit) Lit { return b.andGate(a.Flip(), c.Flip()).Flip() }

func (b *blaster) xorGate(a, c Lit) Lit {
	if a == b.fls() {
		return c
	}
	if c == b.fls() {
		return a
	}
	if a == b.tru {
		return c.Flip()
	}
	if c == b.tru {
		return a.Flip()
	}
	if a == c {
		return b.fls()
	}
	if a == c.Flip() {
		return b.tru
	}
	o := b.fresh()
	b.sat.AddClause(a.Flip(), c.Flip(), o.Flip())
	b.sat.AddClause(a, c, o.Flip())
	b.sat.AddClause(a.Flip(), c, o)
	b.sat.AddClause(a, c.Flip(), o)
	return o
}

// muxGate returns s ? t : f.
func (b *blaster) muxGate(s, t, f Lit) Lit {
	if s == b.tru {
		return t
	}
	if s == b.fls() {
		return f
	}
	if t == f {
		return t
	}
	o := b.fresh()
	b.sat.AddClause(s.Flip(), t.Flip(), o)
	b.sat.AddClause(s.Flip(), t, o.Flip())
	b.sat.AddClause(s, f.Flip(), o)
	b.sat.AddClause(s, f, o.Flip())
	return o
}

// fullAdder returns (sum, carryOut).
func (b *blaster) fullAdder(a, c, cin Lit) (Lit, Lit) {
	sum := b.xorGate(b.xorGate(a, c), cin)
	carry := b.orGate(b.andGate(a, c), b.andGate(cin, b.xorGate(a, c)))
	return sum, carry
}

// addBits returns a+c (+cin) with the final carry.
func (b *blaster) addBits(a, c []Lit, cin Lit) ([]Lit, Lit) {
	out := make([]Lit, len(a))
	carry := cin
	for i := range a {
		out[i], carry = b.fullAdder(a[i], c[i], carry)
	}
	return out, carry
}

func (b *blaster) negBits(a []Lit) []Lit {
	inv := make([]Lit, len(a))
	for i := range a {
		inv[i] = a[i].Flip()
	}
	out, _ := b.addBits(inv, b.constBits(0, len(a)), b.tru)
	return out
}

func (b *blaster) constBits(v uint64, w int) []Lit {
	out := make([]Lit, w)
	for i := 0; i < w; i++ {
		out[i] = b.lit(v>>i&1 == 1)
	}
	return out
}

// ultBits returns the literal for unsigned a < c.
func (b *blaster) ultBits(a, c []Lit) Lit {
	// a < c  <=>  NOT carryOut(a + ~c + 1)
	inv := make([]Lit, len(c))
	for i := range c {
		inv[i] = c[i].Flip()
	}
	_, carry := b.addBits(a, inv, b.tru)
	return carry.Flip()
}

func (b *blaster) eqBits(a, c []Lit) Lit {
	acc := b.tru
	for i := range a {
		acc = b.andGate(acc, b.xorGate(a[i], c[i]).Flip())
	}
	return acc
}

// blast returns the bit literals of e (LSB first).
func (b *blaster) blast(e *Expr) ([]Lit, error) {
	if out, ok := b.cache[e]; ok {
		return out, nil
	}
	out, err := b.blastUncached(e)
	if err != nil {
		return nil, err
	}
	b.cache[e] = out
	return out, nil
}

func (b *blaster) blastUncached(e *Expr) ([]Lit, error) {
	w := int(e.Width)
	switch e.Kind {
	case KConst:
		return b.constBits(e.Val, w), nil
	case KVar:
		// A variable may appear at several widths (Eval truncates the same
		// 64-bit model value), so the canonical SAT encoding is 64 bits per
		// name, sliced to the requested width.
		lits, ok := b.vars[e.Name]
		if !ok {
			lits = make([]Lit, 64)
			for i := range lits {
				lits[i] = b.fresh()
			}
			b.vars[e.Name] = lits
		}
		return lits[:w], nil
	case KNot:
		a, err := b.blast(e.A)
		if err != nil {
			return nil, err
		}
		out := make([]Lit, w)
		for i := range out {
			out[i] = a[i].Flip()
		}
		return out, nil
	case KAnd, KOr, KXor:
		a, err := b.blast(e.A)
		if err != nil {
			return nil, err
		}
		c, err := b.blast(e.B)
		if err != nil {
			return nil, err
		}
		out := make([]Lit, w)
		for i := range out {
			switch e.Kind {
			case KAnd:
				out[i] = b.andGate(a[i], c[i])
			case KOr:
				out[i] = b.orGate(a[i], c[i])
			default:
				out[i] = b.xorGate(a[i], c[i])
			}
		}
		return out, nil
	case KAdd, KSub:
		a, err := b.blast(e.A)
		if err != nil {
			return nil, err
		}
		c, err := b.blast(e.B)
		if err != nil {
			return nil, err
		}
		if e.Kind == KAdd {
			out, _ := b.addBits(a, c, b.fls())
			return out, nil
		}
		inv := make([]Lit, len(c))
		for i := range c {
			inv[i] = c[i].Flip()
		}
		out, _ := b.addBits(a, inv, b.tru)
		return out, nil
	case KMul:
		a, err := b.blast(e.A)
		if err != nil {
			return nil, err
		}
		c, err := b.blast(e.B)
		if err != nil {
			return nil, err
		}
		acc := b.constBits(0, w)
		for i := 0; i < w; i++ {
			// partial product: (a << i) & c[i]
			pp := make([]Lit, w)
			for j := 0; j < w; j++ {
				if j < i {
					pp[j] = b.fls()
				} else {
					pp[j] = b.andGate(a[j-i], c[i])
				}
			}
			acc, _ = b.addBits(acc, pp, b.fls())
		}
		return acc, nil
	case KEq:
		a, err := b.blast(e.A)
		if err != nil {
			return nil, err
		}
		c, err := b.blast(e.B)
		if err != nil {
			return nil, err
		}
		return []Lit{b.eqBits(a, c)}, nil
	case KUlt:
		a, err := b.blast(e.A)
		if err != nil {
			return nil, err
		}
		c, err := b.blast(e.B)
		if err != nil {
			return nil, err
		}
		return []Lit{b.ultBits(a, c)}, nil
	case KSlt:
		a, err := b.blast(e.A)
		if err != nil {
			return nil, err
		}
		c, err := b.blast(e.B)
		if err != nil {
			return nil, err
		}
		n := len(a)
		sa, sc := a[n-1], c[n-1]
		diff := b.xorGate(sa, sc)
		// Different signs: a<b iff a negative. Same signs: unsigned compare.
		return []Lit{b.muxGate(diff, sa, b.ultBits(a, c))}, nil
	case KIte:
		s, err := b.blast(e.A)
		if err != nil {
			return nil, err
		}
		t, err := b.blast(e.B)
		if err != nil {
			return nil, err
		}
		f, err := b.blast(e.C)
		if err != nil {
			return nil, err
		}
		out := make([]Lit, w)
		for i := range out {
			out[i] = b.muxGate(s[0], t[i], f[i])
		}
		return out, nil
	case KConcat:
		hi, err := b.blast(e.A)
		if err != nil {
			return nil, err
		}
		lo, err := b.blast(e.B)
		if err != nil {
			return nil, err
		}
		return append(append([]Lit{}, lo...), hi...), nil
	case KExtract:
		a, err := b.blast(e.A)
		if err != nil {
			return nil, err
		}
		return append([]Lit{}, a[e.Lo:e.Hi+1]...), nil
	case KZext:
		a, err := b.blast(e.A)
		if err != nil {
			return nil, err
		}
		out := append([]Lit{}, a...)
		for len(out) < w {
			out = append(out, b.fls())
		}
		return out, nil
	case KSext:
		a, err := b.blast(e.A)
		if err != nil {
			return nil, err
		}
		out := append([]Lit{}, a...)
		sign := a[len(a)-1]
		for len(out) < w {
			out = append(out, sign)
		}
		return out, nil
	case KPopcnt:
		a, err := b.blast(e.A)
		if err != nil {
			return nil, err
		}
		acc := b.constBits(0, w)
		for i := 0; i < w; i++ {
			bit := make([]Lit, w)
			bit[0] = a[i]
			for j := 1; j < w; j++ {
				bit[j] = b.fls()
			}
			acc, _ = b.addBits(acc, bit, b.fls())
		}
		return acc, nil
	case KShl, KLshr, KAshr, KRotl, KRotr:
		return b.blastShift(e)
	case KUDiv, KURem, KSDiv, KSRem:
		return b.blastDiv(e)
	default:
		// Unsupported expression shapes make the query fall back to Unknown
		// at the solver layer; they are not a job failure.
		return nil, fmt.Errorf("symbolic: cannot bit-blast %s", e.Kind) //wasai:rawerr solver falls back to Unknown
	}
}

// blastShift implements shifts/rotates with a barrel shifter. Shift amounts
// follow the expression semantics: amount mod width.
func (b *blaster) blastShift(e *Expr) ([]Lit, error) {
	w := int(e.Width)
	a, err := b.blast(e.A)
	if err != nil {
		return nil, err
	}
	amt, err := b.blast(e.B)
	if err != nil {
		return nil, err
	}
	if w&(w-1) != 0 {
		return nil, fmt.Errorf("symbolic: variable shift on non-power-of-two width %d", w) //wasai:rawerr solver falls back to Unknown
	}
	stages := bits.TrailingZeros(uint(w)) // log2(w)
	cur := append([]Lit{}, a...)
	for s := 0; s < stages; s++ {
		sh := 1 << s
		next := make([]Lit, w)
		for i := 0; i < w; i++ {
			var shifted Lit
			switch e.Kind {
			case KShl:
				if i >= sh {
					shifted = cur[i-sh]
				} else {
					shifted = b.fls()
				}
			case KLshr:
				if i+sh < w {
					shifted = cur[i+sh]
				} else {
					shifted = b.fls()
				}
			case KAshr:
				if i+sh < w {
					shifted = cur[i+sh]
				} else {
					shifted = cur[w-1]
				}
			case KRotl:
				shifted = cur[(i-sh+w)%w]
			default: // KRotr
				shifted = cur[(i+sh)%w]
			}
			next[i] = b.muxGate(amt[s], shifted, cur[i])
		}
		cur = next
	}
	return cur, nil
}

// blastDiv encodes division/remainder through the multiplication relation
// q*d + r = n with r < d (d != 0), and the SMT-LIB total semantics for
// d == 0. Signed variants are reduced to unsigned via sign/magnitude.
// Solutions are verified by the caller with Eval, which rejects the rare
// spurious models the truncated multiplication could admit.
func (b *blaster) blastDiv(e *Expr) ([]Lit, error) {
	w := int(e.Width)
	n, err := b.blast(e.A)
	if err != nil {
		return nil, err
	}
	d, err := b.blast(e.B)
	if err != nil {
		return nil, err
	}
	if e.Kind == KSDiv || e.Kind == KSRem {
		// |a| op |b| with result sign fixed up via mux.
		signA, signB := n[len(n)-1], d[len(d)-1]
		absA := b.absBits(n, signA)
		absB := b.absBits(d, signB)
		q, r := b.udivBits(absA, absB)
		if e.Kind == KSDiv {
			neg := b.xorGate(signA, signB)
			return b.condNeg(q, neg), nil
		}
		return b.condNeg(r, signA), nil
	}
	q, r := b.udivBits(n, d)
	// d == 0 total semantics: q = all ones, r = n.
	isZero := b.eqBits(d, b.constBits(0, w))
	outQ := make([]Lit, w)
	outR := make([]Lit, w)
	for i := 0; i < w; i++ {
		outQ[i] = b.muxGate(isZero, b.tru, q[i])
		outR[i] = b.muxGate(isZero, n[i], r[i])
	}
	if e.Kind == KUDiv {
		return outQ, nil
	}
	return outR, nil
}

func (b *blaster) absBits(a []Lit, sign Lit) []Lit {
	neg := b.negBits(a)
	out := make([]Lit, len(a))
	for i := range a {
		out[i] = b.muxGate(sign, neg[i], a[i])
	}
	return out
}

func (b *blaster) condNeg(a []Lit, neg Lit) []Lit {
	n := b.negBits(a)
	out := make([]Lit, len(a))
	for i := range a {
		out[i] = b.muxGate(neg, n[i], a[i])
	}
	return out
}

// udivBits introduces fresh q, r with q*d + r = n and r < d (when d != 0).
func (b *blaster) udivBits(n, d []Lit) (q, r []Lit) {
	w := len(n)
	q = make([]Lit, w)
	r = make([]Lit, w)
	for i := 0; i < w; i++ {
		q[i] = b.fresh()
		r[i] = b.fresh()
	}
	// q*d + r == n without overflow: every partial-product bit that would
	// land beyond width w is forced to zero, and no addition may carry out,
	// so the relation holds over the integers, not just mod 2^w.
	prod := b.constBits(0, w)
	for i := 0; i < w; i++ {
		pp := make([]Lit, w)
		for j := 0; j < w; j++ {
			if j < i {
				pp[j] = b.fls()
			} else {
				pp[j] = b.andGate(q[j-i], d[i])
			}
		}
		for j := w - i; j < w; j++ {
			// q[j]*d[i] would occupy bit j+i >= w: forbid it.
			b.sat.AddClause(q[j].Flip(), d[i].Flip())
		}
		var carry Lit
		prod, carry = b.addBits(prod, pp, b.fls())
		b.sat.AddClause(carry.Flip())
	}
	sum, carry := b.addBits(prod, r, b.fls())
	b.sat.AddClause(carry.Flip())
	b.sat.AddClause(b.eqBits(sum, n))
	// d != 0 -> r < d : clause (dIsZero OR r<d)
	dZero := b.eqBits(d, b.constBits(0, w))
	b.sat.AddClause(dZero, b.ultBits(r, d))
	return q, r
}

// assert constrains a 1-bit expression to be true.
func (b *blaster) assert(e *Expr) error {
	lits, err := b.blast(e)
	if err != nil {
		return err
	}
	b.sat.AddClause(lits[0])
	return nil
}

// model extracts variable values after a SAT result.
func (b *blaster) model() Model {
	m := Model{}
	for name, lits := range b.vars {
		var v uint64
		for i, l := range lits {
			bit := b.sat.ValueOf(l.Var())
			if l.Neg() {
				bit = !bit
			}
			if bit {
				v |= 1 << i
			}
		}
		m[name] = v
	}
	return m
}
