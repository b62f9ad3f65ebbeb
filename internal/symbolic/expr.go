// Package symbolic is the SMT backend of WASAI, substituting for Z3 in the
// paper's implementation. It provides:
//
//   - a hash-consed quantifier-free bitvector expression DAG (widths 1-64)
//     with aggressive constant folding and algebraic simplification, the
//     analogue of Z3's BitVec terms;
//   - a concrete evaluator used for concolic replay and model checking;
//   - a complete solver for conjunctions of constraints: a concrete-probing
//     fast path (boundary/equality candidate propagation, the common case
//     for fuzzing constraints) backed by bit-blasting to CNF and a
//     from-scratch CDCL SAT solver with two-watched literals, VSIDS
//     activity, first-UIP clause learning and Luby restarts.
//
// WASAI's queries are exactly the QF_BV fragment (flipped branch conditions
// over symbolic transaction inputs), which Z3 itself discharges by
// bit-blasting to CDCL — so the substitution preserves both the interface
// and the decision procedure.
package symbolic

import (
	"fmt"
	"math/bits"
	"strings"
)

// Kind enumerates expression node kinds.
type Kind uint8

// Expression kinds. Booleans are 1-bit vectors, so comparison results
// compose with bitwise operators directly (matching Wasm's i32 0/1
// comparison results after Extract).
const (
	KConst Kind = iota + 1
	KVar
	KAdd
	KSub
	KMul
	KUDiv
	KSDiv
	KURem
	KSRem
	KAnd
	KOr
	KXor
	KNot // bitwise complement
	KShl
	KLshr
	KAshr
	KConcat  // A is high bits, B is low bits
	KExtract // bits [Hi:Lo] of A
	KZext
	KSext
	KEq  // 1-bit result
	KUlt // 1-bit result
	KSlt // 1-bit result
	KIte // A ? B : C, A is 1-bit
	KRotl
	KRotr
	KPopcnt // population count of A (same width)
)

func (k Kind) String() string {
	names := map[Kind]string{
		KConst: "const", KVar: "var", KAdd: "add", KSub: "sub", KMul: "mul",
		KUDiv: "udiv", KSDiv: "sdiv", KURem: "urem", KSRem: "srem",
		KAnd: "and", KOr: "or", KXor: "xor", KNot: "not",
		KShl: "shl", KLshr: "lshr", KAshr: "ashr",
		KConcat: "concat", KExtract: "extract", KZext: "zext", KSext: "sext",
		KEq: "eq", KUlt: "ult", KSlt: "slt", KIte: "ite",
		KRotl: "rotl", KRotr: "rotr", KPopcnt: "popcnt",
	}
	if n, ok := names[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Expr is one node of the hash-consed expression DAG. Exprs are immutable
// and pointer-comparable within one Ctx.
type Expr struct {
	Kind  Kind
	Width uint8 // result width in bits, 1..64
	Val   uint64
	Name  string // KVar only
	A     *Expr
	B     *Expr
	C     *Expr
	// Hi and Lo parameterize KExtract.
	Hi, Lo uint8

	// hash is the full structural content hash (variable names included)
	// and shape the name-blind variant (every variable hashes as its
	// width alone). Both are computed once at intern time from the
	// children's precomputed hashes, so structural hashing of a DAG node
	// is O(1) — the hash-consing payoff canonicalization relies on.
	hash  uint64
	shape uint64
}

// Hash returns the structural content hash of e: equal across Ctxs for
// structurally equal expressions, variable names included.
func (e *Expr) Hash() uint64 { return e.hash }

// ShapeHash returns the name-blind structural hash of e: two expressions
// that differ only by a bijective renaming of variables (of equal widths)
// share a shape hash. Used to sort clauses without looking at names, so
// the sort itself is α-invariant.
func (e *Expr) ShapeHash() uint64 { return e.shape }

// exprKey is the structural identity used for hash-consing.
type exprKey struct {
	kind    Kind
	width   uint8
	hi, lo  uint8
	val     uint64
	name    string
	a, b, c *Expr
}

// Ctx interns expressions. All expressions combined in one formula must
// come from the same Ctx. A Ctx is not safe for concurrent use; the solver
// pool gives each worker its own.
type Ctx struct {
	interned map[exprKey]*Expr
	// fresh counts anonymous variables (symbolic load objects).
	fresh int
	// nodes is the chunk intern allocates nodes from, nodeChunk at a
	// time. Reset never rewinds it, so no slot is ever handed out twice:
	// a node built before the reset may still be referenced, by a solver
	// query for one. The next node takes the next free slot.
	nodes []Expr
}

// nodeChunk is how many nodes one chunk of a Ctx holds.
const nodeChunk = 128

// NewCtx returns an empty context.
func NewCtx() *Ctx { return &Ctx{interned: map[exprKey]*Expr{}} }

// Reset empties c for reuse, keeping the intern table's storage: it then
// builds the same expressions, Fresh names included, that a new context
// would. Expressions built before the reset stay readable but are no
// longer interned, so they must not be combined with ones built after.
func (c *Ctx) Reset() {
	clear(c.interned)
	c.fresh = 0
}

// NumNodes returns the number of distinct nodes interned.
func (c *Ctx) NumNodes() int { return len(c.interned) }

func (c *Ctx) intern(k exprKey) *Expr {
	if e, ok := c.interned[k]; ok {
		return e
	}
	if len(c.nodes) == cap(c.nodes) {
		c.nodes = make([]Expr, 0, nodeChunk)
	}
	c.nodes = append(c.nodes, Expr{
		Kind: k.kind, Width: k.width, Val: k.val, Name: k.name,
		A: k.a, B: k.b, C: k.c, Hi: k.hi, Lo: k.lo,
	})
	e := &c.nodes[len(c.nodes)-1]
	e.hash, e.shape = hashNode(e)
	c.interned[k] = e
	return e
}

// hashNode computes the content and shape hashes of a node whose children
// are already interned (and so already carry their hashes). FNV-1a over
// the node's own fields mixed with the children's hashes.
func hashNode(e *Expr) (hash, shape uint64) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	mix := func(h, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
		return h
	}
	h := mix(offset, uint64(e.Kind))
	h = mix(h, uint64(e.Width)|uint64(e.Hi)<<8|uint64(e.Lo)<<16)
	h = mix(h, e.Val)
	s := h
	if e.Kind == KVar {
		for i := 0; i < len(e.Name); i++ {
			h ^= uint64(e.Name[i])
			h *= prime
		}
		// shape deliberately excludes the name: a variable's shape is
		// its kind and width alone.
	}
	for _, x := range []*Expr{e.A, e.B, e.C} {
		if x == nil {
			h = mix(h, 0)
			s = mix(s, 0)
			continue
		}
		h = mix(h, x.hash)
		s = mix(s, x.shape)
	}
	return h, s
}

func mask(w uint8) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (1 << w) - 1
}

// signExtend sign-extends the w-bit value v to 64 bits.
func signExtend(v uint64, w uint8) int64 {
	if w >= 64 {
		return int64(v)
	}
	shift := 64 - uint(w)
	return int64(v<<shift) >> shift
}

// Const builds a w-bit constant.
func (c *Ctx) Const(v uint64, w uint8) *Expr {
	return c.intern(exprKey{kind: KConst, width: w, val: v & mask(w)})
}

// True and False are the 1-bit boolean constants.
func (c *Ctx) True() *Expr  { return c.Const(1, 1) }
func (c *Ctx) False() *Expr { return c.Const(0, 1) }

// Var builds (or returns) the named w-bit variable.
func (c *Ctx) Var(name string, w uint8) *Expr {
	return c.intern(exprKey{kind: KVar, width: w, name: name})
}

// Fresh builds an anonymous variable with the given prefix — used for the
// symbolic load objects ⟨a, s⟩ of paper §3.4.1.
func (c *Ctx) Fresh(prefix string, w uint8) *Expr {
	c.fresh++
	return c.Var(fmt.Sprintf("%s!%d", prefix, c.fresh), w)
}

// IsConst reports whether e is a constant, returning its value.
func (e *Expr) IsConst() (uint64, bool) {
	if e.Kind == KConst {
		return e.Val, true
	}
	return 0, false
}

// IsTrue reports a constant 1-bit 1.
func (e *Expr) IsTrue() bool { return e.Kind == KConst && e.Width == 1 && e.Val == 1 }

// IsFalse reports a constant 1-bit 0.
func (e *Expr) IsFalse() bool { return e.Kind == KConst && e.Width == 1 && e.Val == 0 }

// binop builds a simplified binary node.
func (c *Ctx) binop(k Kind, a, b *Expr) *Expr {
	if a.Width != b.Width {
		panic(fmt.Sprintf("symbolic: width mismatch %s: %d vs %d", k, a.Width, b.Width))
	}
	w := a.Width
	av, aConst := a.IsConst()
	bv, bConst := b.IsConst()
	if aConst && bConst {
		if v, ok := foldBin(k, av, bv, w); ok {
			return c.Const(v, w)
		}
	}
	// Commutative normalization: constants to the right.
	switch k {
	case KAdd, KMul, KAnd, KOr, KXor:
		if aConst && !bConst {
			a, b = b, a
			av, aConst, bv, bConst = bv, bConst, av, aConst
		}
	}
	// Identity / absorption rules.
	switch k {
	case KAdd:
		if bConst && bv == 0 {
			return a
		}
	case KSub:
		if bConst && bv == 0 {
			return a
		}
		if a == b {
			return c.Const(0, w)
		}
	case KMul:
		if bConst {
			switch bv {
			case 0:
				return c.Const(0, w)
			case 1:
				return a
			}
		}
	case KAnd:
		if bConst {
			if bv == 0 {
				return c.Const(0, w)
			}
			if bv == mask(w) {
				return a
			}
		}
		if a == b {
			return a
		}
	case KOr:
		if bConst {
			if bv == 0 {
				return a
			}
			if bv == mask(w) {
				return c.Const(mask(w), w)
			}
		}
		if a == b {
			return a
		}
	case KXor:
		if bConst && bv == 0 {
			return a
		}
		if a == b {
			return c.Const(0, w)
		}
	case KShl, KLshr, KAshr:
		if bConst && bv == 0 {
			return a
		}
	case KUDiv, KSDiv:
		if bConst && bv == 1 {
			return a
		}
	}
	return c.intern(exprKey{kind: k, width: w, a: a, b: b})
}

func foldBin(k Kind, a, b uint64, w uint8) (uint64, bool) {
	m := mask(w)
	switch k {
	case KAdd:
		return (a + b) & m, true
	case KSub:
		return (a - b) & m, true
	case KMul:
		return (a * b) & m, true
	case KUDiv:
		if b == 0 {
			return 0, false
		}
		return (a / b) & m, true
	case KSDiv:
		if b == 0 {
			return 0, false
		}
		sa, sb := signExtend(a, w), signExtend(b, w)
		if sb == 0 {
			return 0, false
		}
		if sa == -1<<63 && sb == -1 {
			return uint64(sa) & m, true
		}
		return uint64(sa/sb) & m, true
	case KURem:
		if b == 0 {
			return 0, false
		}
		return (a % b) & m, true
	case KSRem:
		sa, sb := signExtend(a, w), signExtend(b, w)
		if sb == 0 {
			return 0, false
		}
		if sa == -1<<63 && sb == -1 {
			return 0, true
		}
		return uint64(sa%sb) & m, true
	case KAnd:
		return a & b, true
	case KOr:
		return a | b, true
	case KXor:
		return a ^ b, true
	case KShl:
		return (a << (b % uint64(w))) & m, true
	case KLshr:
		return (a >> (b % uint64(w))) & m, true
	case KAshr:
		return uint64(signExtend(a, w)>>(b%uint64(w))) & m, true
	case KRotl:
		n := uint(b % uint64(w))
		return ((a << n) | (a >> (uint(w) - n))) & m, true
	case KRotr:
		n := uint(b % uint64(w))
		return ((a >> n) | (a << (uint(w) - n))) & m, true
	default:
		return 0, false
	}
}

// Arithmetic and bitwise constructors.
func (c *Ctx) Add(a, b *Expr) *Expr  { return c.binop(KAdd, a, b) }
func (c *Ctx) Sub(a, b *Expr) *Expr  { return c.binop(KSub, a, b) }
func (c *Ctx) Mul(a, b *Expr) *Expr  { return c.binop(KMul, a, b) }
func (c *Ctx) UDiv(a, b *Expr) *Expr { return c.binop(KUDiv, a, b) }
func (c *Ctx) SDiv(a, b *Expr) *Expr { return c.binop(KSDiv, a, b) }
func (c *Ctx) URem(a, b *Expr) *Expr { return c.binop(KURem, a, b) }
func (c *Ctx) SRem(a, b *Expr) *Expr { return c.binop(KSRem, a, b) }
func (c *Ctx) And(a, b *Expr) *Expr  { return c.binop(KAnd, a, b) }
func (c *Ctx) Or(a, b *Expr) *Expr   { return c.binop(KOr, a, b) }
func (c *Ctx) Xor(a, b *Expr) *Expr  { return c.binop(KXor, a, b) }
func (c *Ctx) Shl(a, b *Expr) *Expr  { return c.binop(KShl, a, b) }
func (c *Ctx) Lshr(a, b *Expr) *Expr { return c.binop(KLshr, a, b) }
func (c *Ctx) Ashr(a, b *Expr) *Expr { return c.binop(KAshr, a, b) }
func (c *Ctx) Rotl(a, b *Expr) *Expr { return c.binop(KRotl, a, b) }
func (c *Ctx) Rotr(a, b *Expr) *Expr { return c.binop(KRotr, a, b) }

// Not is the bitwise complement.
func (c *Ctx) Not(a *Expr) *Expr {
	if v, ok := a.IsConst(); ok {
		return c.Const(^v, a.Width)
	}
	if a.Kind == KNot {
		return a.A
	}
	return c.intern(exprKey{kind: KNot, width: a.Width, a: a})
}

// Neg is two's-complement negation.
func (c *Ctx) Neg(a *Expr) *Expr { return c.Sub(c.Const(0, a.Width), a) }

// Eq builds a 1-bit equality.
func (c *Ctx) Eq(a, b *Expr) *Expr {
	if a.Width != b.Width {
		panic(fmt.Sprintf("symbolic: eq width mismatch %d vs %d", a.Width, b.Width))
	}
	if a == b {
		return c.True()
	}
	av, aok := a.IsConst()
	bv, bok := b.IsConst()
	if aok && bok {
		if av == bv {
			return c.True()
		}
		return c.False()
	}
	if aok {
		a, b = b, a
		bv, bok = av, true
	}
	if bok {
		// Comparisons against constants simplify through widening: Wasm
		// pushes comparison results as zero-extended 0/1, and branch
		// conditions test them against zero, so these rules collapse the
		// FromBool/Bool round trip.
		if a.Kind == KZext && bv <= mask(a.A.Width) {
			return c.Eq(a.A, c.Const(bv, a.A.Width))
		}
		// popcnt(x) == 0  <=>  x == 0 (the popcount-obfuscation rewrite);
		// popcnt(x) == width(x)  <=>  x == all-ones.
		if a.Kind == KPopcnt {
			if bv == 0 {
				return c.Eq(a.A, c.Const(0, a.A.Width))
			}
			if bv == uint64(a.A.Width) {
				return c.Eq(a.A, c.Const(mask(a.A.Width), a.A.Width))
			}
			if bv > uint64(a.A.Width) {
				return c.False()
			}
		}
		if a.Width == 1 {
			if bv == 0 {
				return c.BoolNot(a)
			}
			return a
		}
	}
	return c.intern(exprKey{kind: KEq, width: 1, a: a, b: b})
}

// Ne builds a 1-bit disequality.
func (c *Ctx) Ne(a, b *Expr) *Expr { return c.BoolNot(c.Eq(a, b)) }

// Ult builds unsigned less-than.
func (c *Ctx) Ult(a, b *Expr) *Expr {
	av, aok := a.IsConst()
	bv, bok := b.IsConst()
	if aok && bok {
		if av < bv {
			return c.True()
		}
		return c.False()
	}
	if bok && bv == 0 {
		return c.False() // nothing is < 0 unsigned
	}
	if a == b {
		return c.False()
	}
	return c.intern(exprKey{kind: KUlt, width: 1, a: a, b: b})
}

// Slt builds signed less-than.
func (c *Ctx) Slt(a, b *Expr) *Expr {
	av, aok := a.IsConst()
	bv, bok := b.IsConst()
	if aok && bok {
		if signExtend(av, a.Width) < signExtend(bv, b.Width) {
			return c.True()
		}
		return c.False()
	}
	if a == b {
		return c.False()
	}
	return c.intern(exprKey{kind: KSlt, width: 1, a: a, b: b})
}

// Derived comparisons.
func (c *Ctx) Ule(a, b *Expr) *Expr { return c.BoolNot(c.Ult(b, a)) }
func (c *Ctx) Ugt(a, b *Expr) *Expr { return c.Ult(b, a) }
func (c *Ctx) Uge(a, b *Expr) *Expr { return c.BoolNot(c.Ult(a, b)) }
func (c *Ctx) Sle(a, b *Expr) *Expr { return c.BoolNot(c.Slt(b, a)) }
func (c *Ctx) Sgt(a, b *Expr) *Expr { return c.Slt(b, a) }
func (c *Ctx) Sge(a, b *Expr) *Expr { return c.BoolNot(c.Slt(a, b)) }

// Boolean (1-bit) connectives.
func (c *Ctx) BoolAnd(a, b *Expr) *Expr { return c.And(a, b) }
func (c *Ctx) BoolOr(a, b *Expr) *Expr  { return c.Or(a, b) }

// BoolNot flips a 1-bit value.
func (c *Ctx) BoolNot(a *Expr) *Expr {
	if a.Width != 1 {
		panic("symbolic: BoolNot on non-boolean")
	}
	return c.Xor(a, c.True())
}

// Ite builds cond ? t : f.
func (c *Ctx) Ite(cond, t, f *Expr) *Expr {
	if cond.Width != 1 {
		panic("symbolic: Ite condition must be 1-bit")
	}
	if t.Width != f.Width {
		panic("symbolic: Ite arm width mismatch")
	}
	if cond.IsTrue() {
		return t
	}
	if cond.IsFalse() {
		return f
	}
	if t == f {
		return t
	}
	return c.intern(exprKey{kind: KIte, width: t.Width, a: cond, b: t, c: f})
}

// Concat joins hi (high bits) and lo (low bits).
func (c *Ctx) Concat(hi, lo *Expr) *Expr {
	w := int(hi.Width) + int(lo.Width)
	if w > 64 {
		panic(fmt.Sprintf("symbolic: concat width %d exceeds 64", w))
	}
	hv, hok := hi.IsConst()
	lv, lok := lo.IsConst()
	if hok && lok {
		return c.Const(hv<<lo.Width|lv, uint8(w))
	}
	// concat(extract(x, hi1, mid+1), extract(x, mid, lo1)) == extract(x, hi1, lo1)
	if hi.Kind == KExtract && lo.Kind == KExtract && hi.A == lo.A && hi.Lo == lo.Hi+1 {
		return c.Extract(hi.A, hi.Hi, lo.Lo)
	}
	return c.intern(exprKey{kind: KConcat, width: uint8(w), a: hi, b: lo})
}

// Extract takes bits [hi:lo] of a.
func (c *Ctx) Extract(a *Expr, hi, lo uint8) *Expr {
	if hi < lo || hi >= a.Width {
		panic(fmt.Sprintf("symbolic: extract [%d:%d] of width %d", hi, lo, a.Width))
	}
	w := hi - lo + 1
	if w == a.Width {
		return a
	}
	if v, ok := a.IsConst(); ok {
		return c.Const(v>>lo, w)
	}
	switch a.Kind {
	case KExtract:
		return c.Extract(a.A, a.Lo+hi, a.Lo+lo)
	case KConcat:
		lw := a.B.Width
		if hi < lw {
			return c.Extract(a.B, hi, lo)
		}
		if lo >= lw {
			return c.Extract(a.A, hi-lw, lo-lw)
		}
	case KZext:
		if hi < a.A.Width {
			return c.Extract(a.A, hi, lo)
		}
		if lo >= a.A.Width {
			return c.Const(0, w)
		}
	}
	return c.intern(exprKey{kind: KExtract, width: w, a: a, hi: hi, lo: lo})
}

// ZExt zero-extends a to w bits.
func (c *Ctx) ZExt(a *Expr, w uint8) *Expr {
	if w < a.Width {
		panic("symbolic: zext narrows")
	}
	if w == a.Width {
		return a
	}
	if v, ok := a.IsConst(); ok {
		return c.Const(v, w)
	}
	return c.intern(exprKey{kind: KZext, width: w, a: a})
}

// SExt sign-extends a to w bits.
func (c *Ctx) SExt(a *Expr, w uint8) *Expr {
	if w < a.Width {
		panic("symbolic: sext narrows")
	}
	if w == a.Width {
		return a
	}
	if v, ok := a.IsConst(); ok {
		return c.Const(uint64(signExtend(v, a.Width)), w)
	}
	return c.intern(exprKey{kind: KSext, width: w, a: a})
}

// Truncate keeps the low w bits of a.
func (c *Ctx) Truncate(a *Expr, w uint8) *Expr {
	if w == a.Width {
		return a
	}
	return c.Extract(a, w-1, 0)
}

// Bool converts a value to 1-bit "is non-zero".
func (c *Ctx) Bool(a *Expr) *Expr {
	if a.Width == 1 {
		return a
	}
	return c.Ne(a, c.Const(0, a.Width))
}

// FromBool widens a 1-bit value to w bits (0 or 1), matching Wasm
// comparison results.
func (c *Ctx) FromBool(b *Expr, w uint8) *Expr { return c.ZExt(b, w) }

// Popcount builds the population count of a (same width result). It is a
// first-class node so that the common obfuscation pattern
// popcnt(x ^ c) == 0 simplifies to x == c instead of forcing the solver
// through a 64-bit adder tree (see Eq).
func (c *Ctx) Popcount(a *Expr) *Expr {
	if v, ok := a.IsConst(); ok {
		return c.Const(uint64(bits.OnesCount64(v)), a.Width)
	}
	return c.intern(exprKey{kind: KPopcnt, width: a.Width, a: a})
}

// Vars collects the free variables of e into out (deduplicated).
func (e *Expr) Vars(out map[string]*Expr) {
	seen := map[*Expr]bool{}
	var walk func(*Expr)
	walk = func(x *Expr) {
		if x == nil || seen[x] {
			return
		}
		seen[x] = true
		if x.Kind == KVar {
			out[x.Name] = x
			return
		}
		walk(x.A)
		walk(x.B)
		walk(x.C)
	}
	walk(e)
}

// String renders the expression in a compact s-expression form.
func (e *Expr) String() string {
	var sb strings.Builder
	e.write(&sb, 0)
	return sb.String()
}

func (e *Expr) write(sb *strings.Builder, depth int) {
	if depth > 12 {
		sb.WriteString("...")
		return
	}
	switch e.Kind {
	case KConst:
		fmt.Fprintf(sb, "%#x", e.Val)
	case KVar:
		sb.WriteString(e.Name)
	case KExtract:
		fmt.Fprintf(sb, "(extract[%d:%d] ", e.Hi, e.Lo)
		e.A.write(sb, depth+1)
		sb.WriteString(")")
	default:
		fmt.Fprintf(sb, "(%s", e.Kind)
		for _, x := range []*Expr{e.A, e.B, e.C} {
			if x == nil {
				break
			}
			sb.WriteString(" ")
			x.write(sb, depth+1)
		}
		sb.WriteString(")")
	}
}
