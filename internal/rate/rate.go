// Package rate implements exact rational arithmetic for link and session
// rates.
//
// B-Neck's stability and quiescence conditions (Definition 2 of the paper)
// are exact equality tests between stored session rates and freshly computed
// bottleneck rates B_e = (C_e - Σ λ_s)/|R_e|. Floating point drift in the
// incrementally maintained sums would make those tests fail spuriously and
// the protocol would either livelock (endless Update cycles) or mis-declare
// bottlenecks. Rates are therefore exact rationals.
//
// A Rate is immutable. The implementation keeps an int64 numerator and
// denominator fast path and transparently promotes to math/big.Rat when an
// operation would overflow. Values are always normalized (reduced fraction,
// positive denominator, demoted to the int64 path whenever they fit), so two
// equal rates always have identical representations and Key strings.
//
// The zero value of Rate is the rate 0.
package rate

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Rate is an exact rational number of bits per second (or any other unit the
// caller chooses), with a distinguished +∞ used for unbounded session
// demands. Rate values are immutable; all methods return new values.
type Rate struct {
	// Exactly one interpretation applies, checked in this order:
	//   inf       => +∞
	//   br != nil => value is *br (normalized, does not fit int64 fast path)
	//   den != 0  => value is num/den (reduced, den > 0)
	//   otherwise => value is 0 (the useful zero value)
	num int64
	den int64
	br  *big.Rat
	inf bool
}

// Zero is the rate 0.
var Zero = Rate{num: 0, den: 1}

// Inf is the unbounded rate +∞, used for sessions with no maximum demand.
var Inf = Rate{inf: true}

// FromInt64 returns the rate v/1.
func FromInt64(v int64) Rate { return Rate{num: v, den: 1} }

// FromFrac returns the rate num/den. It panics if den == 0.
func FromFrac(num, den int64) Rate {
	if den == 0 {
		panic("rate: zero denominator")
	}
	return normalizeInt(num, den)
}

// FromBigRat returns the rate equal to r. The argument is copied.
func FromBigRat(r *big.Rat) Rate { return normalizeBig(new(big.Rat).Set(r)) }

// Mbps returns the rate v megabits per second expressed in bits per second.
// It is a convenience for building topologies with the paper's capacities.
func Mbps(v int64) Rate { return FromInt64(v * 1_000_000) }

// normalizeInt reduces num/den and returns the canonical Rate.
func normalizeInt(num, den int64) Rate {
	if den < 0 {
		num, den = -num, -den
	}
	if num == 0 {
		return Zero
	}
	g := gcd64(abs64(num), den)
	return Rate{num: num / g, den: den / g}
}

// normalizeBig demotes r to the int64 fast path when possible. It takes
// ownership of r.
func normalizeBig(r *big.Rat) Rate {
	if r.Num().IsInt64() && r.Denom().IsInt64() {
		// big.Rat is always normalized with positive denominator.
		return Rate{num: r.Num().Int64(), den: r.Denom().Int64()}
	}
	return Rate{br: r}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// IsInf reports whether r is +∞.
func (r Rate) IsInf() bool { return r.inf }

// IsZero reports whether r is 0.
func (r Rate) IsZero() bool {
	return !r.inf && r.br == nil && (r.den == 0 || r.num == 0)
}

// Sign returns -1, 0 or +1 according to the sign of r. +∞ has sign +1.
func (r Rate) Sign() int {
	switch {
	case r.inf:
		return 1
	case r.br != nil:
		return r.br.Sign()
	case r.den == 0 || r.num == 0:
		return 0
	case r.num < 0:
		return -1
	default:
		return 1
	}
}

// toBig returns the value as a big.Rat. It panics on +∞. The result must not
// be mutated when it aliases r.br; callers that mutate must copy.
func (r Rate) toBig() *big.Rat {
	if r.inf {
		panic("rate: toBig on +Inf")
	}
	if r.br != nil {
		return r.br
	}
	if r.den == 0 {
		return new(big.Rat)
	}
	return big.NewRat(r.num, r.den)
}

// parts returns the int64 numerator and denominator, normalizing the zero
// value, and whether the fast path applies.
func (r Rate) parts() (num, den int64, ok bool) {
	if r.inf || r.br != nil {
		return 0, 0, false
	}
	if r.den == 0 {
		return 0, 1, true
	}
	return r.num, r.den, true
}

// mul64 multiplies two int64s, reporting whether the result fits in an int64.
func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

func add64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// Add returns r + o. Adding anything to +∞ yields +∞.
func (r Rate) Add(o Rate) Rate {
	if r.inf || o.inf {
		return Inf
	}
	rn, rd, rok := r.parts()
	on, od, ook := o.parts()
	if rok && ook {
		if sum, ok := addInt(rn, rd, on, od); ok {
			return sum
		}
	}
	return normalizeBig(new(big.Rat).Add(r.toBig(), o.toBig()))
}

// addInt returns rn/rd + on/od on the int64 path, or false when an
// intermediate overflows. Both operands are reduced with positive
// denominators, and so is the result: it is Knuth's reduced rational
// addition (TAOCP vol. 2, §4.5.1), which needs one gcd against g =
// gcd(rd, od) in place of a gcd of the full-width sum and product.
//
// With t = rn·(od/g) + on·(rd/g), the sum is t over (rd/g)·(od/g)·g. t is
// coprime to rd/g — a prime dividing both would divide rn·(od/g), yet it
// divides neither factor, rn/rd being reduced and rd/g, od/g coprime — and
// likewise to od/g, so all t shares with the denominator is g2 = gcd(t, g),
// and t/g2 over (rd/g)·(od/g2) is in lowest terms. A zero sum has rd = od
// and leaves through the first branch, where gcd(0, rd) = rd makes it 0/1.
func addInt(rn, rd, on, od int64) (Rate, bool) {
	if rd == od {
		// Same denominator (two integers above all): no products at all, and
		// only the sum can share a factor with rd.
		n, ok := add64(rn, on)
		if !ok {
			return Rate{}, false
		}
		if rd == 1 {
			return Rate{num: n, den: 1}, true
		}
		g2 := gcd64(abs64(n), rd)
		return Rate{num: n / g2, den: rd / g2}, true
	}
	g := gcd64(rd, od)
	rdg, odg := rd/g, od/g
	a, ok1 := mul64(rn, odg)
	b, ok2 := mul64(on, rdg)
	if !ok1 || !ok2 {
		return Rate{}, false
	}
	t, ok := add64(a, b)
	if !ok {
		return Rate{}, false
	}
	if g > 1 {
		g2 := gcd64(abs64(t), g)
		t, odg = t/g2, od/g2
	}
	d, ok := mul64(rdg, odg)
	if !ok {
		return Rate{}, false
	}
	return Rate{num: t, den: d}, true
}

// Sub returns r - o. It panics if o is +∞ and r is finite; ∞ - x = ∞ for
// finite x.
func (r Rate) Sub(o Rate) Rate {
	if r.inf {
		if o.inf {
			panic("rate: Inf - Inf")
		}
		return Inf
	}
	if o.inf {
		panic("rate: finite - Inf")
	}
	return r.Add(o.Neg())
}

// Neg returns -r. It panics on +∞.
func (r Rate) Neg() Rate {
	if r.inf {
		panic("rate: Neg on +Inf")
	}
	if r.br != nil {
		return normalizeBig(new(big.Rat).Neg(r.br))
	}
	n, d, _ := r.parts()
	return Rate{num: -n, den: d}
}

// DivInt returns r / n for n > 0. ∞ / n = ∞. It panics if n <= 0.
func (r Rate) DivInt(n int) Rate {
	if n <= 0 {
		panic("rate: DivInt by non-positive")
	}
	if r.inf {
		return Inf
	}
	rn, rd, ok := r.parts()
	if ok {
		// Divide the gcd out of the numerator first so the new denominator
		// grows as little as possible. What is left is already in lowest
		// terms: rn/g is coprime to n/g by construction and to rd because
		// rn is (and a zero rn gives g = n, rd = 1, hence 0/1).
		g := gcd64(abs64(rn), int64(n))
		if d, ok := mul64(rd, int64(n)/g); ok {
			return Rate{num: rn / g, den: d}
		}
	}
	q := new(big.Rat).SetFrac(big.NewInt(1), big.NewInt(int64(n)))
	return normalizeBig(q.Mul(q, r.toBig()))
}

// MulInt returns r * n for n >= 0. ∞ * n = ∞ (also for n == 0, which callers
// must avoid if they need measure-theoretic conventions).
func (r Rate) MulInt(n int) Rate {
	if n < 0 {
		panic("rate: MulInt by negative")
	}
	if r.inf {
		return Inf
	}
	rn, rd, ok := r.parts()
	if ok {
		// Lowest terms for the same reason as in DivInt, with the roles of
		// numerator and denominator swapped (n = 0 gives g = rd, hence 0/1).
		g := gcd64(rd, int64(n))
		if p, ok := mul64(rn, int64(n)/g); ok {
			return Rate{num: p, den: rd / g}
		}
	}
	q := new(big.Rat).SetInt64(int64(n))
	return normalizeBig(q.Mul(q, r.toBig()))
}

// Cmp compares r and o, returning -1, 0 or +1. +∞ compares greater than every
// finite rate and equal to itself.
func (r Rate) Cmp(o Rate) int {
	switch {
	case r.inf && o.inf:
		return 0
	case r.inf:
		return 1
	case o.inf:
		return -1
	}
	rn, rd, rok := r.parts()
	on, od, ook := o.parts()
	if rok && ook {
		// Compare rn/rd vs on/od as exact 128-bit cross products: never
		// overflows and never allocates (denominators are positive, so the
		// comparison direction is preserved).
		return cmp128(rn, od, on, rd)
	}
	return r.toBig().Cmp(o.toBig())
}

// cmp128 compares the exact products a·b and c·d using 128-bit arithmetic.
func cmp128(a, b, c, d int64) int {
	negAB := (a < 0) != (b < 0)
	negCD := (c < 0) != (d < 0)
	// uint64(abs64(x)) is the true |x| for every int64 including MinInt64
	// (two's complement wraparound lands on 2^63).
	hiAB, loAB := bits.Mul64(uint64(abs64(a)), uint64(abs64(b)))
	hiCD, loCD := bits.Mul64(uint64(abs64(c)), uint64(abs64(d)))
	if hiAB == 0 && loAB == 0 {
		negAB = false
	}
	if hiCD == 0 && loCD == 0 {
		negCD = false
	}
	if negAB != negCD {
		if negAB {
			return -1
		}
		return 1
	}
	cmp := 0
	switch {
	case hiAB != hiCD:
		if hiAB < hiCD {
			cmp = -1
		} else {
			cmp = 1
		}
	case loAB != loCD:
		if loAB < loCD {
			cmp = -1
		} else {
			cmp = 1
		}
	}
	if negAB {
		return -cmp
	}
	return cmp
}

// Equal reports whether r == o exactly.
func (r Rate) Equal(o Rate) bool { return r.Cmp(o) == 0 }

// Less reports whether r < o.
func (r Rate) Less(o Rate) bool { return r.Cmp(o) < 0 }

// LessEq reports whether r <= o.
func (r Rate) LessEq(o Rate) bool { return r.Cmp(o) <= 0 }

// Greater reports whether r > o.
func (r Rate) Greater(o Rate) bool { return r.Cmp(o) > 0 }

// GreaterEq reports whether r >= o.
func (r Rate) GreaterEq(o Rate) bool { return r.Cmp(o) >= 0 }

// Min returns the smaller of r and o.
func Min(r, o Rate) Rate {
	if r.Cmp(o) <= 0 {
		return r
	}
	return o
}

// Max returns the larger of r and o.
func Max(r, o Rate) Rate {
	if r.Cmp(o) >= 0 {
		return r
	}
	return o
}

// Float64 returns the value as a float64 (for metrics and reporting only;
// never used in protocol decisions). +∞ maps to math.Inf(1).
//
//bneck:float the one sanctioned exit from exact arithmetic: a display conversion whose result never feeds back into rates.
func (r Rate) Float64() float64 {
	if r.inf {
		return math.Inf(1)
	}
	if r.br != nil {
		f, _ := r.br.Float64()
		return f
	}
	n, d, _ := r.parts()
	return float64(n) / float64(d)
}

// Key returns a canonical string representation usable as a map key. Equal
// rates always produce equal keys.
func (r Rate) Key() string {
	if r.inf {
		return "inf"
	}
	if r.br != nil {
		return r.br.RatString()
	}
	n, d, _ := r.parts()
	if d == 1 {
		return fmt.Sprintf("%d", n)
	}
	return fmt.Sprintf("%d/%d", n, d)
}

// String renders the rate for humans: integers render bare, other rationals
// as num/den, +∞ as "inf".
func (r Rate) String() string { return r.Key() }
