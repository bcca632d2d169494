package rate

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// refAdd, refDivInt and refMulInt are Add, DivInt and MulInt as they were
// before the single-reduction rewrite, kept verbatim: every result passes
// through normalizeInt's full-width gcd. The canonical-form tests below
// require the rewritten operations to return the very same representation.

func refAdd(r, o Rate) Rate {
	if r.inf || o.inf {
		return Inf
	}
	rn, rd, rok := r.parts()
	on, od, ook := o.parts()
	if rok && ook {
		g := gcd64(rd, od)
		odg, rdg := od/g, rd/g
		a, ok1 := mul64(rn, odg)
		b, ok2 := mul64(on, rdg)
		d, ok3 := mul64(rd, odg)
		if ok1 && ok2 && ok3 {
			if n, ok := add64(a, b); ok {
				return normalizeInt(n, d)
			}
		}
	}
	return normalizeBig(new(big.Rat).Add(r.toBig(), o.toBig()))
}

func refDivInt(r Rate, n int) Rate {
	if n <= 0 {
		panic("rate: DivInt by non-positive")
	}
	if r.inf {
		return Inf
	}
	rn, rd, ok := r.parts()
	if ok {
		g := gcd64(abs64(rn), int64(n))
		if d, ok := mul64(rd, int64(n)/g); ok {
			return normalizeInt(rn/g, d)
		}
	}
	q := new(big.Rat).SetFrac(big.NewInt(1), big.NewInt(int64(n)))
	return normalizeBig(q.Mul(q, r.toBig()))
}

func refMulInt(r Rate, n int) Rate {
	if n < 0 {
		panic("rate: MulInt by negative")
	}
	if r.inf {
		return Inf
	}
	rn, rd, ok := r.parts()
	if ok {
		g := gcd64(rd, int64(n))
		if p, ok := mul64(rn, int64(n)/g); ok {
			return normalizeInt(p, rd/g)
		}
	}
	q := new(big.Rat).SetInt64(int64(n))
	return normalizeBig(q.Mul(q, r.toBig()))
}

// sameRepr reports whether a and b are the same representation, field by
// field — stronger than Equal, and what Key, the CSVs and the digests see.
func sameRepr(a, b Rate) bool {
	if a.inf != b.inf || a.num != b.num || a.den != b.den || (a.br == nil) != (b.br == nil) {
		return false
	}
	return a.br == nil || a.br.Cmp(b.br) == 0
}

// checkCanonical fails unless r is the one representation of its value:
// lowest terms, positive denominator, zero as 0/1, and big only when the
// value does not fit the int64 path.
func checkCanonical(t *testing.T, what string, r Rate) {
	t.Helper()
	switch {
	case r.inf:
		if r.num != 0 || r.den != 0 || r.br != nil {
			t.Fatalf("%s: +Inf carries a finite part: %+v", what, r)
		}
	case r.br != nil:
		if r.num != 0 || r.den != 0 {
			t.Fatalf("%s: big value carries an int64 part: %+v", what, r)
		}
		if r.br.Num().IsInt64() && r.br.Denom().IsInt64() {
			t.Fatalf("%s: %v fits int64 but was not demoted", what, r)
		}
	default:
		if r.den <= 0 {
			t.Fatalf("%s: denominator %d", what, r.den)
		}
		if r.num == 0 && r.den != 1 {
			t.Fatalf("%s: zero as 0/%d", what, r.den)
		}
		if g := gcd64(abs64(r.num), r.den); g != 1 {
			t.Fatalf("%s: %d/%d not in lowest terms (gcd %d)", what, r.num, r.den, g)
		}
	}
}

// operand draws a finite Rate from the shapes the arithmetic has to get
// right: small protocol-like fractions, denominators sharing a factor,
// parts near the int64 limits, negatives, zero, the zero value and values
// already on the big path.
func operand(r *rand.Rand) Rate {
	sign := func(v int64) int64 {
		if r.Intn(3) == 0 {
			return -v
		}
		return v
	}
	switch r.Intn(9) {
	case 0:
		return Zero
	case 1:
		return Rate{} // the zero value: den == 0
	case 2: // integers, as capacities and demands are
		return FromInt64(sign(r.Int63n(1_000_000_000)))
	case 3: // small fractions
		return FromFrac(sign(r.Int63n(1_000_000)), 1+r.Int63n(12))
	case 4, 5: // denominators built from a shared factor
		f := []int64{2, 3, 6, 10, 1 << 20, 1_000_000, 1 << 31}[r.Intn(7)]
		return FromFrac(sign(1+r.Int63n(1<<30)), f*(1+r.Int63n(64)))
	case 6: // near the int64 limits (never MinInt64, whose negation overflows)
		return FromFrac(sign(math.MaxInt64-r.Int63n(1000)), 1+r.Int63n(3))
	case 7: // huge denominators
		return FromFrac(sign(1+r.Int63n(1000)), math.MaxInt64-r.Int63n(1000))
	default: // beyond int64
		return FromInt64(math.MaxInt64 - r.Int63n(1000)).Add(FromInt64(math.MaxInt64 - r.Int63n(1000))).DivInt(1 + r.Intn(7))
	}
}

func TestCanonicalFormMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for i := 0; i < 40000; i++ {
		a, b := operand(r), operand(r)
		if i%5 == 0 { // x + (−x), x − x
			b = a.Neg()
		}
		n := 1 + r.Intn(1000)
		if r.Intn(4) == 0 {
			n = 1 + r.Intn(math.MaxInt32)
		}
		for _, c := range []struct {
			what      string
			got, want Rate
		}{
			{"Add", a.Add(b), refAdd(a, b)},
			{"Sub", a.Sub(b), refAdd(a, b.Neg())},
			{"DivInt", a.DivInt(n), refDivInt(a, n)},
			{"MulInt", a.MulInt(n), refMulInt(a, n)},
			{"MulInt0", a.MulInt(0), refMulInt(a, 0)},
		} {
			if !sameRepr(c.got, c.want) {
				t.Fatalf("iter %d: %s(%v, %v | %d) = %+v, reference %+v", i, c.what, a, b, n, c.got, c.want)
			}
			checkCanonical(t, c.what, c.got)
		}
	}
}

func TestCanonicalFormCases(t *testing.T) {
	const p60 = int64(1) << 60
	for _, c := range []struct {
		name string
		a, b Rate
		want Rate
	}{
		{"1/6 + 1/3: the sum shares a factor with g", FromFrac(1, 6), FromFrac(1, 3), Rate{num: 1, den: 2}},
		{"1/4 + 1/4: same denominator, reducible sum", FromFrac(1, 4), FromFrac(1, 4), Rate{num: 1, den: 2}},
		{"3/8 + 1/8: same denominator, partly reducible", FromFrac(3, 8), FromFrac(1, 8), Rate{num: 1, den: 2}},
		{"1/4 + 3/4: same denominator, integer sum", FromFrac(1, 4), FromFrac(3, 4), Rate{num: 1, den: 1}},
		{"x + (−x), den ≠ 1", FromFrac(7, 12), FromFrac(-7, 12), Rate{num: 0, den: 1}},
		{"x + (−x), huge den", FromFrac(1, math.MaxInt64), FromFrac(-1, math.MaxInt64), Rate{num: 0, den: 1}},
		{"zero value + zero value", Rate{}, Rate{}, Rate{num: 0, den: 1}},
		{"zero value + 2/3", Rate{}, FromFrac(2, 3), Rate{num: 2, den: 3}},
		{"coprime denominators", FromFrac(1, 3), FromFrac(1, 4), Rate{num: 7, den: 12}},
		{"5/6 − 1/10: t = 22 shares all of g = 2", FromFrac(5, 6), FromFrac(-1, 10), Rate{num: 11, den: 15}},
		// 1/(3·2^60) + ((2^61−5)/3)/(5·2^60) = 2^61/(15·2^60) = 2/15. The
		// unreduced denominator 15·2^60 overflows int64, so the old Add went
		// through big.Rat and demoted; dividing g2 = 2^60 out first keeps
		// every intermediate in range.
		{"unreduced denominator overflows, reduced fits", FromFrac(1, 3*p60), FromFrac((2*p60-5)/3, 5*p60), Rate{num: 2, den: 15}},
	} {
		got := c.a.Add(c.b)
		if !sameRepr(got, c.want) {
			t.Errorf("%s: %v + %v = %+v, want %+v", c.name, c.a, c.b, got, c.want)
		}
		if ref := refAdd(c.a, c.b); !sameRepr(got, ref) {
			t.Errorf("%s: %+v, reference %+v", c.name, got, ref)
		}
		checkCanonical(t, c.name, got)
	}

	// The last case must now stay on the int64 path.
	a, b := FromFrac(1, 3*p60), FromFrac((2*p60-5)/3, 5*p60)
	if allocs := testing.AllocsPerRun(100, func() { sink = a.Add(b) }); allocs != 0 {
		t.Errorf("sum with an overflowing unreduced denominator allocates %v times: left the int64 path", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sink = refAdd(a, b) }); allocs == 0 {
		t.Errorf("the reference Add was expected to take the big path for this sum")
	}

	// Big results demote when they fit.
	big1 := FromInt64(math.MaxInt64).Add(FromInt64(math.MaxInt64))
	if big1.br == nil {
		t.Fatalf("2·MaxInt64 did not promote")
	}
	for what, got := range map[string]Rate{
		"Add":    big1.Add(FromInt64(-math.MaxInt64)),
		"DivInt": big1.DivInt(2),
	} {
		if !sameRepr(got, FromInt64(math.MaxInt64)) {
			t.Errorf("%s from the big path = %+v, want MaxInt64 on the int64 path", what, got)
		}
	}
	if got := FromFrac(math.MaxInt64, 3).MulInt(2).DivInt(2); !sameRepr(got, FromFrac(math.MaxInt64, 3)) {
		t.Errorf("MulInt·DivInt round trip through the big path = %+v", got)
	}
}

// TestInt64PathDoesNotAllocate pins the 0 allocs/op the micro-benchmarks
// report for every operand shape that fits the int64 path.
func TestInt64PathDoesNotAllocate(t *testing.T) {
	for _, ops := range addOperands {
		if ops.name == "wide" {
			continue
		}
		if allocs := testing.AllocsPerRun(100, func() { sink = ops.a.Add(ops.b) }); allocs != 0 {
			t.Errorf("Add/%s: %v allocs/op", ops.name, allocs)
		}
	}
	x := FromFrac(100_000_000, 7)
	if allocs := testing.AllocsPerRun(100, func() { sink = x.DivInt(12).MulInt(5) }); allocs != 0 {
		t.Errorf("DivInt/MulInt: %v allocs/op", allocs)
	}
}

var sink Rate

// addOperands are the operand shapes BenchmarkAdd measures: what the
// protocol adds (integers; same-denominator shares of one link; shares of
// different links, coprime or sharing a factor) and the big path.
var addOperands = []struct {
	name string
	a, b Rate
}{
	{"int", Mbps(100), Mbps(37)},
	{"same_den", FromFrac(100_000_000, 7), FromFrac(250_000_000, 7)},
	{"coprime", FromFrac(100_000_000, 7), FromFrac(100_000_000, 9)},
	{"shared_factor", FromFrac(100_000_000, 21), FromFrac(100_000_001, 6)},
	{"wide", FromInt64(math.MaxInt64).MulInt(3).DivInt(7), FromFrac(1, 3)},
}

func BenchmarkAdd(b *testing.B) {
	for _, ops := range addOperands {
		b.Run(ops.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = ops.a.Add(ops.b)
			}
		})
	}
}

func BenchmarkDivInt(b *testing.B) {
	x := Mbps(100).Sub(FromFrac(100_000_000, 7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = x.DivInt(1 + i&15)
	}
}
