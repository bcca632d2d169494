package rate

import (
	"math"
	"math/big"
	"testing"
)

// sameRepr reports whether a and b are the same representation, field by
// field — stronger than Equal, and what Key, the CSVs and the digests see.
func sameRepr(a, b Rate) bool {
	if a.num != b.num || a.den != b.den || (a.br == nil) != (b.br == nil) {
		return false
	}
	return a.br == nil || a.br.Cmp(b.br) == 0
}

// checkCanonical fails unless r is the one representation of its value:
// +∞ only as Inf, lowest terms, positive denominator, zero as 0/1, and big
// only when the value does not fit the int64 path.
func checkCanonical(t *testing.T, what string, r Rate) {
	t.Helper()
	switch {
	case r.den < 0:
		if !sameRepr(r, Inf) {
			t.Fatalf("%s: negative denominator on a value that is not Inf: %+v", what, r)
		}
	case r.br != nil:
		if r.num != 0 || r.den != 0 {
			t.Fatalf("%s: big value carries an int64 part: %+v", what, r)
		}
		if r.br.Num().IsInt64() && r.br.Denom().IsInt64() {
			t.Fatalf("%s: %v fits int64 but was not demoted", what, r)
		}
	default:
		if r.den == 0 {
			t.Fatalf("%s: the zero value as a result: %+v", what, r)
		}
		if r.num == 0 && r.den != 1 {
			t.Fatalf("%s: zero as 0/%d", what, r.den)
		}
		if g := gcd64(r.num, r.den); g != 1 {
			t.Fatalf("%s: %d/%d not in lowest terms (gcd %d)", what, r.num, r.den, g)
		}
	}
}

// bigOf returns r as a fresh big.Rat, or nil for +∞.
func bigOf(r Rate) *big.Rat {
	if r.IsInf() {
		return nil
	}
	return new(big.Rat).Set(r.toBig())
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// fuzzFrac is the operand a pair of fuzz inputs names: num/den through
// FromFrac, or +∞ for a zero denominator, checked against big.Rat on the way.
func fuzzFrac(t *testing.T, num, den int64) Rate {
	t.Helper()
	if den == 0 {
		return Inf
	}
	r := FromFrac(num, den)
	checkCanonical(t, "FromFrac", r)
	if want := big.NewRat(num, den); bigOf(r).Cmp(want) != 0 {
		t.Fatalf("FromFrac(%d, %d) = %v, want %v", num, den, r, want.RatString())
	}
	return r
}

// rateArithmetic checks every operation on x = a1 + a2 and y = b1 + b2 (each
// a FromFrac or +∞; sums near the int64 limits land on the big path) and
// on n against math/big: the value, canonical form, and +∞'s rules.
func rateArithmetic(t *testing.T, an1, ad1, an2, ad2, bn1, bd1, bn2, bd2, n int64) {
	x := fuzzFrac(t, an1, ad1).Add(fuzzFrac(t, an2, ad2))
	y := fuzzFrac(t, bn1, bd1).Add(fuzzFrac(t, bn2, bd2))
	checkCanonical(t, "Add", x)
	checkCanonical(t, "Add", y)
	bx := bigOf(x)
	if ad1 != 0 && ad2 != 0 {
		if want := new(big.Rat).Add(big.NewRat(an1, ad1), big.NewRat(an2, ad2)); bx.Cmp(want) != 0 {
			t.Fatalf("%d/%d + %d/%d = %v, want %v", an1, ad1, an2, ad2, x, want.RatString())
		}
	}
	// same fails unless got is canonical and equals want (nil: +∞).
	same := func(what string, got Rate, want *big.Rat) {
		t.Helper()
		checkCanonical(t, what, got)
		if (want == nil) != got.IsInf() || (want != nil && bigOf(got).Cmp(want) != 0) {
			t.Fatalf("%s(%v, %v | %d) = %v, want %v", what, x, y, n, got, want)
		}
	}
	for _, p := range [][2]Rate{{x, y}, {y, x}} {
		a, b := p[0], p[1]
		ba, bb := bigOf(a), bigOf(b)
		switch {
		case ba == nil || bb == nil:
			same("Add", a.Add(b), nil)
		default:
			same("Add", a.Add(b), new(big.Rat).Add(ba, bb))
		}
		switch {
		case bb == nil:
			if !panics(func() { a.Sub(b) }) {
				t.Fatalf("%v − ∞ did not panic", a)
			}
		case ba == nil:
			same("Sub", a.Sub(b), nil)
		default:
			same("Sub", a.Sub(b), new(big.Rat).Sub(ba, bb))
		}
		want := 0
		switch {
		case ba == nil && bb == nil:
		case ba == nil:
			want = 1
		case bb == nil:
			want = -1
		default:
			want = ba.Cmp(bb)
		}
		if got := a.Cmp(b); got != want {
			t.Fatalf("Cmp(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
	if bx == nil {
		if !panics(func() { x.Neg() }) {
			t.Fatalf("−∞ did not panic")
		}
	} else {
		same("Neg", x.Neg(), new(big.Rat).Neg(bx))
		if x.Sign() != bx.Sign() || x.IsZero() != (bx.Sign() == 0) {
			t.Fatalf("Sign(%v) = %d, IsZero %t", x, x.Sign(), x.IsZero())
		}
	}
	if n == math.MinInt64 {
		return
	}
	k := int(max(n, -n))
	mul := func(v *big.Rat, num, den int) *big.Rat {
		if v == nil {
			return nil
		}
		return new(big.Rat).Mul(v, new(big.Rat).SetFrac64(int64(num), int64(den)))
	}
	same("MulInt", x.MulInt(k), mul(bx, k, 1))
	if k > 0 {
		same("DivInt", x.DivInt(k), mul(bx, 1, k))
	}
}

// FuzzRateArithmetic checks FromFrac, Add, Sub, Neg, DivInt, MulInt and Cmp
// against math/big, and that every result is canonical. Run it longer with
// `go test ./internal/rate -run '^$' -fuzz FuzzRateArithmetic -fuzztime 20s`.
func FuzzRateArithmetic(f *testing.F) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	for _, seed := range [][9]int64{
		// Negations int64 cannot hold: −(−2^63) and 0 − (−2^63), then
		// −2^63/−1 and 1/−2^63, which FromFrac once left with a negative
		// denominator.
		{minI, 1, 0, 1, 0, 1, 0, 1, 1},
		{0, 1, 0, 1, minI, 1, 0, 1, 1},
		{minI, -1, 0, 1, 1, 1, 0, 1, 1},
		{1, minI, 0, 1, 1, 1, 0, 1, 1},
		// A same-denominator sum of exactly −2^63 over an odd denominator,
		// then what the protocol adds and divides: integers and shares.
		{-(1 << 62), 5, -(1 << 62), 5, 3, 7, 0, 1, 5},
		{100_000_000, 1, 0, 1, 100_000_000, 7, -250_000_000, 7, 12},
		// Sums that leave the int64 path, and +∞ on either side.
		{maxI, 3, maxI - 1, 5, 1, maxI, -1, maxI - 2, 7},
		{maxI, 1, maxI, 1, minI, 1, minI, 3, 0},
		{1, 0, 5, 1, 2, 3, 1, 0, 4},
		{7, 12, -7, 12, 1, 2, 0, 0, 3},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4], seed[5], seed[6], seed[7], seed[8])
	}
	f.Fuzz(rateArithmetic)
}

func TestCanonicalFormCases(t *testing.T) {
	const p60 = int64(1) << 60
	minInt := FromInt64(math.MinInt64)
	twoTo63 := FromBigRat(new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 63), big.NewInt(1)))
	for _, c := range []struct {
		name      string
		got, want Rate
	}{
		{"1/6 + 1/3: the sum shares a factor with g", FromFrac(1, 6).Add(FromFrac(1, 3)), Rate{num: 1, den: 2}},
		{"1/4 + 1/4: same denominator, reducible sum", FromFrac(1, 4).Add(FromFrac(1, 4)), Rate{num: 1, den: 2}},
		{"3/8 + 1/8: same denominator, partly reducible", FromFrac(3, 8).Add(FromFrac(1, 8)), Rate{num: 1, den: 2}},
		{"1/4 + 3/4: same denominator, integer sum", FromFrac(1, 4).Add(FromFrac(3, 4)), Rate{num: 1, den: 1}},
		{"x + (−x), den ≠ 1", FromFrac(7, 12).Add(FromFrac(-7, 12)), Rate{num: 0, den: 1}},
		{"x + (−x), huge den", FromFrac(1, math.MaxInt64).Add(FromFrac(-1, math.MaxInt64)), Rate{num: 0, den: 1}},
		{"zero value + zero value", Rate{}.Add(Rate{}), Rate{num: 0, den: 1}},
		{"zero value + 2/3", Rate{}.Add(FromFrac(2, 3)), Rate{num: 2, den: 3}},
		{"coprime denominators", FromFrac(1, 3).Add(FromFrac(1, 4)), Rate{num: 7, den: 12}},
		{"5/6 − 1/10: t = 22 shares all of g = 2", FromFrac(5, 6).Add(FromFrac(-1, 10)), Rate{num: 11, den: 15}},
		// 1/(3·2^60) + ((2^61−5)/3)/(5·2^60) = 2^61/(15·2^60) = 2/15. The
		// unreduced denominator 15·2^60 overflows int64; dividing g2 = 2^60
		// out first keeps every intermediate in range.
		{"unreduced denominator overflows, reduced fits", FromFrac(1, 3*p60).Add(FromFrac((2*p60-5)/3, 5*p60)), Rate{num: 2, den: 15}},
		// −2^62/5 + −2^62/5 = −2^63/5: the sum's gcd with an odd denominator
		// once came out −1 and flipped the denominator's sign.
		{"same-denominator sum of exactly −2^63", FromFrac(-(1 << 62), 5).Add(FromFrac(-(1 << 62), 5)), Rate{num: math.MinInt64, den: 5}},
		{"−(−2^63) promotes", minInt.Neg(), twoTo63},
		{"0 − (−2^63) promotes", Zero.Sub(minInt), twoTo63},
		{"−2^63 − (−2^63)", minInt.Sub(minInt), Zero},
	} {
		if !sameRepr(c.got, c.want) {
			t.Errorf("%s: got %+v, want %+v", c.name, c.got, c.want)
		}
		checkCanonical(t, c.name, c.got)
	}

	// The overflowing unreduced denominator must stay on the int64 path.
	a, b := FromFrac(1, 3*p60), FromFrac((2*p60-5)/3, 5*p60)
	if allocs := testing.AllocsPerRun(100, func() { sink = a.Add(b) }); allocs != 0 {
		t.Errorf("sum with an overflowing unreduced denominator allocates %v times: left the int64 path", allocs)
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
