package rate

import (
	"math"
	"math/big"
	"testing"
)

// FromBigRat returns the rate equal to r. The argument is copied.
func FromBigRat(r *big.Rat) Rate { return normalizeBig(new(big.Rat).Set(r)) }

// IsZero reports whether r is 0.
func (r Rate) IsZero() bool { return r.num == 0 && r.den >= 0 && r.br == nil }

// GreaterEq reports whether r >= o.
func (r Rate) GreaterEq(o Rate) bool { return r.Cmp(o) >= 0 }

func TestZeroValue(t *testing.T) {
	var r Rate
	if !r.IsZero() {
		t.Fatalf("zero value is not zero: %v", r)
	}
	if !r.Equal(Zero) {
		t.Fatalf("zero value != Zero")
	}
	if got := r.Add(FromInt64(5)); !got.Equal(FromInt64(5)) {
		t.Fatalf("0+5 = %v", got)
	}
	if r.Key() != "0" {
		t.Fatalf("zero Key = %q", r.Key())
	}
}

func TestFromFrac(t *testing.T) {
	cases := []struct {
		num, den int64
		want     string
	}{
		{1, 2, "1/2"},
		{2, 4, "1/2"},
		{-2, 4, "-1/2"},
		{2, -4, "-1/2"},
		{-2, -4, "1/2"},
		{0, 7, "0"},
		{6, 3, "2"},
		{7, 1, "7"},
		// Negating either part of these overflows int64: the value goes big.
		{math.MinInt64, -1, "9223372036854775808"},
		{1, math.MinInt64, "-1/9223372036854775808"},
		{math.MinInt64, math.MinInt64, "1"},
		{math.MinInt64, 4, "-2305843009213693952"},
	}
	for _, c := range cases {
		got := FromFrac(c.num, c.den)
		if got.Key() != c.want {
			t.Errorf("FromFrac(%d,%d).Key() = %q, want %q", c.num, c.den, got.Key(), c.want)
		}
		checkCanonical(t, c.want, got)
		want, _ := new(big.Rat).SetString(c.want)
		if wf, _ := want.Float64(); got.Sign() != want.Sign() || got.Float64() != wf {
			t.Errorf("FromFrac(%d,%d): sign %d, float %v; want %d, %v", c.num, c.den, got.Sign(), got.Float64(), want.Sign(), wf)
		}
	}
}

func TestFromFracPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	FromFrac(1, 0)
}

func TestArithmeticBasics(t *testing.T) {
	half := FromFrac(1, 2)
	third := FromFrac(1, 3)
	if got := half.Add(third); got.Key() != "5/6" {
		t.Errorf("1/2+1/3 = %v", got)
	}
	if got := half.Sub(third); got.Key() != "1/6" {
		t.Errorf("1/2-1/3 = %v", got)
	}
	if got := third.Sub(half); got.Key() != "-1/6" {
		t.Errorf("1/3-1/2 = %v", got)
	}
	if got := FromInt64(10).DivInt(4); got.Key() != "5/2" {
		t.Errorf("10/4 = %v", got)
	}
	if got := FromFrac(5, 2).MulInt(4); got.Key() != "10" {
		t.Errorf("5/2*4 = %v", got)
	}
}

func TestInfSemantics(t *testing.T) {
	if !Inf.IsInf() {
		t.Fatalf("Inf.IsInf() = false")
	}
	if got := Inf.Add(FromInt64(3)); !got.IsInf() {
		t.Errorf("inf+3 = %v", got)
	}
	if got := FromInt64(3).Add(Inf); !got.IsInf() {
		t.Errorf("3+inf = %v", got)
	}
	if got := Inf.Sub(FromInt64(3)); !got.IsInf() {
		t.Errorf("inf-3 = %v", got)
	}
	if got := Inf.DivInt(7); !got.IsInf() {
		t.Errorf("inf/7 = %v", got)
	}
	if Inf.Cmp(FromInt64(1<<62)) != 1 {
		t.Errorf("inf not greater than huge finite")
	}
	if Inf.Cmp(Inf) != 0 {
		t.Errorf("inf != inf")
	}
	if !math.IsInf(Inf.Float64(), 1) {
		t.Errorf("Inf.Float64() = %v", Inf.Float64())
	}
	if Min(Inf, FromInt64(4)).Key() != "4" {
		t.Errorf("Min(inf,4) wrong")
	}
	if Max(Inf, FromInt64(4)) != Inf {
		t.Errorf("Max(inf,4) wrong")
	}
}

func TestSubPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"finite-inf": func() { FromInt64(1).Sub(Inf) },
		"inf-inf":    func() { Inf.Sub(Inf) },
		"neg-inf":    func() { Inf.Neg() },
		"div-zero":   func() { FromInt64(1).DivInt(0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestCmpOrdering(t *testing.T) {
	vals := []Rate{
		FromFrac(-3, 2), Zero, FromFrac(1, 3), FromFrac(1, 2),
		FromInt64(1), FromInt64(100), Inf,
	}
	for i := range vals {
		for j := range vals {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := vals[i].Cmp(vals[j]); got != want {
				t.Errorf("Cmp(%v,%v) = %d, want %d", vals[i], vals[j], got, want)
			}
		}
	}
}

func TestOverflowPromotion(t *testing.T) {
	// 2^62/3 + 2^62/5: the cross multiplication overflows int64 so the big
	// path must take over, and the result must still be exact.
	big1 := FromFrac(1<<62, 3)
	big2 := FromFrac(1<<62, 5)
	got := big1.Add(big2)
	want := new(big.Rat).Add(big.NewRat(1<<62, 3), big.NewRat(1<<62, 5))
	if got.Key() != want.RatString() {
		t.Fatalf("overflowed add = %v, want %v", got.Key(), want.RatString())
	}
	// And back: subtracting one operand must return exactly the other and
	// demote to the fast path.
	back := got.Sub(big2)
	if !back.Equal(big1) {
		t.Fatalf("sub did not invert add: %v", back)
	}
	if back.br != nil {
		t.Fatalf("result was not demoted to the int64 fast path")
	}
}

func TestDemotionCanonical(t *testing.T) {
	// A value computed via the big path must have the same Key as the same
	// value built on the fast path.
	a := FromBigRat(big.NewRat(7, 3))
	b := FromFrac(7, 3)
	if a.Key() != b.Key() || !a.Equal(b) {
		t.Fatalf("big/int paths disagree: %v vs %v", a, b)
	}
	if a.br != nil {
		t.Fatalf("FromBigRat did not demote small value")
	}
}

func TestMbps(t *testing.T) {
	if got := Mbps(100); got.Key() != "100000000" {
		t.Fatalf("Mbps(100) = %v", got)
	}
}

func TestFloat64(t *testing.T) {
	if got := FromFrac(1, 2).Float64(); got != 0.5 {
		t.Fatalf("1/2 as float = %v", got)
	}
	if got := Zero.Float64(); got != 0 {
		t.Fatalf("0 as float = %v", got)
	}
}

func TestSignAndIsZero(t *testing.T) {
	if FromFrac(-1, 2).Sign() != -1 || FromInt64(3).Sign() != 1 || Zero.Sign() != 0 || Inf.Sign() != 1 {
		t.Fatalf("Sign wrong")
	}
	if FromInt64(1).IsZero() || !FromInt64(0).IsZero() {
		t.Fatalf("IsZero wrong")
	}
}

func TestMinMax(t *testing.T) {
	a, b := FromFrac(1, 3), FromFrac(1, 2)
	if Min(a, b) != a || Min(b, a) != a {
		t.Fatalf("Min wrong")
	}
	if Max(a, b) != b || Max(b, a) != b {
		t.Fatalf("Max wrong")
	}
}

func TestStringRendering(t *testing.T) {
	if Inf.String() != "inf" {
		t.Fatalf("inf renders %q", Inf.String())
	}
	if FromFrac(3, 4).String() != "3/4" {
		t.Fatalf("3/4 renders %q", FromFrac(3, 4).String())
	}
}
