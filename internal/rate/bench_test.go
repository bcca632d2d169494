package rate

import (
	"math"
	"testing"
)

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
