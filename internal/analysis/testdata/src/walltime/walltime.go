// Package walltime exercises the ambient-environment analyzer: wall-clock
// reads, environment reads, globally-seeded randomness, and the sanctioned
// escapes.
package walltime

import (
	"math/rand"
	"os"
	"time"
)

// ambient reads everything a deterministic package must not.
func ambient() time.Duration {
	start := time.Now()      // want "wall-clock read"
	_ = os.Getenv("HOME")    // want "environment read"
	_ = rand.Intn(10)        // want "globally-seeded randomness"
	return time.Since(start) // want "wall-clock read"
}

// seeded uses an explicitly seeded source: constructors and methods on the
// seeded generator are exactly what deterministic code should do.
func seeded() int {
	rng := rand.New(rand.NewSource(42))
	return rng.Intn(10)
}

// sanctioned wall-clock reporting: the duration is shown to the operator and
// never feeds results.
//
//bneck:wallclock progress display only; output cannot depend on it.
func sanctioned() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// lineSanctioned escapes a single call instead of the whole function.
func lineSanctioned() int64 {
	t := time.Now().UnixNano() //bneck:wallclock trace-id seed for logging only.
	return t
}

// generator mimics the streaming topology generators: every random draw
// must funnel through one explicitly seeded source so the emitted graph is
// a pure function of the seed. A clean generator produces no findings.
func generator(seed int64, emit func(int)) {
	rng := rand.New(rand.NewSource(seed))
	repeats := []int{0}
	for i := 1; i < 32; i++ {
		// Preferential attachment: endpoint-repeat list + seeded draw.
		peer := repeats[rng.Intn(len(repeats))]
		repeats = append(repeats, peer, i)
		emit(peer)
	}
}

// leakyGenerator drifts off the seed funnel: a global-source draw or a
// wall-clock reseed makes generation differ run to run, which the
// determinism tests would misattribute to the engine.
func leakyGenerator(emit func(int)) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano())) // want "wall-clock read"
	for i := 1; i < 32; i++ {
		if rand.Intn(4) == 0 { // want "globally-seeded randomness"
			emit(rng.Intn(i))
		}
	}
}
