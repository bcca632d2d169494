package network

import (
	"math/rand"
	"testing"
	"time"

	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/sim"
	"bneck/internal/topology"
)

// TestSoakMediumLAN runs a paper-like load (thousands of sessions with mixed
// demands and mid-run churn on the Medium topology) and validates the exact
// rates. Skipped with -short.
func TestSoakMediumLAN(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in short mode")
	}
	const sessions = 4000
	topo, err := topology.Generate(topology.Medium, topology.LAN, 99)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := New(topo.Graph, eng, DefaultConfig())
	hosts := topo.AddHosts(2 * sessions)
	res := graph.NewResolver(topo.Graph, 512)
	rng := rand.New(rand.NewSource(5))
	demand := func(r *rand.Rand) rate.Rate { // +∞, or 1–100 Mbps with probability 0.3
		if r.Float64() >= 0.3 {
			return rate.Inf
		}
		return rate.Mbps(1 + r.Int63n(100))
	}

	all := make([]*Session, sessions)
	for i := 0; i < sessions; i++ {
		src := hosts[i]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		p, err := res.HostPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		s, err := net.NewSession(src, dst, p)
		if err != nil {
			t.Fatal(err)
		}
		all[i] = s
		net.ScheduleJoin(s, time.Duration(rng.Int63n(int64(time.Millisecond))), demand(rng))
	}
	q1 := net.Run()
	if err := net.Validate(); err != nil {
		t.Fatalf("after joins: %v", err)
	}

	// Churn: 10% leave, 10% change, 5% fresh joins — all within 1 ms.
	start := eng.Now() + time.Millisecond
	for i := 0; i < sessions/10; i++ {
		net.ScheduleLeave(all[i], start+time.Duration(rng.Int63n(int64(time.Millisecond))))
	}
	for i := sessions / 10; i < sessions/5; i++ {
		net.ScheduleChange(all[i], start+time.Duration(rng.Int63n(int64(time.Millisecond))), demand(rng))
	}
	extra := topo.AddHosts(sessions / 5)
	for i := 0; i < sessions/20; i++ {
		src := extra[i]
		dst := hosts[rng.Intn(len(hosts))]
		p, err := res.HostPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		s, err := net.NewSession(src, dst, p)
		if err != nil {
			t.Fatal(err)
		}
		net.ScheduleJoin(s, start+time.Duration(rng.Int63n(int64(time.Millisecond))), rate.Inf)
	}
	q2 := net.Run()
	if err := net.Validate(); err != nil {
		t.Fatalf("after churn: %v", err)
	}
	t.Logf("soak: %d sessions, join quiescence %v, churn quiescence %v, %d packets",
		sessions, q1, q2-start, net.Stats().Total())

	// And the network stays completely silent afterwards.
	total := net.Stats().Total()
	eng.RunUntil(eng.Now() + time.Second)
	if net.Stats().Total() != total {
		t.Fatalf("traffic after quiescence")
	}
}
