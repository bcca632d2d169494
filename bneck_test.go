package bneck_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"bneck"
)

func buildDumbbell(t *testing.T) (*bneck.Simulation, *bneck.Session, *bneck.Session) {
	t.Helper()
	b := bneck.NewNetwork()
	r1, r2 := b.Router("r1"), b.Router("r2")
	h1, h2 := b.Host("h1"), b.Host("h2")
	h3, h4 := b.Host("h3"), b.Host("h4")
	b.Link(h1, r1, bneck.Mbps(100), time.Microsecond)
	b.Link(h3, r1, bneck.Mbps(100), time.Microsecond)
	b.Link(r1, r2, bneck.Mbps(60), time.Microsecond)
	b.Link(r2, h2, bneck.Mbps(100), time.Microsecond)
	b.Link(r2, h4, bneck.Mbps(100), time.Microsecond)
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := sim.Session(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sim.Session(h3, h4)
	if err != nil {
		t.Fatal(err)
	}
	return sim, s1, s2
}

func TestPublicAPIQuickstart(t *testing.T) {
	sim, s1, s2 := buildDumbbell(t)
	s1.JoinAt(0, bneck.Unlimited)
	s2.JoinAt(0, bneck.Unlimited)
	rep := sim.RunToQuiescence()
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rates) != 2 {
		t.Fatalf("rates = %v", rep.Rates)
	}
	want := bneck.Mbps(30)
	for id, r := range rep.Rates {
		if !r.Equal(want) {
			t.Fatalf("session %d rate = %v, want %v", id, r, want)
		}
	}
	if !s1.Converged() || !s2.Converged() {
		t.Fatalf("sessions not converged")
	}
	if rep.Packets == 0 || rep.Quiescence <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestPublicAPIDynamics(t *testing.T) {
	sim, s1, s2 := buildDumbbell(t)
	s1.JoinAt(0, bneck.Unlimited)
	sim.RunToQuiescence()
	if r, _ := s1.Rate(); !r.Equal(bneck.Mbps(60)) {
		t.Fatalf("solo rate = %v", r)
	}
	s2.JoinAt(sim.Now()+time.Millisecond, bneck.Mbps(10))
	sim.RunToQuiescence()
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
	if r, _ := s1.Rate(); !r.Equal(bneck.Mbps(50)) {
		t.Fatalf("s1 rate with capped peer = %v", r)
	}
	s2.ChangeAt(sim.Now()+time.Millisecond, bneck.Unlimited)
	sim.RunToQuiescence()
	if r, _ := s2.Rate(); !r.Equal(bneck.Mbps(30)) {
		t.Fatalf("s2 rate after change = %v", r)
	}
	s1.LeaveAt(sim.Now() + time.Millisecond)
	sim.RunToQuiescence()
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
	if r, _ := s2.Rate(); !r.Equal(bneck.Mbps(60)) {
		t.Fatalf("s2 rate after leave = %v", r)
	}
	if s1.Active() {
		t.Fatalf("s1 still active")
	}
}

func TestPublicAPIOracleAgrees(t *testing.T) {
	sim, s1, s2 := buildDumbbell(t)
	s1.JoinAt(0, bneck.Unlimited)
	s2.JoinAt(0, bneck.Mbps(5))
	sim.RunToQuiescence()
	oracle, err := sim.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := s1.Rate()
	r2, _ := s2.Rate()
	if !oracle[s1.ID()].Equal(r1) || !oracle[s2.ID()].Equal(r2) {
		t.Fatalf("oracle %v disagrees with granted %v/%v", oracle, r1, r2)
	}
}

func TestPublicAPITransitStub(t *testing.T) {
	sim, err := bneck.NewTransitStub(bneck.Small, bneck.LAN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddHosts(20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		src, dst, err := sim.RandomHostPair()
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.Session(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		s.JoinAt(time.Duration(i)*50*time.Microsecond, bneck.Unlimited)
	}
	sim.RunToQuiescence()
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIInternet(t *testing.T) {
	sim, err := bneck.NewInternet(bneck.Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddHosts(20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		src, dst, err := sim.RandomHostPair()
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.Session(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		s.JoinAt(time.Duration(i)*50*time.Microsecond, bneck.Unlimited)
	}
	sim.RunToQuiescence()
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := bneck.NewInternet(bneck.Size(99), 1); err == nil {
		t.Fatal("bad size accepted")
	}
}

// TestWithShardsInert pins the deprecated option as a no-op: a seeded
// internet run with churn and a link failure, built with WithShards(1) or
// WithShards(4), reports exactly what the default build reports — packets,
// quiescence instant and every rate — and StepUntil still works as the first
// advance.
func TestWithShardsInert(t *testing.T) {
	run := func(opts ...bneck.Option) bneck.Report {
		s, err := bneck.NewInternet(bneck.Small, 5, opts...)
		if err != nil {
			t.Fatal(err)
		}
		hosts, err := s.AddHosts(8)
		if err != nil {
			t.Fatal(err)
		}
		var sessions []*bneck.Session
		for i := 0; i < 4; i++ {
			sess, err := s.Session(hosts[i], hosts[4+i])
			if err != nil {
				t.Fatal(err)
			}
			sess.JoinAt(time.Duration(i)*200*time.Microsecond, bneck.Mbps(50))
			sessions = append(sessions, sess)
		}
		sessions[1].ChangeAt(5*time.Millisecond, bneck.Mbps(10))
		sessions[2].LeaveAt(8 * time.Millisecond)
		links := s.RouterLinks()
		links[len(links)/2].FailAt(12 * time.Millisecond)
		links[len(links)/2].RestoreAt(40 * time.Millisecond)
		s.StepUntil(time.Millisecond)
		rep := s.RunToQuiescence()
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := run()
	if want.Packets == 0 || len(want.Rates) == 0 {
		t.Fatalf("the run did nothing: %+v", want)
	}
	for _, n := range []int{1, 4} {
		if got := run(bneck.WithShards(n)); !reflect.DeepEqual(got, want) {
			t.Fatalf("WithShards(%d) changed the report:\n%+v\nwant\n%+v", n, got, want)
		}
	}
}

// TestWithShardsByteIdentical: a WAN transit-stub with churn and a link
// failure, built with WithShards(1) and WithShards(3), agrees on every rate,
// the quiescence instant, and the packet total.
func TestWithShardsByteIdentical(t *testing.T) {
	run := func(shards int) bneck.Report {
		s, err := bneck.NewTransitStub(bneck.Small, bneck.WAN, 5, bneck.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		hosts, err := s.AddHosts(8)
		if err != nil {
			t.Fatal(err)
		}
		var sessions []*bneck.Session
		for i := 0; i < 4; i++ {
			sess, err := s.Session(hosts[i], hosts[4+i])
			if err != nil {
				t.Fatal(err)
			}
			sess.JoinAt(time.Duration(i)*200*time.Microsecond, bneck.Mbps(50))
			sessions = append(sessions, sess)
		}
		sessions[1].ChangeAt(5*time.Millisecond, bneck.Mbps(10))
		sessions[2].LeaveAt(8 * time.Millisecond)
		links := s.RouterLinks()
		if len(links) > 0 {
			links[len(links)/2].FailAt(12 * time.Millisecond)
			links[len(links)/2].RestoreAt(40 * time.Millisecond)
		}
		rep := s.RunToQuiescence()
		if err := s.Validate(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return rep
	}
	one, three := run(1), run(3)
	if one.Quiescence != three.Quiescence || one.Packets != three.Packets {
		t.Fatalf("1 shard %v/%d packets, 3 shards %v/%d packets",
			one.Quiescence, one.Packets, three.Quiescence, three.Packets)
	}
	if len(one.Rates) != len(three.Rates) {
		t.Fatalf("rate table sizes differ: %d vs %d", len(one.Rates), len(three.Rates))
	}
	for id, r := range one.Rates {
		if three.Rates[id].String() != r.String() {
			t.Fatalf("session %d: 1 shard %s, 3 shards %s", id, r, three.Rates[id])
		}
	}
}

// TestWithShardsStepUntilFirst: StepUntil as the very first advance on a
// simulation built with WithShards must not panic (regression: it used to
// bypass the network and index a nil partition).
func TestWithShardsStepUntilFirst(t *testing.T) {
	s, err := bneck.NewTransitStub(bneck.Small, bneck.WAN, 9, bneck.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	hosts, err := s.AddHosts(2)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := s.Session(hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	sess.JoinAt(0, bneck.Unlimited)
	s.StepUntil(5 * time.Millisecond) // must not panic
	rep := s.RunToQuiescence()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rates) != 1 {
		t.Fatalf("rates = %v", rep.Rates)
	}
}

func TestPublicAPIRateCallback(t *testing.T) {
	var events int
	b := bneck.NewNetwork()
	r1 := b.Router("r1")
	h1, h2 := b.Host("h1"), b.Host("h2")
	b.Link(h1, r1, bneck.Mbps(100), time.Microsecond)
	b.Link(r1, h2, bneck.Mbps(100), time.Microsecond)
	sim, err := b.Build(bneck.WithRateCallback(func(s bneck.SessionID, r bneck.Rate, at time.Duration) {
		events++
	}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.Session(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	s.JoinAt(0, bneck.Mbps(10))
	sim.RunToQuiescence()
	if events == 0 {
		t.Fatalf("rate callback never fired")
	}
}

func TestBuilderErrors(t *testing.T) {
	far := bneck.NewNetwork()
	for range 50 {
		far.Router("")
	}
	foreign := far.Router("r50") // ID 50: unknown to a smaller builder
	for _, c := range []struct {
		name  string
		build func(b *bneck.NetworkBuilder, r, h bneck.Node)
		want  string
	}{
		{"unattached host", func(b *bneck.NetworkBuilder, r, h bneck.Node) {}, "host 1 (h) has 0 links, want 1"},
		{"self loop", func(b *bneck.NetworkBuilder, r, h bneck.Node) {
			b.Link(r, r, bneck.Mbps(1), 0)
		}, "bneck: graph: self loop on node 0"},
		{"node from another builder", func(b *bneck.NetworkBuilder, r, h bneck.Node) {
			b.Link(h, foreign, bneck.Mbps(1), 0)
			b.Link(h, r, bneck.Mbps(1), 0) // the first error sticks
		}, "bneck: graph: unknown node 50"},
		{"negative propagation", func(b *bneck.NetworkBuilder, r, h bneck.Node) {
			b.Link(h, r, bneck.Mbps(1), -time.Second)
		}, "link 0 has negative propagation -1s"},
		{"host wired to a host", func(b *bneck.NetworkBuilder, r, h bneck.Node) {
			b.Link(h, b.Host("h2"), bneck.Mbps(1), 0)
		}, "host 1 (h) is linked to host 2, want a router"},
	} {
		b := bneck.NewNetwork()
		r, h := b.Router("r"), b.Host("h")
		c.build(b, r, h)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Build error %v, want %q", c.name, err, c.want)
		}
	}

	if _, err := bneck.NewTransitStub(bneck.Size(99), bneck.LAN, 1); err == nil {
		t.Fatalf("expected error for unknown size")
	}
}

// TestForeignNode: a Node the Simulation does not have — one from another
// builder, or one past its last ID — is an error at Session and no link at
// LinkBetween, in either position.
func TestForeignNode(t *testing.T) {
	b := bneck.NewNetwork()
	r := b.Router("r")
	h1, h2 := b.Host("h1"), b.Host("h2")
	b.Link(h1, r, bneck.Mbps(10), 0)
	b.Link(h2, r, bneck.Mbps(10), 0)
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	other := bneck.NewNetwork()
	var nodes []bneck.Node
	for range 51 {
		nodes = append(nodes, other.Host(""))
	}
	for _, c := range []struct {
		name string
		n    bneck.Node
	}{
		{"node from another builder", nodes[50]},
		{"one past the last ID", nodes[3]},
	} {
		for _, pair := range [][2]bneck.Node{{c.n, h2}, {h1, c.n}} {
			const want = "graph: HostPath endpoints must be hosts"
			if s, err := sim.Session(pair[0], pair[1]); s != nil || err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: Session = %v, %v; want an error %q", c.name, s, err, want)
			}
		}
		for _, pair := range [][2]bneck.Node{{c.n, r}, {r, c.n}} {
			if l, ok := sim.LinkBetween(pair[0], pair[1]); l != nil || ok {
				t.Errorf("%s: LinkBetween = %v, %v; want nil, false", c.name, l, ok)
			}
		}
	}
}

func TestHandBuiltAddHostsFails(t *testing.T) {
	b := bneck.NewNetwork()
	r := b.Router("r")
	h1, h2 := b.Host("h1"), b.Host("h2")
	b.Link(h1, r, bneck.Mbps(10), 0)
	b.Link(h2, r, bneck.Mbps(10), 0)
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddHosts(1); err == nil {
		t.Fatalf("expected error on hand-built network")
	}
}
