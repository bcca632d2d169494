package bneck_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bneck"
)

// buildDiamondAPI returns a network with two disjoint router routes between
// the hosts, plus handles to the route links.
func buildDiamondAPI(t *testing.T) (*bneck.Simulation, *bneck.Session, *bneck.Link, *bneck.Link) {
	t.Helper()
	b := bneck.NewNetwork()
	r1, r2, r3, r4 := b.Router("r1"), b.Router("r2"), b.Router("r3"), b.Router("r4")
	src, dst := b.Host("src"), b.Host("dst")
	b.Link(src, r1, bneck.Mbps(100), time.Microsecond)
	topA := b.Link(r1, r2, bneck.Mbps(40), time.Microsecond)
	b.Link(r2, r4, bneck.Mbps(40), time.Microsecond)
	botA := b.Link(r1, r3, bneck.Mbps(25), time.Microsecond)
	b.Link(r3, r4, bneck.Mbps(25), time.Microsecond)
	b.Link(r4, dst, bneck.Mbps(100), time.Microsecond)
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.Session(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return sim, s, topA, botA
}

func TestLinkSetCapacityAt(t *testing.T) {
	sim, s, top, _ := buildDiamondAPI(t)
	s.JoinAt(0, bneck.Unlimited)
	rep := sim.RunToQuiescence()
	if !rep.Rates[s.ID()].Equal(bneck.Mbps(40)) {
		t.Fatalf("initial rate = %v", rep.Rates[s.ID()])
	}
	top.SetCapacityAt(sim.Now()+time.Millisecond, bneck.Mbps(12))
	rep = sim.RunToQuiescence()
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
	if !rep.Rates[s.ID()].Equal(bneck.Mbps(12)) {
		t.Fatalf("post-change rate = %v, want 12 Mbps", rep.Rates[s.ID()])
	}
	if !top.Capacity().Equal(bneck.Mbps(12)) {
		t.Fatalf("handle capacity = %v", top.Capacity())
	}
}

// TestLinkSetCapacityAtRejectsNonPositive: a zero capacity panics at the
// call, before anything is scheduled, so the network still quiesces and
// validates at the old capacity.
func TestLinkSetCapacityAtRejectsNonPositive(t *testing.T) {
	sim, s, top, _ := buildDiamondAPI(t)
	s.JoinAt(0, bneck.Unlimited)
	sim.RunToQuiescence()
	func() {
		defer func() {
			if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "non-positive capacity 0") {
				t.Fatalf("SetCapacityAt(0) recovered %v, want the controller's non-positive capacity error", p)
			}
		}()
		top.SetCapacityAt(sim.Now()+time.Millisecond, bneck.Mbps(0))
	}()
	rep := sim.RunToQuiescence()
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
	if !top.Capacity().Equal(bneck.Mbps(40)) || !rep.Rates[s.ID()].Equal(bneck.Mbps(40)) {
		t.Fatalf("capacity %v, rate %v; want both unchanged at 40 Mbps", top.Capacity(), rep.Rates[s.ID()])
	}
}

// TestSessionRejectsNonPositiveDemand: a demand ≤ 0 panics at JoinAt and at
// ChangeAt, before anything is scheduled, so the session keeps its granted
// rate and the network validates.
func TestSessionRejectsNonPositiveDemand(t *testing.T) {
	sim, s, _, _ := buildDiamondAPI(t)
	refuse := func(call string, d bneck.Rate, f func(time.Duration, bneck.Rate)) {
		t.Helper()
		defer func() {
			want := fmt.Sprintf("non-positive demand %v", d)
			if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), want) {
				t.Fatalf("%s(%v) recovered %v, want the controller's %q", call, d, p, want)
			}
		}()
		f(sim.Now()+time.Millisecond, d)
	}
	refuse("JoinAt", bneck.Mbps(-5), s.JoinAt)
	refuse("JoinAt", bneck.Mbps(0), s.JoinAt)
	s.JoinAt(sim.Now(), bneck.Unlimited)
	sim.RunToQuiescence()
	refuse("ChangeAt", bneck.Mbps(0), s.ChangeAt)
	refuse("ChangeAt", bneck.Mbps(-5), s.ChangeAt)
	rep := sim.RunToQuiescence()
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
	if !rep.Rates[s.ID()].Equal(bneck.Mbps(40)) {
		t.Fatalf("rate %v, want 40 Mbps", rep.Rates[s.ID()])
	}
}

func TestLinkFailAtAndRestoreAt(t *testing.T) {
	sim, s, top, bot := buildDiamondAPI(t)
	s.JoinAt(0, bneck.Unlimited)
	sim.RunToQuiescence()

	top.FailAt(sim.Now() + time.Millisecond)
	rep := sim.RunToQuiescence()
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
	if !rep.Rates[s.ID()].Equal(bneck.Mbps(25)) {
		t.Fatalf("post-failure rate = %v, want the 25 Mbps detour", rep.Rates[s.ID()])
	}
	if top.Up() {
		t.Fatal("failed link reports up")
	}
	if sim.Migrations() != 1 {
		t.Fatalf("migrations = %d", sim.Migrations())
	}

	// Fail the detour too: stranded. Restore one route: rejoined.
	bot.FailAt(sim.Now() + time.Millisecond)
	sim.RunToQuiescence()
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.Stranded() || sim.StrandedSessions() != 1 {
		t.Fatal("session not stranded with both routes down")
	}
	top.RestoreAt(sim.Now() + time.Millisecond)
	rep = sim.RunToQuiescence()
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Stranded() || !s.Active() {
		t.Fatal("session did not rejoin on restore")
	}
	if !rep.Rates[s.ID()].Equal(bneck.Mbps(40)) {
		t.Fatalf("post-restore rate = %v, want 40 Mbps", rep.Rates[s.ID()])
	}
}

// TestPathPolicyAPI pins the public policy surface: WithPathPolicy,
// Reoptimizations, and the ReconfigPackets migration-cost metric.
func TestPathPolicyAPI(t *testing.T) {
	build := func(opts ...bneck.Option) (*bneck.Simulation, *bneck.Session, *bneck.Link) {
		b := bneck.NewNetwork()
		r1, r2, r3 := b.Router("r1"), b.Router("r2"), b.Router("r3")
		src, dst := b.Host("src"), b.Host("dst")
		b.Link(src, r1, bneck.Mbps(100), time.Microsecond)
		b.Link(dst, r2, bneck.Mbps(100), time.Microsecond)
		direct := b.Link(r1, r2, bneck.Mbps(80), time.Microsecond)
		b.Link(r1, r3, bneck.Mbps(40), time.Microsecond)
		b.Link(r3, r2, bneck.Mbps(40), time.Microsecond)
		sim, err := b.Build(opts...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.Session(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return sim, s, direct
	}
	cycle := func(sim *bneck.Simulation, s *bneck.Session, direct *bneck.Link) {
		s.JoinAt(0, bneck.Unlimited)
		sim.RunToQuiescence()
		direct.FailAt(sim.Now() + time.Millisecond)
		sim.RunToQuiescence()
		direct.RestoreAt(sim.Now() + time.Millisecond)
		sim.RunToQuiescence()
		if err := sim.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	// Default: pinned — but the forced migration still has a packet cost.
	sim, s, direct := build()
	cycle(sim, s, direct)
	if s.PathLen() != 4 || sim.Reoptimizations() != 0 {
		t.Fatalf("pinned: %d hops, %d reoptimizations", s.PathLen(), sim.Reoptimizations())
	}
	if sim.ReconfigPackets() == 0 || sim.ReconfigPackets() >= sim.Packets() {
		t.Fatalf("pinned: reconfig packets %d out of bounds (total %d)",
			sim.ReconfigPackets(), sim.Packets())
	}

	// ReoptimizeOnRestore: the restore folds the detour back.
	sim, s, direct = build(bneck.WithPathPolicy(bneck.ReoptimizeOnRestore))
	cycle(sim, s, direct)
	if s.PathLen() != 3 || sim.Reoptimizations() != 1 {
		t.Fatalf("reoptimize: %d hops, %d reoptimizations", s.PathLen(), sim.Reoptimizations())
	}
}

func TestRouterLinksOnTransitStub(t *testing.T) {
	sim, err := bneck.NewTransitStub(bneck.Small, bneck.LAN, 3)
	if err != nil {
		t.Fatal(err)
	}
	links := sim.RouterLinks()
	if len(links) == 0 {
		t.Fatal("no router links on a transit-stub topology")
	}
	if _, err := sim.AddHosts(8); err != nil {
		t.Fatal(err)
	}
	src, dst, err := sim.RandomHostPair()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.Session(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	s.JoinAt(0, bneck.Unlimited)
	sim.RunToQuiescence()
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fail and restore a handful of router links; the network must stay
	// valid throughout.
	for i := 0; i < 3; i++ {
		links[i].FailAt(sim.Now() + time.Millisecond)
		sim.RunToQuiescence()
		if err := sim.Validate(); err != nil {
			t.Fatalf("after failing link %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		links[i].RestoreAt(sim.Now() + time.Millisecond)
		sim.RunToQuiescence()
		if err := sim.Validate(); err != nil {
			t.Fatalf("after restoring link %d: %v", i, err)
		}
	}
	if !s.Active() && !s.Stranded() {
		t.Fatal("session lost entirely")
	}
}

func TestLinkHandleBeforeBuildPanics(t *testing.T) {
	b := bneck.NewNetwork()
	r1, r2 := b.Router("r1"), b.Router("r2")
	l := b.Link(r1, r2, bneck.Mbps(10), time.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("using a Link handle before Build did not panic")
		}
	}()
	l.FailAt(0)
}
