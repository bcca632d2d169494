package network

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/sim"
)

// JoinedAt returns the virtual time of the session's (last) join, following
// topology-event migrations.
func (s *Session) JoinedAt() sim.Time { return s.Current().joinedAt }

func TestOnPacketTracer(t *testing.T) {
	g, ha, hb := buildLine(rate.Mbps(40))
	eng := sim.New()
	cfg := DefaultConfig()
	type traced struct {
		link graph.LinkID
		typ  core.PacketType
	}
	var events []traced
	cfg.OnPacket = func(link graph.LinkID, pkt core.Packet, at sim.Time) {
		events = append(events, traced{link, pkt.Type})
	}
	n := New(g, eng, cfg)
	res := graph.NewResolver(g, 8)
	path, _ := res.HostPath(ha, hb)
	s, _ := n.NewSession(ha, hb, path)
	n.ScheduleJoin(s, 0, rate.Mbps(10))
	n.Run()

	if uint64(len(events)) != n.Stats().Total() {
		t.Fatalf("tracer saw %d packets, stats counted %d", len(events), n.Stats().Total())
	}
	// A self-limited single session: Join downstream (3 links), Response
	// upstream (3), SetBottleneck downstream (3).
	wantTypes := map[core.PacketType]int{
		core.PktJoin: 3, core.PktResponse: 3, core.PktSetBottleneck: 3,
	}
	got := map[core.PacketType]int{}
	for _, e := range events {
		got[e.typ]++
	}
	for typ, want := range wantTypes {
		if got[typ] != want {
			t.Fatalf("tracer %v count = %d, want %d (all: %v)", typ, got[typ], want, got)
		}
	}
	// Join must cross the three forward links in order.
	var joinLinks []graph.LinkID
	for _, e := range events {
		if e.typ == core.PktJoin {
			joinLinks = append(joinLinks, e.link)
		}
	}
	for i, l := range path {
		if joinLinks[i] != l {
			t.Fatalf("join crossed %v, want path %v", joinLinks, path)
		}
	}
	// The Response retraces the path over the reverse links, last link first.
	var respLinks []graph.LinkID
	for _, e := range events {
		if e.typ == core.PktResponse {
			respLinks = append(respLinks, e.link)
		}
	}
	for i, l := range respLinks {
		if want := g.LinkReverse(path[len(path)-1-i]); l != want {
			t.Fatalf("response crossed %v, want the reverses of %v from the far end", respLinks, path)
		}
	}
}

func TestSettlingTime(t *testing.T) {
	g, ha, hb := buildLine(rate.Mbps(40))
	eng := sim.New()
	n := New(g, eng, DefaultConfig())
	res := graph.NewResolver(g, 8)
	path, _ := res.HostPath(ha, hb)
	s, _ := n.NewSession(ha, hb, path)
	joinAt := 2 * time.Millisecond
	n.ScheduleJoin(s, joinAt, rate.Mbps(10))
	n.Run()
	if s.JoinedAt() != joinAt {
		t.Fatalf("JoinedAt = %v", s.JoinedAt())
	}
	st := s.SettlingTime()
	if st <= 0 || st > time.Millisecond {
		t.Fatalf("SettlingTime = %v (want one probe RTT on a 3-link LAN path)", st)
	}
}

// TestPacketTraceDigest pins the simulated transport's event order: a hash of
// every packet OnPacket sees — time, link and every field — over four chains
// through a join, a change and a leave burst, then two sessions from two
// hosts sharing a link through a same-instant join, a capacity cut and a
// leave. The two joins are scheduled against the hosts' order, so their
// packets meet at the shared link's router at one instant from two
// creators, and only the (time, creator, sequence) order decides which
// crosses first. A change to the engine, the wires or the delivery path
// that reorders any two packets, or retimes one, changes the hash; one that
// only makes the hop cheaper leaves it as it was.
func TestPacketTraceDigest(t *testing.T) {
	const want, wantPackets = "a22730d872f7e471", 226
	h := fnv.New64a()
	var packets int
	record := func(link graph.LinkID, pkt core.Packet, at sim.Time) {
		packets++
		fmt.Fprintln(h, at, link, pkt.Type, pkt.Session, pkt.Rate, pkt.Bneck, pkt.Resp, pkt.Beta)
	}

	n, eng, sessions := newChains(t, 4, 5)
	n.cfg.OnPacket = record
	chainBurst(n, eng, sessions, func(s *Session, at sim.Time) { n.ScheduleJoin(s, at, rate.Inf) })
	chainBurst(n, eng, sessions, func(s *Session, at sim.Time) { n.ScheduleChange(s, at, rate.Mbps(int64(1+s.ID%50))) })
	chainBurst(n, eng, sessions, func(s *Session, at sim.Time) { n.ScheduleLeave(s, at) })

	g := graph.New()
	r1, r2 := g.AddRouter("r1"), g.AddRouter("r2")
	ha, hb, dst := g.AddHost("ha"), g.AddHost("hb"), g.AddHost("dst")
	g.Connect(ha, r1, rate.Mbps(100), time.Microsecond)
	g.Connect(hb, r1, rate.Mbps(100), time.Microsecond)
	mid, midRev := g.Connect(r1, r2, rate.Mbps(40), time.Microsecond)
	g.Connect(r2, dst, rate.Mbps(100), time.Microsecond)
	cfg := DefaultConfig()
	cfg.OnPacket = record
	shared := New(g, sim.New(), cfg)
	var two []*Session
	for _, src := range []graph.NodeID{hb, ha} {
		path, err := shared.HostPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		s, err := shared.NewSession(src, dst, path)
		if err != nil {
			t.Fatal(err)
		}
		two = append(two, s)
	}
	shared.ScheduleJoin(two[0], time.Millisecond, rate.Inf)
	shared.ScheduleJoin(two[1], time.Millisecond, rate.Mbps(15))
	shared.Run()
	shared.ScheduleSetCapacity(2*time.Millisecond, rate.Mbps(10), mid, midRev)
	shared.Run()
	if err := shared.Validate(); err != nil {
		t.Fatal(err)
	}
	shared.ScheduleLeave(two[1], 3*time.Millisecond)
	shared.Run()
	if err := shared.Validate(); err != nil {
		t.Fatal(err)
	}

	if got := fmt.Sprintf("%016x", h.Sum64()); got != want || packets != wantPackets {
		t.Fatalf("packet trace digest %s over %d packets, want %s over %d", got, packets, want, wantPackets)
	}
}
