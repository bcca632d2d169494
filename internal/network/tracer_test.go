package network

import (
	"testing"
	"time"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/sim"
)

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
