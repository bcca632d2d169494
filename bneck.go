// Package bneck is a Go implementation of B-Neck, the distributed and
// quiescent max-min fair rate allocation algorithm of Mozo, López-Presa and
// Fernández Anta (2011).
//
// B-Neck assigns every session its max-min fair rate using a bounded number
// of control packets and then goes silent: in the absence of session
// arrivals, departures or demand changes, no control traffic flows at all.
// Session dynamics reactivate exactly the affected parts of the network.
//
// # Building a network
//
// The package offers two ways to build a network:
//
//   - NewNetwork for hand-built topologies (routers, hosts, links), and
//   - NewTransitStub for the paper's generated Internet-like topologies.
//
// Both return a Simulation that runs the full distributed protocol over a
// deterministic discrete event simulator with FIFO links, transmission
// serialization, and propagation delays. Every converged state can be
// cross-checked against a centralized water-filling oracle with
// Simulation.Validate and Simulation.Oracle.
//
// A minimal example:
//
//	b := bneck.NewNetwork()
//	r1, r2 := b.Router("r1"), b.Router("r2")
//	src, dst := b.Host("src"), b.Host("dst")
//	b.Link(src, r1, bneck.Mbps(100), time.Microsecond)
//	b.Link(r1, r2, bneck.Mbps(40), time.Microsecond)
//	b.Link(r2, dst, bneck.Mbps(100), time.Microsecond)
//	sim, _ := b.Build()
//	s, _ := sim.Session(src, dst)
//	s.JoinAt(0, bneck.Unlimited)
//	report := sim.RunToQuiescence()
//	fmt.Println(report.Rates[s.ID()]) // 40000000 (the 40 Mbps bottleneck)
//
// # Topology dynamics and path policy
//
// Links can fail, be restored and change capacity at runtime: Link handles
// (from NetworkBuilder.Link, Simulation.RouterLinks or
// Simulation.LinkBetween) schedule the events, and affected sessions
// migrate through the protocol's own Leave → reroute → Join under fresh
// session IDs. Sessions whose hosts become disconnected are stranded and
// rejoin automatically on restore; Simulation.Migrations,
// Simulation.StrandedSessions and Simulation.ReconfigPackets expose the
// bookkeeping.
//
// Paths are pinned at join time by default, matching the paper. The
// WithPathPolicy(ReoptimizeOnRestore) option migrates sessions back onto
// shorter paths once restores (or large capacity increases) re-enable them
// — see PathPolicy and the ExamplePathPolicy example;
// Simulation.Reoptimizations counts the moves.
//
// See examples/ for runnable programs, docs/SCENARIOS.md for the
// declarative scenario-script DSL that drives whole failure timelines, and
// internal/exp for the harness that regenerates every figure of the paper's
// evaluation.
package bneck

import (
	"time"

	"bneck/internal/rate"
)

// Rate is an exact rational rate in bits per second. Exact arithmetic is
// what lets the protocol detect convergence (and hence quiesce) reliably;
// see the rate package documentation.
type Rate = rate.Rate

// Unlimited is the demand of a session with no maximum rate.
var Unlimited = rate.Inf

// Mbps returns a Rate of v megabits per second.
func Mbps(v int64) Rate { return rate.Mbps(v) }

// Bps returns a Rate of v bits per second.
func Bps(v int64) Rate { return rate.FromInt64(v) }

// RateOf returns the exact rational rate num/den bits per second.
func RateOf(num, den int64) Rate { return rate.FromFrac(num, den) }

// SessionID identifies a session within a Simulation.
type SessionID int64

// Report summarizes a RunToQuiescence call.
type Report struct {
	// Quiescence is the virtual time at which the network went silent.
	Quiescence time.Duration
	// Packets is the total number of control packets sent across links so
	// far (cumulative over the simulation).
	Packets uint64
	// Rates maps every active session to its granted max-min fair rate.
	Rates map[SessionID]Rate
}
