// Package core implements the distributed B-Neck protocol: the router-link
// task (Figure 2 of the paper), the source-node task (Figure 3), and the
// destination-node task (Figure 4), together with the packet vocabulary and
// the per-link session table.
//
// The tasks are pure event-driven state machines: they hold protocol state
// and translate one received packet (or API call) into state updates and
// emitted packets, via an Emitter. They know nothing about time, topology or
// transport, so the same code runs under the discrete event simulator
// (internal/network) and the goroutine runtime (internal/live), and can be
// unit-tested with a synchronous in-memory pump.
//
// # Generalization of the source access link
//
// The paper folds the capacity of the session's first link into the source's
// demand (Ds = min(r, Ce)) and assumes each host sources at most one
// session, so the access link never needs its own router-link task. This
// implementation instead runs a RouterLink on every link of the path,
// including access links, and the source carries only its demand r. The two
// are equivalent for the paper's scenarios: with a single session s on
// access link e, R_e = {s} always (no SetBottleneck can move the only
// session out while it is the unique member: if it is restricted elsewhere
// it moves to F_e with B_e = ∞ afterwards, which restricts nothing), so B_e
// = C_e whenever it caps, and a Join/Probe carrying λ = r is capped to
// min(r, C_e) at e — exactly Ds. The generalized form additionally supports
// several sessions sharing a source host, which the paper excludes "just for
// the sake of simplicity".
//
// # Differences from the figures (engineering only, behavior identical)
//
//   - The table (table.go) maintains incremental sums and rate-indexed
//     buckets so that each packet costs O(log k) instead of O(|S_e|); a
//     naive transcription of the figures lives in the tests and is checked
//     to be observationally equivalent. Its layout keeps a packet's visit
//     to a few cache lines and off the runtime's maps: an open-addressed
//     session index (entrymap.go), buckets that list their members and
//     members that know their bucket (rateset.go), the table embedded in
//     the RouterLink by value, and the first session's entry inline in the
//     table, which answers alone until a second session makes the index,
//     so a single-session link is one allocation; see DESIGN.md §5.
//     Handlers iterate snapshots sorted by session ID, so emission order
//     depends on the sets' contents only.
//   - Packets for sessions unknown at a link (removed by an earlier Leave
//     racing with in-flight traffic) are dropped, which the figures leave
//     implicit.
//   - All rates are exact rationals (internal/rate); see DESIGN.md §4.
package core
