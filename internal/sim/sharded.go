package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// infTime is the "no event" sentinel.
const infTime = Time(math.MaxInt64)

// ExtCreator is the creator ID of events scheduled from outside any node
// context: setup code, and global (barrier) events. It sorts before every
// node, so a global event at time t always precedes node events at t.
const ExtCreator int32 = -1

// defaultWindowBatch is the number of consecutive conservative windows one
// fork/join may span when no global event interrupts them. Batching exists
// for low-delay (LAN) topologies, where a single window is so short that
// per-window coordination would dominate; the value only bounds how much
// coordination is amortized, it never changes results.
const defaultWindowBatch = 16

// ShardedEngine is a conservatively-synchronized parallel discrete event
// scheduler: nodes of a network are partitioned into shards, each shard owns
// a value-typed 4-ary heap and a local virtual clock, and shards execute
// windows of at most the lookahead bound in parallel. The lookahead is the
// minimum latency of any cross-shard edge, so an event executing inside a
// window can only schedule into another shard at or beyond the window's end;
// those messages travel through per-shard outboxes and are delivered at the
// next window boundary.
//
// Windows are executed in batches: one fork/join runs up to WindowBatch
// consecutive windows when no global event falls inside them. Within a
// batch, cross-shard sends are binned by the window their arrival time falls
// in; shards synchronize on a lightweight barrier between windows and each
// shard ingests its next window's bin itself, so the coordinator — and its
// channel round-trips — are off the per-window path. When the process has a
// single CPU (or SetParallel(false) was called), windows execute inline on
// the coordinating goroutine in shard order, with no synchronization at all:
// on one core, goroutine parallelism can only add overhead.
//
// Determinism: every event is keyed by (time, creator, creator sequence),
// where the creator is the node whose execution scheduled it (ExtCreator for
// setup and global events) and the sequence counts that creator's
// schedulings. Because a node's execution order is independent of the
// partition (cross-shard influence always arrives strictly later than the
// lookahead bound), the keys — and therefore the complete run — are
// byte-identical for any shard count, any WindowBatch, and either execution
// mode, including one shard — which in turn matches the serial Engine
// driving the same creator-keyed workload.
//
// Events come in three flavors:
//   - shard events (SendAt): always regular, execute on the owning shard;
//   - global regular events (At/After): execute at a barrier, with every
//     shard quiescent up to their timestamp — the place for session churn,
//     topology dynamics, and anything that reads or writes cross-shard state;
//   - global daemon events (DaemonAt): like global regular events, but they
//     do not keep Run alive (measurement ticks).
type ShardedEngine struct {
	shards []*seShard
	part   []int32 // node -> shard
	nNodes int
	// lookahead is the conservative window bound: the minimum latency of any
	// event scheduled from one shard into another. infTime when nothing is
	// cut (single shard).
	lookahead Time

	// windowBatch is the maximum windows per fork/join; stride is the number
	// of outbox slots per destination shard (windowBatch in-batch bins plus
	// one tail slot for arrivals beyond the batch).
	windowBatch int
	stride      int
	// parallel selects worker goroutines for multi-shard windows; false runs
	// every window inline on the coordinator (the single-CPU fast path).
	parallel bool

	global        eventQueue // global events, creator ExtCreator
	extSeq        uint64
	globalRegular int

	now      Time
	lastBusy Time
	nEvents  uint64

	// Optimistic execution (spec.go): spec enables speculative attempts,
	// specGate is the transport's barrier-time admission check, specMult the
	// adaptive attempt length in lookaheads, specCooldown the conservative
	// rounds forced after a park.
	spec         bool
	specGate     func() bool
	specMult     int
	specCooldown int
	specStats    SpeculationStats

	stopped  atomic.Bool
	inWindow bool
	// inlineWindow marks a window (or batch) executing inline on the
	// coordinating goroutine: with no concurrent shard execution, a
	// cross-shard send may push straight into the destination heap — the
	// lookahead bound proves its arrival lies beyond every window currently
	// forming — skipping the outbox machinery entirely.
	inlineWindow bool

	busy []*seShard // scratch: shards with events due in the current window

	workers bool
	bar     seBarrier
	wake    []chan seBatch
	done    chan struct{}
}

// seBatch describes one fork/join: K consecutive windows starting at W,
// each lookahead wide, the last one ending at end. spec marks a speculative
// attempt (K is 1; shards run runSpec instead of the window loop).
type seBatch struct {
	W, L, end Time
	K         int
	spec      bool
}

// seShard is one shard: a heap of owned events, a local clock, and the
// per-creator-node scheduling counters of the nodes it owns.
type seShard struct {
	id       int32
	now      Time
	q        eventQueue
	regular  int
	nEvents  uint64
	lastBusy Time
	ctr      []uint64 // per-node creator counters (live entry at the owner)
	// out holds cross-shard sends: stride slots per destination shard, one
	// per in-batch window plus a tail slot. dirty lists the slot indices
	// with pending events, so the coordinator's drain scans only what was
	// written instead of shards × stride slots (inline windows bypass the
	// outboxes entirely and keep drain at zero work).
	out   [][]event
	dirty []int
	// windowEnd and the batch fields mirror the shard's current window so
	// SendAt can check the lookahead guarantee and bin cross-shard sends
	// without touching shared engine state.
	windowEnd Time
	batchW    Time
	batchL    Time
	batchEnd  Time
	batchK    int

	// Speculation (spec.go). specMode marks an attempt in progress: SendAt
	// withholds cross-shard sends in the journal instead of delivering them.
	// horizon is the shard's published lower bound on any future cross-shard
	// influence (read by peers' safety checks; monotone within an attempt).
	// specJMin tracks the earliest journaled arrival; specParked records
	// that the shard stopped at an unsafe event, its suffix intact.
	specMode   bool
	specParked bool
	specEvents uint64
	specJMin   Time
	horizon    atomic.Int64
	//bneck:journal withheld cross-shard sends; externalized only at commit.
	specOut []event
}

// NewSharded returns an engine with the given number of shards (clamped to
// at least 1). Call SetTopology before scheduling node events.
func NewSharded(shards int) *ShardedEngine {
	if shards < 1 {
		shards = 1
	}
	se := &ShardedEngine{
		windowBatch: defaultWindowBatch,
		parallel:    runtime.GOMAXPROCS(0) > 1,
		specMult:    specMultStart,
	}
	se.stride = se.windowBatch + 1
	for i := 0; i < shards; i++ {
		se.shards = append(se.shards, &seShard{
			id:  int32(i),
			out: make([][]event, shards*se.stride),
		})
	}
	se.bar.n = shards
	se.lookahead = infTime
	return se
}

// Shards returns the shard count.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Lookahead returns the current conservative window bound, or 0 when
// windows are unbounded (a single shard: nothing is cut).
func (se *ShardedEngine) Lookahead() Time {
	if se.lookahead == infTime {
		return 0
	}
	return se.lookahead
}

// WindowBatch returns the maximum number of consecutive windows one
// fork/join may run.
func (se *ShardedEngine) WindowBatch() int { return se.windowBatch }

// SetWindowBatch bounds how many consecutive conservative windows run per
// fork/join (clamped to at least 1, which disables batching). Results are
// identical at every setting; only synchronization frequency changes. Call
// it outside Run, or from a global event.
func (se *ShardedEngine) SetWindowBatch(k int) {
	if se.inWindow {
		panic("sim: SetWindowBatch during a shard window")
	}
	if k < 1 {
		k = 1
	}
	se.drain() // outbox slot meaning changes with the stride
	se.windowBatch = k
	se.stride = k + 1
	for _, s := range se.shards {
		s.out = make([][]event, len(se.shards)*se.stride)
	}
}

// SetParallel selects between worker-goroutine window execution and inline
// sequential execution on the coordinator. The default is parallel exactly
// when GOMAXPROCS > 1; results are identical either way (the choice is pure
// scheduling). Call it outside Run.
func (se *ShardedEngine) SetParallel(on bool) {
	if se.inWindow {
		panic("sim: SetParallel during a shard window")
	}
	se.parallel = on
}

// Parallel reports whether windows execute on worker goroutines (true) or
// inline on the coordinator (false). Transports use it to decide whether
// per-shard state needs goroutine isolation: inline execution is a single
// goroutine, so sharing one domain is safe and cheaper.
func (se *ShardedEngine) Parallel() bool { return se.parallel }

// ShardOf returns the shard owning a node.
func (se *ShardedEngine) ShardOf(node int32) int { return int(se.part[node]) }

// SetTopology installs (or replaces) the node→shard map and the lookahead
// bound. part must assign every node a shard in [0, Shards()). It may be
// called before a run or from inside a global event (a barrier, with every
// shard parked); queued shard events are re-homed to their owners' new
// shards and creator counters move with their nodes, so a repartition never
// disturbs the deterministic event order.
//
//bneck:keyed re-homes already-keyed events; keys are preserved verbatim.
func (se *ShardedEngine) SetTopology(numNodes int, part []int32, lookahead Time) {
	if len(part) != numNodes {
		panic(fmt.Sprintf("sim: partition of %d nodes for %d-node topology", len(part), numNodes))
	}
	for n, p := range part {
		if int(p) < 0 || int(p) >= len(se.shards) {
			panic(fmt.Sprintf("sim: node %d assigned to shard %d of %d", n, p, len(se.shards)))
		}
	}
	if lookahead <= 0 {
		lookahead = infTime
	}
	old := se.part
	se.part = append([]int32(nil), part...)
	se.nNodes = numNodes
	se.lookahead = lookahead

	// Move creator counters: each node's live counter sits in its previous
	// owner's slice (or nowhere, for new nodes).
	ctrs := make([][]uint64, len(se.shards))
	for i, s := range se.shards {
		ctrs[i] = s.ctr
		s.ctr = make([]uint64, numNodes)
	}
	for n := 0; n < numNodes; n++ {
		var v uint64
		if old != nil && n < len(old) {
			prev := ctrs[old[n]]
			if n < len(prev) {
				v = prev[n]
			}
		}
		se.shards[part[n]].ctr[n] = v
	}

	// Re-home queued shard events by owner.
	var pending []event
	for _, s := range se.shards {
		pending = append(pending, s.q.ev...)
		s.q.ev = s.q.ev[:0]
		s.regular = 0
	}
	for _, ev := range pending {
		d := se.shards[se.part[ev.owner]]
		d.q.push(ev)
		d.regular++
	}
}

// Now returns the engine's global virtual time: the latest instant every
// shard has reached. Individual shards can be ahead mid-run; use NowAt for a
// node's local clock.
func (se *ShardedEngine) Now() Time { return se.now }

// NowAt returns the local clock of the shard owning a node. Valid from the
// node's own execution context, from a global event, or between runs.
func (se *ShardedEngine) NowAt(node int32) Time { return se.shards[se.part[node]].now }

// LastBusy returns the execution time of the most recent regular event —
// once Run returns, the quiescence instant.
func (se *ShardedEngine) LastBusy() Time { return se.lastBusyAll() }

// Events returns the total number of events executed.
func (se *ShardedEngine) Events() uint64 {
	n := se.nEvents
	for _, s := range se.shards {
		n += s.nEvents
	}
	return n
}

// Pending returns the number of regular events currently scheduled
// (excluding cross-shard messages still in flight during a window).
func (se *ShardedEngine) Pending() int { return se.regularTotal() }

// At schedules a global regular event: fn runs at virtual time t on the
// coordinating goroutine, with every shard quiescent up to t. Global events
// may touch any state and schedule anywhere; they cannot be scheduled from
// inside a shard's window.
func (se *ShardedEngine) At(t Time, fn func()) { se.scheduleGlobal(t, fn, false) }

// After schedules a global regular event d from now (d < 0 clamps to now).
func (se *ShardedEngine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	se.scheduleGlobal(se.now+d, fn, false)
}

// DaemonAt schedules a global daemon event: it runs like a global event but
// does not keep Run alive.
func (se *ShardedEngine) DaemonAt(t Time, fn func()) { se.scheduleGlobal(t, fn, true) }

// scheduleGlobal assigns the ExtCreator key to a global (barrier) event.
//
//bneck:keyed
func (se *ShardedEngine) scheduleGlobal(t Time, fn func(), daemon bool) {
	if se.inWindow {
		panic("sim: global scheduling during a shard window (schedule from setup or a global event)")
	}
	if t < se.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, se.now))
	}
	se.extSeq++
	se.global.push(event{at: t, src: ExtCreator, seq: se.extSeq, fn: fn, daemon: daemon})
	if !daemon {
		se.globalRegular++
	}
}

// SendAt schedules fn at absolute time t on the shard owning node `to`, with
// creator `from`: the node whose execution performs the scheduling. During a
// window, a cross-shard send must land at or beyond the window's end — the
// conservative guarantee the lookahead bound exists to provide. Within a
// window batch, cross-shard sends are binned by the window their arrival
// falls in; arrivals beyond the batch land in the tail slot, drained by the
// coordinator at the join.
//
//bneck:keyed assigns the (time, creator, creator-seq) key.
func (se *ShardedEngine) SendAt(from, to int32, t Time, fn func()) {
	sf := se.shards[se.part[from]]
	sf.ctr[from]++
	ev := event{at: t, src: from, owner: to, seq: sf.ctr[from], fn: fn}
	di := se.part[to]
	if se.inWindow && di != sf.id {
		if sf.specMode {
			// Speculative attempt: the send is withheld in the journal until
			// the commit point (specJoin) — nothing crosses shards mid-attempt.
			// The lookahead guarantee here is relative to the executing event:
			// every cut-link arrival lies at least L past the sender's clock.
			if t < sf.now+se.lookahead {
				panic(fmt.Sprintf("sim: cross-shard send at %v from clock %v (lookahead %v violated)", t, sf.now, se.lookahead))
			}
			sf.specOut = append(sf.specOut, ev)
			if t < sf.specJMin {
				sf.specJMin = t
			}
			return
		}
		if t < sf.windowEnd {
			panic(fmt.Sprintf("sim: cross-shard send at %v inside window ending %v (lookahead %v violated)", t, sf.windowEnd, se.lookahead))
		}
		if !se.inlineWindow {
			slot := se.windowBatch // tail
			if t < sf.batchEnd {
				// The lookahead guarantee puts t at least one full window past
				// the sending window, so the bin is always a later in-batch
				// window.
				if j := int((t - sf.batchW) / sf.batchL); j < sf.batchK {
					slot = j
				}
			}
			idx := int(di)*se.stride + slot
			if len(sf.out[idx]) == 0 {
				sf.dirty = append(sf.dirty, idx)
			}
			sf.out[idx] = append(sf.out[idx], ev)
			return
		}
		// Inline execution: no other goroutine touches the destination heap,
		// and t ≥ this window's end means the event cannot belong to any
		// window currently underway, so the direct push preserves the exact
		// execution order the outbox route would produce.
	}
	d := se.shards[di]
	if t < d.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, d.now))
	}
	d.q.push(ev)
	d.regular++
}

// Stop makes the innermost Run/RunUntil return at the next event boundary
// (shards finish their current window batch).
func (se *ShardedEngine) Stop() { se.stopped.Store(true) }

// Run executes events until no regular events remain anywhere — shard
// heaps, in-flight mailboxes, or the global queue. Global daemons due before
// the last regular event still run; later ones do not, exactly the serial
// engine's quiescence rule. It returns the quiescence time.
func (se *ShardedEngine) Run() Time {
	se.stopped.Store(false)
	defer se.stopWorkers()
	if len(se.shards) == 1 {
		se.runSingle(infTime, true)
		se.syncNow()
		return se.lastBusyAll()
	}
	for !se.stopped.Load() {
		se.drain()
		if se.regularTotal() == 0 {
			break
		}
		tG, tL := se.minGlobal(), se.minLocal()
		if tG <= tL {
			se.execGlobal()
			continue
		}
		if se.trySpeculate(tL, tG, infTime) {
			continue
		}
		se.runWindows(tL, tG, infTime)
	}
	se.syncNow()
	return se.lastBusyAll()
}

// runSingle is the single-shard fast path behind Run and RunUntil. With one
// shard nothing is ever cut: no cross-shard send can exist, the outboxes
// stay empty forever and the lookahead bound is unbounded, so the window
// machinery — outbox drain, busy scan, batch plan, phase barrier — is pure
// overhead. The engine degenerates to the serial two-queue loop: execute
// shard events up to the next global event, execute the global event at its
// barrier (trivially satisfied), repeat. Event keys are untouched, so the
// run is byte-identical to the general path — which in turn matches the
// classic serial engine. hard bounds execution for RunUntil (events at
// exactly hard still run); infTime means run to quiescence. needRegular
// applies Run's quiescence rule: stop when no regular events remain, leaving
// later daemons unexecuted.
func (se *ShardedEngine) runSingle(hard Time, needRegular bool) {
	s := se.shards[0]
	for !se.stopped.Load() {
		if needRegular && se.globalRegular+s.regular == 0 {
			return
		}
		tG := se.minGlobal()
		tL := infTime
		if s.q.len() > 0 {
			tL = s.q.minTime()
		}
		if tG <= tL {
			if tG > hard || tG == infTime {
				return
			}
			se.execGlobal()
			continue
		}
		if tL > hard {
			return
		}
		end := tG
		if hard != infTime && hard+1 < end {
			end = hard + 1 // exclusive bound: events at exactly hard run
		}
		// inWindow keeps the scheduling discipline identical to the general
		// path: a node event calling At/After must panic at every shard count.
		se.inWindow, se.inlineWindow = true, true
		s.run(se, end)
		se.inWindow, se.inlineWindow = false, false
	}
}

// RunUntil executes all events (regular and daemon) scheduled at or before
// t, then sets every clock to t.
func (se *ShardedEngine) RunUntil(t Time) {
	se.stopped.Store(false)
	defer se.stopWorkers()
	if len(se.shards) == 1 {
		se.runSingle(t, false)
		se.syncNow()
		if se.now < t {
			se.now = t
		}
		if s := se.shards[0]; s.now < t {
			s.now = t
		}
		return
	}
	for !se.stopped.Load() {
		se.drain()
		tG, tL := se.minGlobal(), se.minLocal()
		if tG <= tL {
			if tG > t {
				break
			}
			se.execGlobal()
			continue
		}
		if tL > t {
			break
		}
		hard := t
		if hard < infTime {
			hard++ // the window end is exclusive; events at exactly t must run
		}
		if se.trySpeculate(tL, tG, hard) {
			continue
		}
		se.runWindows(tL, tG, hard)
	}
	se.syncNow()
	if se.now < t {
		se.now = t
	}
	for _, s := range se.shards {
		if s.now < t {
			s.now = t
		}
	}
}

// drain moves outbox events into their destination shards' heaps — the
// coordinator-side ingest, covering tail bins (and, after a Stop aborted a
// batch, any bins its barriers never reached). Only the slots a shard
// actually wrote are visited (in-batch ingestion may have emptied some of
// them already — the length check skips those). Insertion order is
// irrelevant: keys are unique, and heaps pop the exact minimum.
//
//bneck:keyed moves already-keyed events between heaps.
func (se *ShardedEngine) drain() {
	for _, s := range se.shards {
		if len(s.dirty) == 0 {
			continue
		}
		for _, idx := range s.dirty {
			box := s.out[idx]
			if len(box) == 0 {
				continue
			}
			d := se.shards[idx/se.stride]
			for i := range box {
				d.q.push(box[i])
				d.regular++
				box[i] = event{} // release the closure reference
			}
			s.out[idx] = box[:0]
		}
		s.dirty = s.dirty[:0]
	}
}

func (se *ShardedEngine) regularTotal() int {
	n := se.globalRegular
	for _, s := range se.shards {
		n += s.regular
	}
	return n
}

func (se *ShardedEngine) minGlobal() Time {
	if se.global.len() == 0 {
		return infTime
	}
	return se.global.minTime()
}

func (se *ShardedEngine) minLocal() Time {
	t := infTime
	for _, s := range se.shards {
		if s.q.len() > 0 && s.q.minTime() < t {
			t = s.q.minTime()
		}
	}
	return t
}

// execGlobal pops and executes the earliest global event at a barrier: every
// shard has finished all events before its timestamp, and shard clocks
// advance to it so emissions from the event use a consistent now.
func (se *ShardedEngine) execGlobal() {
	ev := se.global.pop()
	se.now = ev.at
	for _, s := range se.shards {
		if s.now < ev.at {
			s.now = ev.at
		}
	}
	if !ev.daemon {
		se.globalRegular--
		se.lastBusy = ev.at
	}
	se.nEvents++
	ev.fn()
}

// runWindows executes one fork/join starting at W: up to windowBatch
// consecutive conservative windows, bounded by the first global event (tG)
// and the hard horizon. The batch size K is exactly the number of windows
// that fit — barrier events never fall inside a batch.
func (se *ShardedEngine) runWindows(W, tG, hard Time) {
	maxEnd := tG
	if hard < maxEnd {
		maxEnd = hard
	}
	L := se.lookahead
	end := W + L
	if end < W { // overflow: unbounded window
		end = infTime
	}
	K := 1
	if end >= maxEnd {
		end = maxEnd
	} else if se.windowBatch > 1 {
		K = se.windowBatch
		if maxEnd != infTime {
			// end < maxEnd implies L < maxEnd-W, so the ceiling division
			// cannot overflow for any timestamp a real event carries.
			if need := (maxEnd - W + L - 1) / L; Time(K) > need {
				K = int(need)
			}
		}
		last := W + Time(K)*L
		if last < W || last > maxEnd {
			last = maxEnd
		}
		end = last
	}

	if K > 1 {
		se.runBatch(seBatch{W: W, L: L, end: end, K: K})
		return
	}

	se.busy = se.busy[:0]
	for _, s := range se.shards {
		if s.q.len() > 0 && s.q.minTime() < end {
			se.busy = append(se.busy, s)
		}
	}
	if len(se.busy) == 0 {
		return
	}
	// inWindow is set even when a single shard runs inline on the
	// coordinator: the lookahead-violation and no-global-scheduling panics
	// must fire identically regardless of how many shards happen to be busy,
	// or a violation would corrupt determinism only at some shard counts.
	se.inWindow = true
	if len(se.busy) == 1 || !se.parallel {
		se.inlineWindow = true
		for _, s := range se.busy {
			s.runPlan(se, seBatch{W: W, L: L, end: end, K: 1})
		}
		se.inlineWindow = false
	} else {
		plan := seBatch{W: W, L: L, end: end, K: 1}
		se.ensureWorkers()
		for _, s := range se.busy {
			se.wake[s.id] <- plan
		}
		for range se.busy {
			<-se.done
		}
	}
	se.inWindow = false
}

// runBatch executes K consecutive windows in one fork/join. Every shard
// participates — an idle shard can become busy from a mid-batch bin — and
// shards synchronize on the engine barrier between windows, each ingesting
// its own next-window bin. Inline mode runs the same schedule sequentially
// on the coordinator, with the ingest between windows and no barriers.
func (se *ShardedEngine) runBatch(plan seBatch) {
	se.inWindow = true
	if !se.parallel {
		// Inline sequential batch: cross-shard sends push directly into
		// destination heaps (see SendAt), so there is nothing to ingest
		// between windows — the loop is just each shard's events per window.
		se.inlineWindow = true
		for i := 0; i < plan.K; i++ {
			endI := plan.end
			if i+1 < plan.K {
				endI = plan.W + Time(i+1)*plan.L
			}
			for _, s := range se.shards {
				s.begin(plan, endI)
				s.run(se, endI)
			}
		}
		se.inlineWindow = false
	} else {
		se.ensureWorkers()
		for _, s := range se.shards {
			se.wake[s.id] <- plan
		}
		for range se.shards {
			<-se.done
		}
	}
	se.inWindow = false
}

// runPlan executes one shard's side of a fork/join: K windows with a
// barrier and a bin ingest between consecutive ones.
func (s *seShard) runPlan(se *ShardedEngine, plan seBatch) {
	if plan.spec {
		s.begin(plan, plan.end)
		s.runSpec(se, plan.end)
		return
	}
	for i := 0; i < plan.K; i++ {
		endI := plan.end
		if i+1 < plan.K {
			endI = plan.W + Time(i+1)*plan.L
		}
		s.begin(plan, endI)
		s.run(se, endI)
		if i+1 < plan.K {
			// The barrier orders every bin write of window ≤ i before the
			// reads below; producers ahead in window i+1 only touch later
			// bins (the lookahead keeps arrivals a full window out).
			se.bar.await()
			s.ingest(se, i+1)
		}
	}
}

// begin installs the shard's current window bounds for SendAt's lookahead
// check and bin selection. It runs on the shard's executing goroutine, so
// SendAt (same goroutine) always sees fresh values.
func (s *seShard) begin(plan seBatch, endI Time) {
	s.windowEnd = endI
	s.batchW, s.batchL, s.batchEnd, s.batchK = plan.W, plan.L, plan.end, plan.K
}

// ingest moves every shard's bin for window j of the current batch into this
// shard's heap.
//
//bneck:keyed moves already-keyed events between heaps.
func (s *seShard) ingest(se *ShardedEngine, j int) {
	idx := int(s.id)*se.stride + j
	for _, src := range se.shards {
		box := src.out[idx]
		if len(box) == 0 {
			continue
		}
		for k := range box {
			s.q.push(box[k])
			s.regular++
			box[k] = event{}
		}
		src.out[idx] = box[:0]
	}
}

// run executes the shard's events strictly before end, in key order.
func (s *seShard) run(se *ShardedEngine, end Time) {
	for s.q.len() > 0 && s.q.minTime() < end {
		ev := s.q.pop()
		s.now = ev.at
		s.regular--
		s.lastBusy = ev.at
		s.nEvents++
		ev.fn()
		if se.stopped.Load() {
			return
		}
	}
}

// ensureWorkers lazily starts one goroutine per shard, parked on a wake
// channel; stopWorkers (deferred by Run/RunUntil) tears them down, so an
// idle engine holds no goroutines.
func (se *ShardedEngine) ensureWorkers() {
	if se.workers {
		return
	}
	se.workers = true
	se.wake = make([]chan seBatch, len(se.shards))
	se.done = make(chan struct{}, len(se.shards))
	for _, s := range se.shards {
		ch := make(chan seBatch)
		se.wake[s.id] = ch
		go func(s *seShard, ch chan seBatch) {
			for plan := range ch {
				s.runPlan(se, plan)
				se.done <- struct{}{}
			}
		}(s, ch)
	}
}

func (se *ShardedEngine) stopWorkers() {
	if !se.workers {
		return
	}
	for _, ch := range se.wake {
		close(ch)
	}
	se.workers = false
	se.wake = nil
	se.done = nil
}

// syncNow advances the coordinator clock to the latest shard clock.
func (se *ShardedEngine) syncNow() {
	for _, s := range se.shards {
		if s.now > se.now {
			se.now = s.now
		}
	}
}

func (se *ShardedEngine) lastBusyAll() Time {
	t := se.lastBusy
	for _, s := range se.shards {
		if s.lastBusy > t {
			t = s.lastBusy
		}
	}
	return t
}

// seBarrier is a reusable phase barrier for the in-batch window boundaries:
// await blocks until all n shard workers have arrived, then releases them
// together. One barrier crossing replaces a full coordinator fork/join.
type seBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	phase   uint64
}

func (b *seBarrier) await() {
	b.mu.Lock()
	if b.cond == nil {
		b.cond = sync.NewCond(&b.mu)
	}
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.phase++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	phase := b.phase
	for b.phase == phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
