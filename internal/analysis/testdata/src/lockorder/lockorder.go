// Package lockorder models the live runtime's two-tier locking: a runtime
// mutex, peer rate locks (one per incarnation), and actor mailboxes, with
// the documented order mu → rate → mailbox.
package lockorder

import "sync"

type message struct{ v int }

type actor struct {
	mu    sync.Mutex //bneck:lock mailbox
	queue []message
}

// enqueue is the non-blocking mailbox append: legal under mu or a rate lock.
//
//bneck:locks mailbox
func (a *actor) enqueue(m message) {
	a.mu.Lock()
	a.queue = append(a.queue, m)
	a.mu.Unlock()
}

type incarnation struct {
	mu sync.Mutex //bneck:lock rate
	m  map[int]*actor
}

type runtime struct {
	mu   sync.Mutex //bneck:lock mu
	incs [4]incarnation
	ch   chan message
}

// inOrder follows the documented order exactly: mu, then one rate lock, then a
// mailbox via the non-blocking enqueue.
func (rt *runtime) inOrder(k int, m message) {
	rt.mu.Lock()
	inc := &rt.incs[k%4]
	inc.mu.Lock()
	inc.m[k].enqueue(m)
	inc.mu.Unlock()
	rt.mu.Unlock()
}

// muUnderRate is the deadlock shape the order exists to exclude.
func (rt *runtime) muUnderRate(k int) {
	inc := &rt.incs[k%4]
	inc.mu.Lock()
	rt.mu.Lock() // want "acquires mu while holding a rate lock"
	rt.mu.Unlock()
	inc.mu.Unlock()
}

// twoRates nests peer rate locks, which the runtime never does.
func (rt *runtime) twoRates(i, j int) {
	rt.incs[i%4].mu.Lock()
	rt.incs[j%4].mu.Lock() // want "another rate lock is held"
	rt.incs[j%4].mu.Unlock()
	rt.incs[i%4].mu.Unlock()
}

// rawSend blocks on a channel while holding mu: mailbox traffic under a
// lock must use the non-blocking enqueue.
func (rt *runtime) rawSend(m message) {
	rt.mu.Lock()
	rt.ch <- m // want "channel send while holding mu"
	rt.mu.Unlock()
}

// reacquire self-deadlocks.
func (rt *runtime) reacquire() {
	rt.mu.Lock()
	rt.mu.Lock() // want "re-acquires mu"
	rt.mu.Unlock()
	rt.mu.Unlock()
}

// rateThenRelease re-locks in order after releasing: rate → release →
// mu → rate.
func (rt *runtime) rateThenRelease(k int) *actor {
	inc := &rt.incs[k%4]
	inc.mu.Lock()
	a := inc.m[k]
	inc.mu.Unlock()
	if a != nil {
		return a
	}
	rt.mu.Lock()
	inc.mu.Lock()
	a = inc.m[k]
	inc.mu.Unlock()
	rt.mu.Unlock()
	return a
}

// deferred unlocks pin locks to function end; inner tiers stay legal.
func (rt *runtime) deferred(k int, m message) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	inc := &rt.incs[k%4]
	inc.mu.Lock()
	defer inc.mu.Unlock()
	inc.m[k].enqueue(m)
}
