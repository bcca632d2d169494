package core

import "math/bits"

// entryMap is the SessionID → *tableEntry index of a link's table: an
// open-addressed hash table with the keys stored inline (a probe touches
// the slot array only, never an entry), Fibonacci hashing (session IDs are
// sequential or strided, and the multiplicative hash spreads both over the
// high bits), linear probing and backward-shift deletion (no tombstones, so
// churn never lengthens probe runs). The load factor stays at or below ¾
// and the array never shrinks, like the Go map it replaced: a link that
// once carried k sessions is likely to carry k again.
//
// The zero value is an empty index. The first slot group is part of the map
// itself: the first put points slots at first, so the index of a link that
// carries few sessions lives in the link's own record — a lookup there
// touches no second object — and only the growth past it allocates. slots
// then aliases the map's own storage, which is why a map (and everything
// that embeds one) must not be copied once used; see noCopy.
type entryMap struct {
	_     noCopy
	slots []entrySlot // len is zero or a power of two
	n     int32
	shift uint8 // 64 − log2(len(slots)): hash → home slot
	first [minEntrySlots]entrySlot
}

// entrySlot is one cell: ent == nil marks it free.
type entrySlot struct {
	id  SessionID
	ent *tableEntry
}

// minEntrySlots is the size of the inline first slot group. At the ¾ load
// limit it files one session; a second spills the index to the heap (four
// slots, then doubling). A four-slot group, which would also hold a second
// and a third session, measured slower and larger on every simulated
// workload (docs/PR23_SIM_HOP.md).
const minEntrySlots = 2

// home returns id's preferred slot: the top bits of the Fibonacci hash
// (2^64/φ, odd). Masking the shift tells the compiler it is in range.
func (m *entryMap) home(id SessionID) uint64 {
	return (uint64(id) * 0x9E3779B97F4A7C15) >> (m.shift & 63)
}

// get returns the entry filed under id, or nil.
func (m *entryMap) get(id SessionID) *tableEntry {
	if m.n == 0 {
		return nil
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.home(id); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.ent == nil || s.id == id {
			return s.ent
		}
	}
}

// put files ent under ent.id. The caller must have ensured the ID is absent.
func (m *entryMap) put(ent *tableEntry) {
	if (int(m.n)+1)*4 > len(m.slots)*3 {
		m.grow()
	}
	m.place(ent)
	m.n++
}

// place stores ent in the first free slot of its ID's probe run.
func (m *entryMap) place(ent *tableEntry) {
	mask := uint64(len(m.slots) - 1)
	i := m.home(ent.id)
	for m.slots[i].ent != nil {
		i = (i + 1) & mask
	}
	m.slots[i] = entrySlot{id: ent.id, ent: ent}
}

// grow moves the index into the inline group the first time and doubles the
// array after that, refiling every entry.
func (m *entryMap) grow() {
	old := m.slots
	if old == nil {
		m.slots = m.first[:]
		m.shift = uint8(64 - bits.TrailingZeros(minEntrySlots))
		return
	}
	size := 2 * len(old)
	m.slots = make([]entrySlot, size)
	m.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.ent != nil {
			m.place(s.ent)
		}
	}
	if &old[0] == &m.first[0] {
		m.first = [minEntrySlots]entrySlot{} // spilled: drop the stale pointers
	}
}

// del removes id and returns the entry that was filed under it, or nil. The
// run after the freed slot is shifted back over it — each follower moves iff
// the hole lies on its probe path — so every remaining key stays reachable
// from its home slot without tombstones.
func (m *entryMap) del(id SessionID) *tableEntry {
	if m.n == 0 {
		return nil
	}
	mask := uint64(len(m.slots) - 1)
	i := m.home(id)
	for ; m.slots[i].ent == nil || m.slots[i].id != id; i = (i + 1) & mask {
		if m.slots[i].ent == nil {
			return nil
		}
	}
	ent := m.slots[i].ent
	for j := (i + 1) & mask; m.slots[j].ent != nil; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].id))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = entrySlot{}
	m.n--
	return ent
}

// len returns the number of entries filed.
func (m *entryMap) len() int { return int(m.n) }
