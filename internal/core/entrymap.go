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
// The zero value is an empty index. A table makes one, in its sharedIndex,
// at its second session, so a one-session link pays no object or record
// bytes for it: a heap slot array on every link once cost chains_bare 16 %
// of its packet rate, and a four-slot inline group was slower and larger
// than two.
type entryMap struct {
	slots []entrySlot // len is zero or a power of two
	n     int32
	shift uint8 // 64 − log2(len(slots)): hash → home slot
}

// entrySlot is one cell: ent == nil marks it free.
type entrySlot struct {
	id  SessionID
	ent *tableEntry
}

// minEntrySlots is the first slot array's size: three sessions at ¾ load.
const minEntrySlots = 4

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

// grow doubles the slot array (or makes the first one), refiling every
// entry.
func (m *entryMap) grow() {
	old := m.slots
	size := max(2*len(old), minEntrySlots)
	m.slots = make([]entrySlot, size)
	m.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.ent != nil {
			m.place(s.ent)
		}
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
