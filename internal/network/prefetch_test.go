package network

import (
	"testing"
	"unsafe"
)

// prefetchLengths are the lengths the kernel must cover: one byte, a line
// short of and exactly a line, and a link record plus an unaligned tail.
var prefetchLengths = []uintptr{1, 63, 64, 449}

// TestPrefetchBounds runs the kernel over every line offset of every length,
// flush against both ends of an allocation of exactly that length: a
// prefetch must not fault anywhere. The address one past an allocation is
// TestPrefetchAtGuardPage's, on memory the Go heap does not own.
func TestPrefetchBounds(t *testing.T) {
	for _, n := range prefetchLengths {
		for off := uintptr(0); off < 64; off++ {
			buf := make([]byte, off+n)
			prefetch(unsafe.Pointer(&buf[off]), n)
			prefetch(unsafe.Pointer(&buf[0]), off+n)
		}
	}
	prefetch(nil, 0)
}

// prefetchLocal prefetches a record on its own stack: it allocates nothing
// only if the kernel's pointer argument does not escape.
//
//go:noinline
func prefetchLocal(off uintptr) {
	var rec [2]linkRec
	prefetch(unsafe.Add(unsafe.Pointer(&rec), off), unsafe.Sizeof(linkRec{}))
}

// TestPrefetchAllocatesNothing: the kernel's argument stays on the caller's
// stack (//go:noescape), at any alignment.
func TestPrefetchAllocatesNothing(t *testing.T) {
	for _, off := range []uintptr{0, 1, 63, 64, 449} {
		if allocs := testing.AllocsPerRun(100, func() { prefetchLocal(off) }); allocs != 0 {
			t.Fatalf("prefetch at offset %d allocates %v objects, want 0", off, allocs)
		}
	}
}
