package network

import (
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// TestPrefetchAtGuardPage prefetches up to and across the end of a mapped
// page whose successor is inaccessible: a range ending on the last byte, and
// one starting at the first byte of the protected page. Neither may fault.
func TestPrefetchAtGuardPage(t *testing.T) {
	ps := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*ps, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skip("mmap:", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[ps:], syscall.PROT_NONE); err != nil {
		t.Skip("mprotect:", err)
	}
	for _, n := range prefetchLengths {
		prefetch(unsafe.Pointer(&mem[ps-int(n)]), n)
		prefetch(unsafe.Pointer(&mem[ps]), n)
	}
}
