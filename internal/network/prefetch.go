//go:build amd64 || arm64

package network

import "unsafe"

// prefetch asks the CPU to start loading every cache line of [p, p+n), and
// neither waits nor faults on any address. Go has no user-level prefetch
// intrinsic: prefetch_amd64.s and prefetch_arm64.s are its bodies.
//
//go:noescape
func prefetch(p unsafe.Pointer, n uintptr)
