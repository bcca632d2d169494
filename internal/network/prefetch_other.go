//go:build !amd64 && !arm64

package network

import "unsafe"

// prefetch has no body here; a delivery takes its record's misses itself.
func prefetch(p unsafe.Pointer, n uintptr) {}
