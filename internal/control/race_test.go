//go:build race

package control

// The protocol explorer runs on one goroutine, so the race detector finds
// nothing in it that a plain run misses, at about eight times the cost: under
// -race (CI runs this package with -race -cpu 1,2,4) it searches the -short
// bounds.
func init() { raceDetector = true }
