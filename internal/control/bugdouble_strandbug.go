//go:build mc_strandbug && !mc_stalebug

package control

// Test double: resurrect the PR 2 stranding edge (see bugdouble_off.go).
const buggyRejoinReuse, buggyLeaveSkipsUnstrand = false, true
