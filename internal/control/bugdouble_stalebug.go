//go:build mc_stalebug && !mc_strandbug

package control

// Test double: resurrect the PR 4 stale-rejoin bug (see bugdouble_off.go).
const buggyRejoinReuse, buggyLeaveSkipsUnstrand = true, false
