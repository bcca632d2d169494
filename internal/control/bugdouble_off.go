//go:build !mc_stalebug && !mc_strandbug

package control

// Bug doubles for the schedule explorer's regression corpus
// (internal/mc/testdata), off in production builds so their branches fold
// away. mc_stalebug makes start reuse a departed incarnation instead of
// minting a fresh ID — the PR 4 stale-rejoin bug; mc_strandbug makes Leave
// skip a stranded session, which a later restore then rejoins — the PR 2
// stranding edge. Each tag breaks the determinism and dynamics suites by
// design; `make mc-smoke` runs only the targeted replays under them.
const buggyRejoinReuse, buggyLeaveSkipsUnstrand = false, false
