//go:build !mc_stalebug && !mc_strandbug

package control

// Bug doubles, off in production builds so their branches fold away:
// mc_stalebug makes start reuse a departed incarnation instead of minting a
// fresh ID (a stale rejoin), mc_strandbug makes Leave skip a stranded
// session, which a later restore then rejoins. The controller and protocol
// explorers and the swarm's regression corpus (internal/mc/testdata) must
// catch each; `make mc-smoke` runs only those under the tags, which break
// other suites.
const buggyRejoinReuse, buggyLeaveSkipsUnstrand = false, false
