package scenario

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"bneck/internal/rate"
)

const handScript = `
# two disjoint router routes between the hosts
router r1
router r2
router r3
router r4
link r1 r2 40mbps 1us
link r2 r4 40mbps 1us
link r1 r3 25mbps 1us
link r3 r4 25mbps 1us
host ha r1
host hb r4

session s1 ha hb
session s2 ha hb

at 0ms  join s1
at 0ms  join s2 demand=8mbps
at 2ms  set-capacity r1 r2 30mbps
at 4ms  fail r1 r2
at 6ms  change s2 demand=unlimited
at 8ms  restore r1 r2
at 10ms leave s2
`

func TestParseHandScript(t *testing.T) {
	sc, err := Parse(handScript)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Topo.Kind != TopoHand {
		t.Fatalf("kind = %v", sc.Topo.Kind)
	}
	if len(sc.Routers) != 4 || len(sc.Hosts) != 2 || len(sc.Links) != 4 || len(sc.Sessions) != 2 {
		t.Fatalf("decls = %d routers, %d hosts, %d links, %d sessions",
			len(sc.Routers), len(sc.Hosts), len(sc.Links), len(sc.Sessions))
	}
	if len(sc.Events) != 7 {
		t.Fatalf("events = %d", len(sc.Events))
	}
	if sc.Events[0].At != 0 || sc.Events[0].Op != OpJoin || sc.Events[0].Session != "s1" {
		t.Fatalf("first event = %+v", sc.Events[0])
	}
	if !sc.Events[1].Demand.Equal(rate.Mbps(8)) {
		t.Fatalf("join demand = %v", sc.Events[1].Demand)
	}
	if sc.Events[2].Op != OpSetCapacity || !sc.Events[2].Capacity.Equal(rate.Mbps(30)) {
		t.Fatalf("set-capacity event = %+v", sc.Events[2])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"malformed timestamp", "router r1\nat zzz fail r1 r1", "malformed duration"},
		{"negative duration", "router r1\nrouter r2\nat -3ms fail r1 r2", "negative duration"},
		{"unknown directive", "frobnicate", "unknown directive"},
		{"unknown node in link", "router r1\nlink r1 r9 10mbps 1us", `unknown router "r9"`},
		{"unknown host in session", "router r1\nhost h1 r1\nsession s h1 h9", `unknown host "h9"`},
		{"unknown session in event", "at 0ms join nosuch", `unknown session "nosuch"`},
		{"unknown node in fail", "router r1\nhost h1 r1\nat 0s fail r1 r9", `unknown node "r9"`},
		{"double fail", "router r1\nrouter r2\nlink r1 r2 10mbps 1us\nat 0s fail r1 r2\nat 1s fail r2 r1", "already failed"},
		{"restore of up link", "router r1\nrouter r2\nlink r1 r2 10mbps 1us\nat 0s restore r1 r2", "that is up"},
		{"set-capacity on failed link", "router r1\nrouter r2\nlink r1 r2 10mbps 1us\nat 0s fail r1 r2\nat 1s set-capacity r1 r2 5mbps", "on failed link"},
		{"double join", "router r1\nhost h1 r1\nhost h2 r1\nsession s h1 h2\nat 0s join s\nat 1s join s", "already-joined"},
		{"leave before join", "router r1\nhost h1 r1\nhost h2 r1\nsession s h1 h2\nat 0s leave s", "not joined"},
		{"bad rate", "router r1\nhost h1 r1 10zbps", "malformed rate"},
		{"zero rate", "router r1\nrouter r2\nlink r1 r2 0mbps 1us", "non-positive rate"},
		{"self loop", "router r1\nlink r1 r1 10mbps 1us", "self loop"},
		{"duplicate node", "router r1\nrouter r1", "duplicate node"},
		{"mixed topology", "topology transit-stub small lan\nrouter r1", "cannot mix"},
		{"huge hosts", "topology transit-stub small lan hosts=99999999", "out of range"},
		{"infinite capacity", "router r1\nrouter r2\nlink r1 r2 10mbps 1us\nat 0s set-capacity r1 r2 unlimited", "finite rate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("Parse accepted %q", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestRunSimHandScript(t *testing.T) {
	sc, err := Parse(handScript)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 6 {
		t.Fatalf("epochs = %d", len(res.Epochs))
	}
	if res.Migrations == 0 {
		t.Fatal("the r1-r2 failure should have migrated sessions")
	}
	last := res.Epochs[len(res.Epochs)-1]
	if last.Active != 1 || last.Stranded != 0 {
		t.Fatalf("final state: active %d stranded %d", last.Active, last.Stranded)
	}
	if res.TotalPackets == 0 {
		t.Fatal("no packets counted")
	}
}

func TestRunLiveHandScript(t *testing.T) {
	sc, err := Parse(handScript)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLive(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 6 {
		t.Fatalf("epochs = %d", len(res.Epochs))
	}
	last := res.Epochs[len(res.Epochs)-1]
	if last.Active != 1 || last.Stranded != 0 {
		t.Fatalf("final state: active %d stranded %d", last.Active, last.Stranded)
	}
	if res.TotalPackets == 0 {
		t.Fatal("no packets counted")
	}
}

func TestRunSimDeterministic(t *testing.T) {
	sc, err := Parse(handScript)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scenario runs differ:\n%+v\n%+v", a, b)
	}
}

// TestFailoverScenarioBothTransports is the acceptance scenario: the checked
// in failover script (TransitStub topology, 3 link failures + 3 restores +
// 2 capacity changes + churn) must validate against the water-filling oracle
// at every quiescent epoch on both transports.
func TestFailoverScenarioBothTransports(t *testing.T) {
	src, err := os.ReadFile("../../examples/scenarios/failover.bneck")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	fails, restores, capChanges := 0, 0, 0
	for _, ev := range sc.Events {
		switch ev.Op {
		case OpFail:
			fails++
		case OpRestore:
			restores++
		case OpSetCapacity:
			capChanges++
		}
	}
	if fails < 3 || restores < 3 || capChanges < 2 {
		t.Fatalf("scenario too tame: %d fails, %d restores, %d capacity changes", fails, restores, capChanges)
	}

	simRes, err := RunSim(sc)
	if err != nil {
		t.Fatalf("sim transport: %v", err)
	}
	if len(simRes.Epochs) == 0 || simRes.TotalPackets == 0 {
		t.Fatal("sim run produced nothing")
	}
	final := simRes.Epochs[len(simRes.Epochs)-1]
	if final.Active == 0 {
		t.Fatal("no active sessions at the end")
	}

	liveRes, err := RunLive(sc)
	if err != nil {
		t.Fatalf("live transport: %v", err)
	}
	if liveRes.TotalPackets == 0 {
		t.Fatal("live run counted no packets")
	}
	liveFinal := liveRes.Epochs[len(liveRes.Epochs)-1]
	if liveFinal.Active != final.Active {
		t.Fatalf("transports disagree on surviving sessions: sim %d, live %d", final.Active, liveFinal.Active)
	}
}

func TestEpochOverrunAppliesImmediately(t *testing.T) {
	// Two epochs 1ns apart: convergence of the first overruns the second's
	// timestamp; the runner must apply it at the later time instead of
	// scheduling into the past.
	src := `
router r1
host h1 r1
host h2 r1
session s1 h1 h2
session s2 h1 h2
at 0s   join s1
at 1ns  join s2
`
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("epochs = %d", len(res.Epochs))
	}
	if res.Epochs[1].Applied < res.Epochs[0].Quiescence {
		t.Fatalf("second epoch applied at %v, before first quiescence %v",
			res.Epochs[1].Applied, res.Epochs[0].Quiescence)
	}
	if res.Epochs[1].Active != 2 {
		t.Fatalf("active = %d", res.Epochs[1].Active)
	}
}

func TestParseDurationsAndRates(t *testing.T) {
	if d, err := parseDuration("1500us"); err != nil || d != 1500*time.Microsecond {
		t.Fatalf("parseDuration = %v, %v", d, err)
	}
	if r, err := parseRate("2gbps"); err != nil || !r.Equal(rate.FromInt64(2_000_000_000)) {
		t.Fatalf("parseRate gbps = %v, %v", r, err)
	}
	if r, err := parseRate("512"); err != nil || !r.Equal(rate.FromInt64(512)) {
		t.Fatalf("parseRate bare = %v, %v", r, err)
	}
	if r, err := parseRate("UNLIMITED"); err != nil || !r.IsInf() {
		t.Fatalf("parseRate unlimited = %v, %v", r, err)
	}
}

// --- expect rate ---------------------------------------------------------

const expectScript = `
router r1
router r2
link r1 r2 60mbps 1us
host h1 r1
host h2 r2
host h3 r1
host h4 r2
session s1 h1 h2
session s2 h3 h4
at 0ms join s1
at 0ms join s2
at 1ms expect rate s1 30mbps
at 1ms expect rate h3 30mbps
at 2ms leave s2
at 3ms expect rate s1 60mbps
at 3ms expect rate h3 0bps
`

func TestExpectRateParses(t *testing.T) {
	sc, err := Parse(expectScript)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range sc.Events {
		if ev.Op == OpExpectRate {
			n++
		}
	}
	if n != 4 {
		t.Fatalf("parsed %d expect events, want 4", n)
	}
}

func TestExpectRateParseErrors(t *testing.T) {
	for _, bad := range []string{
		"at 1ms expect rate",
		"at 1ms expect rate s1",
		"at 1ms expect weight s1 3mbps",
		"at 1ms expect rate s1 unlimited",
	} {
		src := "router r1\nrouter r2\nlink r1 r2 10mbps 1us\nhost h1 r1\nhost h2 r2\nsession s1 h1 h2\nat 0ms join s1\n" + bad + "\n"
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted %q", bad)
		}
	}
	// Unknown name on a hand-built topology fails at parse time.
	src := "router r1\nrouter r2\nlink r1 r2 10mbps 1us\nhost h1 r1\nhost h2 r2\nsession s1 h1 h2\nat 0ms join s1\nat 1ms expect rate nosuch 10mbps\n"
	if _, err := Parse(src); err == nil {
		t.Error("Parse accepted an expect for an unknown name")
	}
}

func TestExpectRateSimPassAndFail(t *testing.T) {
	sc, err := Parse(expectScript)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSim(sc); err != nil {
		t.Fatalf("correct expectations failed: %v", err)
	}
	wrong := strings.Replace(expectScript, "expect rate s1 30mbps", "expect rate s1 31mbps", 1)
	sc, err = Parse(wrong)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSim(sc)
	if err == nil || !strings.Contains(err.Error(), "expect rate") {
		t.Fatalf("wrong expectation did not fail usefully: %v", err)
	}
}

func TestExpectRateLive(t *testing.T) {
	sc, err := Parse(expectScript)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLive(sc); err != nil {
		t.Fatalf("live expectations failed: %v", err)
	}
}

// repeatScript flips a session between the two arms of a diamond three
// times; each iteration migrates it twice (the joined path's arm fails,
// then the other).
const repeatScript = `
router r1
router r2
router r3
router r4
link r1 r2 40mbps 1us
link r2 r4 40mbps 1us
link r1 r3 40mbps 1us
link r3 r4 40mbps 1us
host ha r1
host hb r4

session s1 ha hb

at 0ms  join s1

repeat 3 {
  at 1ms  fail r1 r2
  at 2ms  restore r1 r2
  at 3ms  fail r1 r3
  at 4ms  restore r1 r3
}

at 13ms expect migrated 6
at 13ms expect stranded 0
at 13ms expect rate s1 40mbps
`

func TestRepeatExpansion(t *testing.T) {
	sc, err := Parse(repeatScript)
	if err != nil {
		t.Fatal(err)
	}
	// 1 join + 3×4 topology events + 3 expects.
	if len(sc.Events) != 1+12+3 {
		t.Fatalf("events = %d, want 16", len(sc.Events))
	}
	// Iteration i shifts the block by i×span (span = 4ms): the fails of the
	// first arm land at 1, 5, 9 ms.
	var fails []time.Duration
	for _, ev := range sc.Events {
		if ev.Op == OpFail && ev.A == "r1" && ev.B == "r2" {
			fails = append(fails, ev.At)
		}
	}
	want := []time.Duration{1 * time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond}
	if !reflect.DeepEqual(fails, want) {
		t.Fatalf("r1-r2 fails at %v, want %v", fails, want)
	}
}

func TestRepeatRunBothTransports(t *testing.T) {
	sc, err := Parse(repeatScript)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSim(sc); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if _, err := RunLive(sc); err != nil {
		t.Fatalf("live: %v", err)
	}
	// A wrong migration expectation must fail usefully.
	wrong := strings.Replace(repeatScript, "expect migrated 6", "expect migrated 7", 1)
	sc, err = Parse(wrong)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSim(sc); err == nil || !strings.Contains(err.Error(), "expect migrated") {
		t.Fatalf("wrong migrated expectation did not fail usefully: %v", err)
	}
	wrong = strings.Replace(repeatScript, "expect stranded 0", "expect stranded 2", 1)
	sc, err = Parse(wrong)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSim(sc); err == nil || !strings.Contains(err.Error(), "expect stranded") {
		t.Fatalf("wrong stranded expectation did not fail usefully: %v", err)
	}
}

func TestRepeatParseErrors(t *testing.T) {
	base := "router r1\nrouter r2\nlink r1 r2 10mbps 1us\nhost ha r1\nhost hb r2\nsession s1 ha hb\n"
	cases := []struct {
		name, src, want string
	}{
		{"unclosed", base + "repeat 2 {\nat 1ms join s1\n", "never closed"},
		{"nested", base + "repeat 2 {\nrepeat 2 {\n}\n}\n", "only `at` events"},
		{"badCount", base + "repeat zero {\nat 1ms join s1\n}\n", "positive integer"},
		{"noBrace", base + "repeat 2\nat 1ms join s1\n", "usage: repeat"},
		{"empty", base + "repeat 2 {\n}\n", "empty"},
		{"zeroSpan", base + "repeat 2 {\nat 0ms fail r1 r2\n}\n", "positive time span"},
		{"strayClose", base + "}\n", "without an open repeat"},
		{"declInside", base + "repeat 2 {\nrouter r9\n}\n", "only `at` events"},
		{"badExpect", base + "at 1ms expect migrated -1\n", "non-negative"},
		{"expectUsage", base + "at 1ms expect migrated\n", "usage"},
		// The static checker sees the expanded timeline: a block that fails
		// without restoring double-fails on its second iteration.
		{"doubleFail", base + "repeat 2 {\nat 1ms fail r1 r2\n}\n", "already failed"},
		// The count guard must not overflow on absurd counts (untrusted input).
		{"hugeCount", base + "repeat 9223372036854775807 {\nat 1ns fail r1 r2\nat 2ns restore r1 r2\n}\n", "expands past"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestSoakScenarioBothTransports runs the checked-in soak script — the
// repeat-block churn loop plus the strand/restore tail — on both transports.
func TestSoakScenarioBothTransports(t *testing.T) {
	src, err := os.ReadFile("../../examples/scenarios/soak.bneck")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	migrExpects, strandExpects := 0, 0
	for _, ev := range sc.Events {
		switch ev.Op {
		case OpExpectMigrated:
			migrExpects++
		case OpExpectStranded:
			strandExpects++
		}
	}
	if migrExpects < 2 || strandExpects < 3 {
		t.Fatalf("soak too tame: %d migrated + %d stranded expects", migrExpects, strandExpects)
	}
	if _, err := RunSim(sc); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if _, err := RunLive(sc); err != nil {
		t.Fatalf("live: %v", err)
	}
}
