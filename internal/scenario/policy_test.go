package scenario

import (
	"strings"
	"testing"

	"bneck/internal/control"
)

// reoptScript is the canonical diamond: a direct 80 Mbps route and a slower
// 40 Mbps detour. Under `policy reoptimize`, the fail → restore cycle must
// end with the session back on the direct path at the direct rate.
const reoptScript = `
policy reoptimize

router r1
router r2
router r3
link r1 r2 80mbps 1us
link r1 r3 40mbps 1us
link r3 r2 40mbps 1us
host ha r1
host hb r2

session s ha hb

at 0ms  join s
at 2ms  expect rate s 80mbps
at 4ms  fail r1 r2
at 6ms  expect rate s 40mbps
at 6ms  expect migrated 1
at 8ms  restore r1 r2
at 10ms expect rate s 80mbps
at 10ms expect migrated 1
at 10ms expect reoptimized 1
at 10ms expect stranded 0
`

func TestParsePolicyDirective(t *testing.T) {
	sc, err := Parse(reoptScript)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Policy.Kind != control.ReoptimizeOnRestore {
		t.Fatalf("policy kind = %v", sc.Policy.Kind)
	}

	sc, err = Parse("policy reoptimize stretch=1.5 min-gain=2\nrouter r1\nrouter r2\nlink r1 r2 10mbps 1us\nhost ha r1\nhost hb r2\nsession s ha hb\nat 0ms join s\n")
	if err != nil {
		t.Fatal(err)
	}
	want := control.Policy{Kind: control.ReoptimizeOnRestore, Stretch: 1.5, MinGain: 2}
	if sc.Policy != want {
		t.Fatalf("policy = %+v, want %+v", sc.Policy, want)
	}
}

func TestParsePolicyErrors(t *testing.T) {
	cases := map[string]string{
		"policy bogus":                         "unknown policy",
		"policy reoptimize stretch=0.5":        "must be a number",
		"policy reoptimize min-gain=0":         "positive integer",
		"policy reoptimize stretch":            "key=value",
		"policy reoptimize wat=1":              "unknown option",
		"policy reoptimize capacity-gain=2":    "unknown option",
		"policy pinned stretch=2":              "takes no options",
		"policy reoptimize\npolicy reoptimize": "duplicate policy",
		"at 0ms expect reoptimized -1":         "non-negative",
		"at 0ms expect reoptimized":            "usage",
	}
	for src, want := range cases {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) err = %v, want containing %q", src, err, want)
		}
	}
}

// TestReoptimizeScriptBothTransports is the acceptance criterion: the
// fail → restore diamond ends with the session back on its pre-failure
// shortest path — `expect reoptimized 1` passes — on both transports.
func TestReoptimizeScriptBothTransports(t *testing.T) {
	sc, err := Parse(reoptScript)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := RunSim(sc)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if simRes.Reoptimizations != 1 {
		t.Fatalf("sim reoptimizations = %d", simRes.Reoptimizations)
	}
	if simRes.ReconfigPackets == 0 {
		t.Fatal("sim reconfig packets = 0")
	}
	liveRes, err := RunLive(sc)
	if err != nil {
		t.Fatalf("live: %v", err)
	}
	if liveRes.Reoptimizations != 1 {
		t.Fatalf("live reoptimizations = %d", liveRes.Reoptimizations)
	}
	if liveRes.ReconfigPackets == 0 {
		t.Fatal("live reconfig packets = 0")
	}
}

// TestPinnedScriptKeepsDetour: the same timeline without the policy line
// stays on the detour — and a reoptimized assertion can pin that, too.
func TestPinnedScriptKeepsDetour(t *testing.T) {
	src := strings.Replace(reoptScript, "policy reoptimize\n", "", 1)
	src = strings.Replace(src, "at 10ms expect rate s 80mbps", "at 10ms expect rate s 40mbps", 1)
	src = strings.Replace(src, "at 10ms expect reoptimized 1", "at 10ms expect reoptimized 0", 1)
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Policy.Enabled() {
		t.Fatal("default policy must be pinned")
	}
	if _, err := RunSim(sc); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if _, err := RunLive(sc); err != nil {
		t.Fatalf("live: %v", err)
	}
}

// TestExpectReoptimizedFails: a wrong count is a script error, naming the
// line.
func TestExpectReoptimizedFails(t *testing.T) {
	src := strings.Replace(reoptScript, "at 10ms expect reoptimized 1", "at 10ms expect reoptimized 5", 1)
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSim(sc); err == nil || !strings.Contains(err.Error(), "expect reoptimized 5") {
		t.Fatalf("sim err = %v, want an expect reoptimized failure", err)
	}
	if _, err := RunLive(sc); err == nil || !strings.Contains(err.Error(), "expect reoptimized 5") {
		t.Fatalf("live err = %v, want an expect reoptimized failure", err)
	}
}
