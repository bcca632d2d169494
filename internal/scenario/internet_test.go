package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestInternetTopologyScript runs a script over the paper-sized internet
// rung: generated hosts resolve by their h<n> names, and a demand-limited
// session gets exactly its demand.
func TestInternetTopologyScript(t *testing.T) {
	sc, err := Parse(`
topology internet paper seed=3 hosts=4
session s1 h0 h1
session s2 h2 h3
at 0ms join s1 demand=10mbps
at 0ms join s2 demand=20mbps
at 1ms expect rate s1 10mbps
at 1ms expect rate s2 20mbps
at 2ms leave s1
at 2ms leave s2
`)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Topo.Kind != TopoInternet {
		t.Fatalf("topology kind %v, want TopoInternet", sc.Topo.Kind)
	}
	res, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("ran %d epochs, want 3", len(res.Epochs))
	}
}

func TestInternetTopologyParseErrors(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want string
	}{
		{"topology internet warp\n", "unknown internet rung"},
		{"topology internet\n", "usage: topology internet"},
		{"topology internet paper hosts=-1\n", "out of range"},
		{"topology internet paper seed=1\nrouter r1\n", "cannot mix"},
	} {
		_, err := Parse(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error %v, want substring %q", tc.src, err, tc.want)
		}
	}
}

// TestRecheck pins the churn fuzzer's validity gate: after editing event
// timestamps, Recheck re-sorts and accepts consistent timelines and rejects
// perturbations that reorder churn illegally.
func TestRecheck(t *testing.T) {
	src := `
router r1
router r2
link r1 r2 10mbps 1us
host h1 r1
host h2 r2
session s h1 h2
at 1ms join s
at 2ms leave s
`
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// A shift that keeps the join before the leave stays legal.
	for i := range sc.Events {
		sc.Events[i].At += 5 * time.Millisecond
	}
	if err := sc.Recheck(); err != nil {
		t.Fatalf("legal perturbation rejected: %v", err)
	}
	// Swapping the order must fail the static replay.
	for i := range sc.Events {
		if sc.Events[i].Op == OpLeave {
			sc.Events[i].At = 0
		}
	}
	if err := sc.Recheck(); err == nil {
		t.Fatal("leave-before-join perturbation accepted")
	}
	// Recheck must have re-sorted even though it rejected.
	for i := 1; i < len(sc.Events); i++ {
		if sc.Events[i-1].At > sc.Events[i].At {
			t.Fatal("Recheck left events unsorted")
		}
	}
}

// TestEpochDeadline pins the quiescence-bound watchdog: a generous deadline
// passes untouched, an absurdly tight one reports ErrQuiescenceOverrun
// wrapped in an EpochError naming the epoch.
func TestEpochDeadline(t *testing.T) {
	src := `
router r1
router r2
link r1 r2 10mbps 1ms
host h1 r1
host h2 r2
session s h1 h2
at 0ms join s demand=5mbps
`
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSimOpts(sc, SimOptions{EpochDeadline: time.Minute}); err != nil {
		t.Fatalf("generous deadline failed: %v", err)
	}
	_, err = RunSimOpts(sc, SimOptions{EpochDeadline: time.Nanosecond})
	if !errors.Is(err, ErrQuiescenceOverrun) {
		t.Fatalf("tight deadline error %v, want ErrQuiescenceOverrun", err)
	}
	var ee *EpochError
	if !errors.As(err, &ee) || ee.At != 0 {
		t.Fatalf("error %v does not attribute epoch 0", err)
	}
}

// TestZeroDelayMatchesRunSim: a delay source that holds no packet
// reproduces the undelayed run exactly.
func TestZeroDelayMatchesRunSim(t *testing.T) {
	sc, err := Parse("router r1\nrouter r2\nlink r1 r2 10mbps 1us\nhost h1 r1\nhost h2 r2\nsession s h1 h2\nsession u h2 h1\nat 0ms join s\nat 0ms join u\n")
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	draws := 0
	got, err := RunSimOpts(sc, SimOptions{Delay: func() time.Duration { draws++; return 0 }})
	if err != nil {
		t.Fatalf("run with an all-zero delay failed: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("an all-zero delay changed the run:\n%+v\n%+v", want, got)
	}
	if uint64(draws) != got.TotalPackets {
		t.Fatalf("%d delay draws for %d packets across links", draws, got.TotalPackets)
	}
}
