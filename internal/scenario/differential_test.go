package scenario

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bneck/internal/graph"
	"bneck/internal/topology"
)

// genDifferentialScript writes one random scenario script on the Small LAN
// transit-stub topology: 12–24 sessions, an initial join wave, then epochs of
// joins, leaves and demand changes with one fail/restore pair and one
// set-capacity mixed in, under either path policy. The failed link is taken
// from a session's resolved path — every third script its host access link,
// which strands instead of migrating — so the topology events always hit
// traffic. The script is text so that a divergence can be cut down into a
// committed .bneck file as it stands.
func genDifferentialScript(seed int64) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	topoSeed := 1 + seed%4
	n := 12 + rng.Intn(13)
	hosts := 2 * n

	// The generator's own copy of the topology, only to pick link names.
	topo, err := topology.Generate(topology.Small, topology.LAN, topoSeed)
	if err != nil {
		return "", err
	}
	hostIDs := topo.AddHosts(hosts)
	g := topo.Graph
	res := graph.NewResolver(g, 64)

	var b strings.Builder
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, "policy reoptimize stretch=1.2 min-gain=1 capacity-gain=2\n")
	}
	fmt.Fprintf(&b, "topology transit-stub small lan seed=%d hosts=%d\n", topoSeed, hosts)
	paths := make([]graph.Path, n)
	for i := range paths {
		dst := n + rng.Intn(n)
		fmt.Fprintf(&b, "session s%d h%d h%d\n", i, i, dst)
		if paths[i], err = res.HostPath(hostIDs[i], hostIDs[dst]); err != nil {
			return "", err
		}
	}
	linkName := func(l graph.LinkID) string {
		lk := g.Link(l)
		return g.Node(lk.From).Name + " " + g.Node(lk.To).Name
	}
	interior := func() graph.LinkID {
		for {
			if p := paths[rng.Intn(n)]; len(p) >= 3 {
				return p[1+rng.Intn(len(p)-2)]
			}
		}
	}
	failed := interior()
	if seed%3 == 0 {
		failed = paths[rng.Intn(n)][0]
	}
	resized := interior()
	for resized == failed || resized == g.LinkReverse(failed) {
		resized = interior()
	}

	demand := func() string {
		if rng.Intn(3) == 0 {
			return "unlimited"
		}
		return fmt.Sprintf("%dmbps", 1+rng.Intn(120))
	}
	joined := make([]bool, n)
	for i := range joined {
		if rng.Intn(4) > 0 {
			joined[i] = true
			fmt.Fprintf(&b, "at 0ms join s%d demand=%s\n", i, demand())
		}
	}
	epochs := 6 + rng.Intn(3)
	failAt := 1 + rng.Intn(epochs-2)
	restoreAt := failAt + 1 + rng.Intn(epochs-failAt-1)
	resizeAt := 1 + rng.Intn(epochs-1)
	for e := 1; e < epochs; e++ {
		// Topology events go first, second or last among the epoch's churn.
		var lines []string
		for k := 2 + rng.Intn(4); k > 0; k-- {
			i := rng.Intn(n)
			switch {
			case !joined[i]:
				joined[i] = true
				lines = append(lines, fmt.Sprintf("join s%d demand=%s", i, demand()))
			case rng.Intn(2) == 0:
				joined[i] = false
				lines = append(lines, fmt.Sprintf("leave s%d", i))
			default:
				lines = append(lines, fmt.Sprintf("change s%d demand=%s", i, demand()))
			}
		}
		insert := func(line string) {
			at := rng.Intn(len(lines) + 1)
			lines = append(lines[:at], append([]string{line}, lines[at:]...)...)
		}
		if e == failAt {
			insert("fail " + linkName(failed))
		}
		if e == restoreAt {
			insert("restore " + linkName(failed))
		}
		if e == resizeAt {
			insert(fmt.Sprintf("set-capacity %s %dmbps", linkName(resized), 20+rng.Intn(400)))
		}
		for _, l := range lines {
			fmt.Fprintf(&b, "at %dms %s\n", e, l)
		}
	}
	return b.String(), nil
}

// TestSimLiveDifferential runs seeded random scripts through both
// transports. Each run validates every epoch against the oracle by itself;
// on top of that the transports must agree on everything that does not
// depend on timing (agree).
func TestSimLiveDifferential(t *testing.T) {
	const scripts = 48
	for seed := int64(1); seed <= scripts; seed++ {
		src, err := genDifferentialScript(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sc, err := Parse(src)
		if err != nil {
			t.Fatalf("seed %d: generated an invalid script: %v\n%s", seed, err, src)
		}
		simRes, err := RunSim(sc)
		if err != nil {
			t.Fatalf("seed %d: sim: %v\n%s", seed, err, src)
		}
		liveRes, err := RunLive(sc)
		if err != nil {
			t.Fatalf("seed %d: live: %v\n%s", seed, err, src)
		}
		if err := agree(sc, simRes, liveRes); err != nil {
			t.Errorf("seed %d: %v\n%s", seed, err, src)
		}
		if liveRes.TotalPackets == 0 {
			t.Errorf("seed %d: live run counted no packets", seed)
		}
	}
}

// TestRegressionScriptsBothTransports replays the committed divergences the
// differential test has found, minimised to hand-built scripts whose expect
// lines pin the agreed behaviour on both transports.
func TestRegressionScriptsBothTransports(t *testing.T) {
	files, err := filepath.Glob("testdata/regress/*.bneck")
	if err != nil || len(files) == 0 {
		t.Fatalf("no regression scripts found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if _, err := RunSim(sc); err != nil {
			t.Errorf("%s: sim: %v", f, err)
		}
		if _, err := RunLive(sc); err != nil {
			t.Errorf("%s: live: %v", f, err)
		}
	}
}
