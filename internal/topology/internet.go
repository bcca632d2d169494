package topology

import (
	"fmt"
	"math/rand"
	"time"

	"bneck/internal/graph"
	"bneck/internal/rate"
)

// Internet-scale topologies.
//
// The paper's transit-stub generator (topology.go) tops out at flat shapes:
// two tiers, uniform delays per scenario, stub domains scattered
// round-robin. Real internet graphs are
// sparser and far more hierarchical — a handful of continental regions, each
// with a dense core, metro aggregation rings under the core, and a broad
// fringe of access/edge routers whose attachment follows a rich-get-richer
// (power-law) rule.
//
// Generation streams: StreamInternet pushes routers and links into an
// InternetSink one at a time, in a fixed hierarchical order, keeping only
// O(routers-per-region) working state (preferential-attachment endpoint
// lists for the current region/metro, a tiny dedup set for core chords).
// A 10k-router graph is built without any intermediate adjacency
// materialization beyond the graph the sink itself chooses to keep.

// Tier classifies a generated internet router.
type Tier uint8

const (
	// TierCore routers form a region's densely-meshed backbone.
	TierCore Tier = iota
	// TierMetro routers aggregate a metro ring under two core uplinks.
	TierMetro
	// TierEdge routers hang off metro rings; hosts attach here.
	TierEdge
)

func (t Tier) String() string {
	switch t {
	case TierCore:
		return "core"
	case TierMetro:
		return "metro"
	default:
		return "edge"
	}
}

// InternetParams sizes a hierarchical internet topology: Regions continental
// regions, each with CorePerRegion backbone routers, MetrosPerRegion metro
// rings of RoutersPerMetro routers, and EdgePerMetro access routers per
// metro attached by preferential attachment (the power-law fringe).
type InternetParams struct {
	Name            string
	Regions         int
	CorePerRegion   int
	MetrosPerRegion int
	RoutersPerMetro int
	EdgePerMetro    int
}

// Routers returns the total router count the parameters produce.
func (p InternetParams) Routers() int {
	return p.Regions * (p.CorePerRegion + p.MetrosPerRegion*(p.RoutersPerMetro+p.EdgePerMetro))
}

// The topology ladder's three rungs: paper-sized, metro scale, and the
// 10k-router internet rung.
var (
	// InternetPaper matches the paper's Small scale: 40 routers.
	InternetPaper = InternetParams{Name: "InternetPaper", Regions: 2, CorePerRegion: 4, MetrosPerRegion: 2, RoutersPerMetro: 4, EdgePerMetro: 4}
	// InternetMetro is the ~1k-router middle rung: 992 routers.
	InternetMetro = InternetParams{Name: "InternetMetro", Regions: 4, CorePerRegion: 8, MetrosPerRegion: 6, RoutersPerMetro: 8, EdgePerMetro: 32}
	// InternetGlobal is the ~10k-router internet rung: 10,080 routers.
	InternetGlobal = InternetParams{Name: "InternetGlobal", Regions: 8, CorePerRegion: 12, MetrosPerRegion: 12, RoutersPerMetro: 12, EdgePerMetro: 92}
)

// Internet capacity tiers: long-haul core links are two orders of magnitude
// fatter than the paper's 500 Mbps transit tier; hosts keep HostLinkCapacity.
var (
	CoreLinkCapacity  = rate.Mbps(100_000) // 100 Gbps backbone
	MetroLinkCapacity = rate.Mbps(10_000)  // 10 Gbps metro aggregation
	EdgeLinkCapacity  = rate.Mbps(1_000)   // 1 Gbps access
)

// InternetSink receives a streamed topology element by element. AddRouter
// must return the dense node ID the sink assigned; Connect refers back to
// those IDs. region is the router's continental region, dense in
// [0, Regions).
type InternetSink interface {
	AddRouter(name string, tier Tier, region int32) graph.NodeID
	Connect(a, b graph.NodeID, capacity rate.Rate, propagation time.Duration)
}

// StreamInternet generates the topology deterministically from the seed,
// pushing every router and link into sink in a fixed hierarchical order:
// region by region — core ring, core chords — then metro by metro — metro
// ring, core uplinks, edge attachments — then the inter-region backbone.
// Working state stays proportional to one region, never the whole graph.
func StreamInternet(p InternetParams, seed int64, sink InternetSink) error {
	if p.Regions < 1 || p.CorePerRegion < 1 || p.MetrosPerRegion < 1 || p.RoutersPerMetro < 1 || p.EdgePerMetro < 1 {
		return fmt.Errorf("topology: invalid internet params %+v", p)
	}
	rng := rand.New(rand.NewSource(seed))

	// band draws a propagation delay uniformly from [lo, hi).
	band := func(lo, hi time.Duration) time.Duration {
		if hi <= lo {
			return lo
		}
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}
	// interRegionDelay derives the long-haul delay from geography: regions
	// sit evenly on a circle, and the delay grows with arc distance from a
	// 5 ms floor to ~60 ms antipodal, plus up to 10% jitter.
	interRegionDelay := func(r1, r2 int) time.Duration {
		d := r1 - r2
		if d < 0 {
			d = -d
		}
		if d > p.Regions-d {
			d = p.Regions - d
		}
		half := p.Regions / 2
		if half < 1 {
			half = 1
		}
		base := 5*time.Millisecond + time.Duration(int64(d)*int64(55*time.Millisecond)/int64(half))
		return base + time.Duration(rng.Int63n(int64(base/10)+1))
	}

	// paPick samples an endpoint list (node IDs repeated once per attachment,
	// the Barabási–Albert trick) until it draws a node other than avoid.
	paPick := func(pa []graph.NodeID, avoid graph.NodeID) graph.NodeID {
		for {
			c := pa[rng.Intn(len(pa))]
			if c != avoid {
				return c
			}
		}
	}

	// gateways[r] holds region r's core routers — the only cross-region
	// state kept, O(Regions·CorePerRegion). corePA mirrors it weighted by
	// degree so inter-region links and metro uplinks both land on the
	// better-connected cores (hub formation at every level).
	gateways := make([][]graph.NodeID, p.Regions)
	corePA := make([][]graph.NodeID, p.Regions)

	for r := 0; r < p.Regions; r++ {
		// Core ring plus one preferential chord per router.
		m := p.CorePerRegion
		region := int32(r)
		core := make([]graph.NodeID, m)
		for i := range core {
			core[i] = sink.AddRouter(fmt.Sprintf("c%d.%d", r, i), TierCore, region)
		}
		pa := make([]graph.NodeID, 0, 4*m)
		linked := make(map[[2]graph.NodeID]bool, 2*m)
		connect := func(a, b graph.NodeID, cap rate.Rate, d time.Duration) bool {
			k := [2]graph.NodeID{a, b}
			if a > b {
				k = [2]graph.NodeID{b, a}
			}
			if linked[k] {
				return false
			}
			linked[k] = true
			sink.Connect(a, b, cap, d)
			pa = append(pa, a, b)
			return true
		}
		if m > 1 {
			for i := 0; i < m; i++ {
				connect(core[i], core[(i+1)%m], CoreLinkCapacity, band(time.Millisecond, 4*time.Millisecond))
			}
		} else {
			pa = append(pa, core[0])
		}
		if m >= 4 {
			for i := 0; i < m; i++ {
				if t := paPick(pa, core[i]); t != core[i] {
					connect(core[i], t, CoreLinkCapacity, band(time.Millisecond, 4*time.Millisecond))
				}
			}
		}
		gateways[r] = core
		corePA[r] = pa

		// Metros: ring of RoutersPerMetro routers, two core uplinks, then the
		// power-law edge fringe. All working state dies with the metro.
		for mi := 0; mi < p.MetrosPerRegion; mi++ {
			ring := make([]graph.NodeID, p.RoutersPerMetro)
			for i := range ring {
				ring[i] = sink.AddRouter(fmt.Sprintf("m%d.%d.%d", r, mi, i), TierMetro, region)
			}
			mpa := make([]graph.NodeID, 0, 2*p.RoutersPerMetro+2*p.EdgePerMetro)
			mpa = append(mpa, ring...)
			switch n := p.RoutersPerMetro; {
			case n == 2:
				sink.Connect(ring[0], ring[1], MetroLinkCapacity, band(50*time.Microsecond, 200*time.Microsecond))
				mpa = append(mpa, ring[0], ring[1])
			case n > 2:
				for i := 0; i < n; i++ {
					j := (i + 1) % n
					sink.Connect(ring[i], ring[j], MetroLinkCapacity, band(50*time.Microsecond, 200*time.Microsecond))
					mpa = append(mpa, ring[i], ring[j])
				}
			}
			// Two uplinks into the region core, preferentially to hub cores,
			// from opposite sides of the ring for path diversity.
			up1 := corePA[r][rng.Intn(len(corePA[r]))]
			sink.Connect(ring[0], up1, MetroLinkCapacity, band(200*time.Microsecond, time.Millisecond))
			corePA[r] = append(corePA[r], up1)
			if p.CorePerRegion > 1 {
				up2 := paPick(corePA[r], up1)
				sink.Connect(ring[len(ring)/2], up2, MetroLinkCapacity, band(200*time.Microsecond, time.Millisecond))
				corePA[r] = append(corePA[r], up2)
			}
			// Edge fringe: each access router attaches to a preferentially
			// chosen metro router (rich-get-richer: popular aggregation
			// routers keep gaining edges, the power-law degree tail), with a
			// 25% chance of a second uplink to a different metro router.
			for e := 0; e < p.EdgePerMetro; e++ {
				id := sink.AddRouter(fmt.Sprintf("e%d.%d.%d", r, mi, e), TierEdge, region)
				a := mpa[rng.Intn(len(mpa))]
				sink.Connect(id, a, EdgeLinkCapacity, band(20*time.Microsecond, 100*time.Microsecond))
				mpa = append(mpa, a)
				if p.RoutersPerMetro > 1 && rng.Intn(4) == 0 {
					b := paPick(mpa, a)
					sink.Connect(id, b, EdgeLinkCapacity, band(20*time.Microsecond, 100*time.Microsecond))
					mpa = append(mpa, b)
				}
			}
		}
	}

	// Inter-region backbone: a ring through preferentially-chosen gateway
	// cores plus one extra chord per region, delays derived from the circle
	// geometry. Deduped by node pair so two-region rings stay simple.
	if p.Regions > 1 {
		interLinked := make(map[[2]graph.NodeID]bool, 2*p.Regions)
		interConnect := func(r1, r2 int) {
			a := corePA[r1][rng.Intn(len(corePA[r1]))]
			b := corePA[r2][rng.Intn(len(corePA[r2]))]
			k := [2]graph.NodeID{a, b}
			if a > b {
				k = [2]graph.NodeID{b, a}
			}
			if interLinked[k] {
				return
			}
			interLinked[k] = true
			sink.Connect(a, b, CoreLinkCapacity, interRegionDelay(r1, r2))
			corePA[r1] = append(corePA[r1], a)
			corePA[r2] = append(corePA[r2], b)
		}
		for r := 0; r < p.Regions; r++ {
			interConnect(r, (r+1)%p.Regions)
		}
		for r := 0; r < p.Regions; r++ {
			other := rng.Intn(p.Regions)
			if other != r {
				interConnect(r, other)
			}
		}
	}
	return nil
}

// Internet is a generated internet-scale topology plus its host bookkeeping.
type Internet struct {
	Graph  *graph.Graph
	Params InternetParams
	Core   []graph.NodeID
	Metro  []graph.NodeID
	Edge   []graph.NodeID
	Hosts  []graph.NodeID

	rng *rand.Rand
}

// internetBuild adapts a *graph.Graph as a StreamInternet sink, recording
// tier membership as elements arrive.
type internetBuild struct {
	n *Internet
}

func (b internetBuild) AddRouter(name string, tier Tier, region int32) graph.NodeID {
	id := b.n.Graph.AddRouter(name)
	switch tier {
	case TierCore:
		b.n.Core = append(b.n.Core, id)
	case TierMetro:
		b.n.Metro = append(b.n.Metro, id)
	default:
		b.n.Edge = append(b.n.Edge, id)
	}
	return id
}

func (b internetBuild) Connect(a, c graph.NodeID, cap rate.Rate, d time.Duration) {
	b.n.Graph.Connect(a, c, cap, d)
}

// GenerateInternet builds an internet-scale topology deterministically from
// the seed by streaming StreamInternet into a fresh graph.
func GenerateInternet(p InternetParams, seed int64) (*Internet, error) {
	n := &Internet{
		Graph:  graph.New(),
		Params: p,
		rng:    rand.New(rand.NewSource(seed ^ 0x1beda11)),
	}
	if err := StreamInternet(p, seed, internetBuild{n}); err != nil {
		return nil, err
	}
	if err := n.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("topology: generated internet graph invalid: %w", err)
	}
	return n, nil
}

// Topology returns the underlying graph.
func (n *Internet) Topology() *graph.Graph { return n.Graph }

// AddHosts attaches count hosts to edge routers chosen uniformly at random
// and returns their IDs.
func (n *Internet) AddHosts(count int) []graph.NodeID {
	delay := time.Microsecond
	out := make([]graph.NodeID, count)
	for i := range out {
		r := n.Edge[n.rng.Intn(len(n.Edge))]
		h := n.Graph.AddHost(fmt.Sprintf("h%d", len(n.Hosts)))
		n.Graph.Connect(h, r, HostLinkCapacity, delay)
		n.Hosts = append(n.Hosts, h)
		out[i] = h
	}
	return out
}

// RandomHostPair draws a distinct source/destination host pair uniformly at
// random.
func (n *Internet) RandomHostPair() (src, dst graph.NodeID) {
	if len(n.Hosts) < 2 {
		panic("topology: need at least two hosts")
	}
	src = n.Hosts[n.rng.Intn(len(n.Hosts))]
	for {
		dst = n.Hosts[n.rng.Intn(len(n.Hosts))]
		if dst != src {
			return src, dst
		}
	}
}

// Rand exposes the topology's deterministic RNG so callers stay on a single
// seed stream.
func (n *Internet) Rand() *rand.Rand { return n.rng }
