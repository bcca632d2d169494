package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bneck/internal/rate"
)

// refResolver is one full breadth-first search from the source router per
// query, over Out/Link/Node, recording the link that first reaches each
// router. It is the specification the Resolver is held to, link for link and
// error for error.
type refResolver struct{ g *Graph }

// RefHostPath and RefRouterPath answer with the reference, and ScratchClean
// reports whether a resolver's per-query scratch is back to unreached: the
// hooks the external tests, which need the topology generators, hold the
// Resolver to the specification with.
func RefHostPath(g *Graph, src, dst NodeID) (Path, error) { return refResolver{g}.HostPath(src, dst) }

func RefRouterPath(g *Graph, src, dst NodeID) (Path, error) {
	return refResolver{g}.RouterPath(src, dst)
}

func ScratchClean(r *Resolver) bool {
	for i := range r.df {
		if r.df[i] != -1 || r.db[i] != -1 {
			return false
		}
	}
	return len(r.fwd) == 0 && len(r.bwd) == 0
}

func (r refResolver) HostPath(src, dst NodeID) (Path, error) {
	if src == dst {
		return nil, fmt.Errorf("graph: source and destination host coincide (%d)", src)
	}
	if r.g.Node(src).Kind != Host || r.g.Node(dst).Kind != Host {
		return nil, fmt.Errorf("graph: HostPath endpoints must be hosts (%d, %d)", src, dst)
	}
	srcRouter := r.g.HostRouter(src)
	dstRouter := r.g.HostRouter(dst)

	up := r.g.AccessLink(src)
	if r.g.Link(up).Failed {
		return nil, fmt.Errorf("graph: access link of host %d is down", src)
	}
	down := r.g.Link(r.g.AccessLink(dst)).Reverse
	if r.g.Link(down).Failed {
		return nil, fmt.Errorf("graph: access link of host %d is down", dst)
	}

	if srcRouter == dstRouter {
		return Path{up, down}, nil
	}
	mid, err := r.RouterPath(srcRouter, dstRouter)
	if err != nil {
		return nil, err
	}
	path := make(Path, 0, len(mid)+2)
	path = append(path, up)
	path = append(path, mid...)
	path = append(path, down)
	return path, nil
}

func (r refResolver) RouterPath(src, dst NodeID) (Path, error) {
	if r.g.Node(src).Kind != Router || r.g.Node(dst).Kind != Router {
		return nil, fmt.Errorf("graph: RouterPath endpoints must be routers (%d, %d)", src, dst)
	}
	if src == dst {
		return Path{}, nil
	}
	parentLink := r.bfs(src)
	if parentLink[dst] == NoLink {
		return nil, fmt.Errorf("graph: no path from router %d to router %d", src, dst)
	}
	var rev Path
	for n := dst; n != src; {
		l := parentLink[n]
		rev = append(rev, l)
		n = r.g.Link(l).From
	}
	slices.Reverse(rev)
	return rev, nil
}

// bfs runs a breadth-first search over routers only, skipping failed links.
// Ties are broken by link insertion order, so results are deterministic.
func (r refResolver) bfs(src NodeID) []LinkID {
	g := r.g
	parentLink := make([]LinkID, g.NumNodes())
	for i := range parentLink {
		parentLink[i] = NoLink
	}
	visited := make([]bool, g.NumNodes())
	visited[src] = true
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for lid := range g.Out(n) {
			l := g.Link(lid)
			to := l.To
			if l.Failed || visited[to] || g.Node(to).Kind != Router {
				continue
			}
			visited[to] = true
			parentLink[to] = lid
			queue = append(queue, to)
		}
	}
	return parentLink
}

// pathFinder is what the reference and the Resolver share.
type pathFinder interface {
	HostPath(src, dst NodeID) (Path, error)
	RouterPath(src, dst NodeID) (Path, error)
}

// differential interprets prog as a graph followed by a sequence of queries
// and mutations, and holds one resolver, kept across the whole program, to
// the reference after every query. Every query must also leave the scratch
// as it found it: every df and db entry -1.
func differential(t *testing.T, prog []byte) {
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	g := New()
	c := rate.Mbps(10)
	var routers, hosts []NodeID
	addRouter := func() {
		r := g.AddRouter("r")
		// Up to four links to earlier routers; one draw in eight leaves
		// the router an island (until a later router links to it).
		for k := (next()%8 + 1) / 2; k > 0 && len(routers) > 0; k-- {
			g.Connect(r, routers[next()%len(routers)], c, 0)
		}
		routers = append(routers, r)
	}
	addHost := func() {
		h := g.AddHost("h")
		g.Connect(h, routers[next()%len(routers)], c, 0)
		hosts = append(hosts, h)
	}
	for n := 2 + next()%24; n > 0; n-- {
		addRouter()
	}
	for n := 2 + next()%8; n > 0; n-- {
		addHost()
	}

	ref, res := refResolver{g}, NewResolver(g, 256)
	check := func(what string, src, dst NodeID, query func(pathFinder) (Path, error)) {
		t.Helper()
		want, wantErr := query(ref)
		got, err := query(res)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Fatalf("%s(%d, %d) = %v, %v; reference %v, %v", what, src, dst, got, err, want, wantErr)
		}
		if !ScratchClean(res) {
			t.Fatalf("%s(%d, %d) left df %v, db %v", what, src, dst, res.df, res.db)
		}
	}
	hostPath := func(src, dst NodeID) {
		t.Helper()
		check("HostPath", src, dst, func(r pathFinder) (Path, error) {
			return r.HostPath(src, dst)
		})
	}
	var lastSrc, lastDst NodeID = hosts[0], hosts[1]
	var failed []LinkID
	for len(prog) > 0 {
		switch op := next() % 13; op {
		case 0, 1, 2: // one query
			lastSrc, lastDst = hosts[next()%len(hosts)], hosts[next()%len(hosts)]
			hostPath(lastSrc, lastDst)
		case 3: // every host in host order, one source each
			dst := hosts[next()%len(hosts)]
			for _, src := range hosts {
				hostPath(src, dst)
			}
		case 4: // several from one source
			src := hosts[next()%len(hosts)]
			for k := 1 + next()%6; k > 0; k-- {
				hostPath(src, hosts[next()%len(hosts)])
			}
		case 5: // repeated
			hostPath(lastSrc, lastDst)
		case 6:
			src, dst := routers[next()%len(routers)], routers[next()%len(routers)]
			check("RouterPath", src, dst, func(r pathFinder) (Path, error) {
				return r.RouterPath(src, dst)
			})
		case 7:
			l := LinkID(next() % g.NumLinks())
			g.FailLink(l)
			failed = append(failed, l)
		case 8: // restore a link that failed earlier (a no-op if already restored)
			if len(failed) > 0 {
				g.RestoreLink(failed[next()%len(failed)])
			}
		case 9:
			g.SetCapacity(LinkID(next()%g.NumLinks()), rate.Mbps(int64(1+next())))
		case 10:
			addHost()
		case 11:
			addRouter()
		case 12: // a new link between routers that exist
			if a, b := routers[next()%len(routers)], routers[next()%len(routers)]; a != b {
				g.Connect(a, b, c, 0)
			}
		}
	}
}

// randomProgram draws a differential program: a graph prefix and n
// operation bytes.
func randomProgram(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	prog := make([]byte, n)
	rng.Read(prog)
	return prog
}

func TestResolverDifferential(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		differential(t, randomProgram(seed, 400))
	}
}

func FuzzResolverDifferential(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(randomProgram(seed, 200))
	}
	f.Add([]byte{})                          // two routers, two hosts, no operation
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 1}) // two islands and a query across them
	f.Fuzz(differential)
}

// detourTopo builds the line r0 - r1 - r2 - r3 - r4 with the longer detour
// r1 - r5 - r6 - r3 around r2, and one host on each router.
func detourTopo() (g *Graph, r, h []NodeID, line [4]LinkID) {
	g = New()
	c := rate.Mbps(10)
	for i := 0; i < 7; i++ {
		r = append(r, g.AddRouter("r"))
	}
	for i := range line {
		line[i], _ = g.Connect(r[i], r[i+1], c, 0)
	}
	g.Connect(r[1], r[5], c, 0)
	g.Connect(r[5], r[6], c, 0)
	g.Connect(r[6], r[3], c, 0)
	for _, router := range r {
		host := g.AddHost("h")
		g.Connect(host, router, c, 0)
		h = append(h, host)
	}
	return g, r, h, line
}

func mustRouterPath(t *testing.T, res *Resolver, src, dst NodeID) Path {
	t.Helper()
	got, err := res.RouterPath(src, dst)
	want, wantErr := refResolver{res.g}.RouterPath(src, dst)
	if err != nil || wantErr != nil || !slices.Equal(got, want) {
		t.Fatalf("RouterPath(%d, %d) = %v, %v; reference %v, %v", src, dst, got, err, want, wantErr)
	}
	return got
}

// Links and nodes added after a query are seen by the next one.
func TestResolverSeesGrowth(t *testing.T) {
	g, r, h, _ := detourTopo()
	res := NewResolver(g, 4)
	if p := mustRouterPath(t, res, r[0], r[4]); len(p) != 4 {
		t.Fatalf("path %v", PathNodes(g, p))
	}
	shortcut, _ := g.Connect(r[0], r[4], rate.Mbps(10), 0)
	if p := mustRouterPath(t, res, r[0], r[4]); !slices.Equal(p, Path{shortcut}) {
		t.Fatalf("path %v ignores the new link", PathNodes(g, p))
	}
	late := g.AddHost("late")
	g.Connect(late, r[6], rate.Mbps(10), 0)
	got, err := res.HostPath(h[0], late)
	want, wantErr := refResolver{g}.HostPath(h[0], late)
	if err != nil || wantErr != nil || !slices.Equal(got, want) {
		t.Fatalf("HostPath to the new host = %v, %v; reference %v, %v", got, err, want, wantErr)
	}
}

// Once the scratch is sized, a query allocates the returned path and
// nothing else: a cold one (a pair not asked before), a repeated one, and
// the first after a FailLink.
func TestResolverWarmHitAllocatesOnlyThePath(t *testing.T) {
	g, _, h, line := detourTopo()
	res := NewResolver(g, 4)
	query := func(src, dst NodeID) {
		if _, err := res.HostPath(src, dst); err != nil {
			t.Fatal(err)
		}
	}
	query(h[6], h[0])
	allocs := func(what string, runs int, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(runs, f); n != 1 {
			t.Fatalf("%s: %v allocs, want 1", what, n)
		}
	}
	var pairs [][2]NodeID
	for _, src := range h[:6] {
		for _, dst := range h {
			if src != dst {
				pairs = append(pairs, [2]NodeID{src, dst})
			}
		}
	}
	allocs("cold", len(pairs)-1, func() { // AllocsPerRun adds one warm-up run
		query(pairs[0][0], pairs[0][1])
		pairs = pairs[1:]
	})
	// Across the graph and to the neighbouring router.
	for _, dst := range []NodeID{h[4], h[1]} {
		allocs(fmt.Sprintf("HostPath(%d, %d) repeated", h[0], dst), 100, func() { query(h[0], dst) })
	}
	allocs("first after FailLink", 100, func() {
		g.FailLink(line[2])
		query(h[0], h[4])
		g.RestoreLink(line[2])
	})
}

// PathNodes expands a path into its node sequence (source of the first link
// followed by the destination of every link). Useful for debugging and
// tests.
func PathNodes(g *Graph, p Path) []NodeID {
	if len(p) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(p)+1)
	out = append(out, g.LinkFrom(p[0]))
	for _, l := range p {
		out = append(out, g.LinkTo(l))
	}
	return out
}
