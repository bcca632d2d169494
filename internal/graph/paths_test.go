package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bneck/internal/rate"
)

// refResolver is the resolver as it stood before trees became partial and
// the search moved to a packed adjacency: one full breadth-first search per
// query over Out/Link/Node, no cache. It is the specification the Resolver
// is held to, link for link and error for error.
type refResolver struct{ g *Graph }

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
	if down == NoLink {
		return nil, fmt.Errorf("graph: host %d has no router→host link", dst)
	}
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
		for _, lid := range g.Out(n) {
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
// and mutations, and holds three resolvers — cache sizes 1, 2 and 8, so
// eviction, recycling and resumed partial trees all occur — to the
// reference after every query.
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

	ref := refResolver{g}
	resolvers := []*Resolver{NewResolver(g, 1), NewResolver(g, 2), NewResolver(g, 8)}
	check := func(what string, src, dst NodeID, query func(pathFinder) (Path, error)) {
		t.Helper()
		want, wantErr := query(ref)
		for _, r := range resolvers {
			got, err := query(r)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
				t.Fatalf("%s(%d, %d) with %d trees = %v, %v; reference %v, %v",
					what, src, dst, r.count, got, err, want, wantErr)
			}
			if len(r.cache) > r.count {
				t.Fatalf("%d trees cached, limit %d", len(r.cache), r.count)
			}
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
		case 3: // every host in host order, the order that defeats a tree cache
			dst := hosts[next()%len(hosts)]
			for _, src := range hosts {
				hostPath(src, dst)
			}
		case 4: // grouped by source, the order the tree cache exists for
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

// A partial tree stopped before it had looked at a link; the link then
// fails; the next query goes beyond it and must route around.
func TestResolverResumeAfterUnexaminedLinkFailed(t *testing.T) {
	g, r, _, line := detourTopo()
	res := NewResolver(g, 4)
	mustRouterPath(t, res, r[0], r[1])
	if tree := res.cache[r[0]]; tree.parentLink[r[3]] != NoLink {
		t.Fatalf("the search for r1 ran on to r3: queue %v", tree.queue)
	}
	g.FailLink(line[2]) // r2→r3
	if p := mustRouterPath(t, res, r[0], r[4]); len(p) != 5 {
		t.Fatalf("path %v does not take the detour", PathNodes(g, p))
	}
}

// A link the partial tree already used fails: the tree is stale and must be
// restarted, not resumed with its old labels.
func TestResolverStaleTreeNeverResumed(t *testing.T) {
	g, r, _, line := detourTopo()
	res := NewResolver(g, 4)
	mustRouterPath(t, res, r[0], r[2])
	tree := res.cache[r[0]]
	g.FailLink(line[1]) // r1→r2, the labelled r2's parent link
	p := mustRouterPath(t, res, r[0], r[4])
	if slices.Contains(p, line[1]) || len(p) != 5 {
		t.Fatalf("path %v resumes a tree labelled before the failure", PathNodes(g, p))
	}
	if res.cache[r[0]] != tree {
		t.Fatal("the stale tree was replaced instead of restarted in place")
	}
	// Restoring it is a change too.
	g.RestoreLink(line[1])
	if p := mustRouterPath(t, res, r[0], r[4]); len(p) != 4 {
		t.Fatalf("path %v after the restore", PathNodes(g, p))
	}
}

// Capacity cannot change a min-hop path: SetCapacity between two queries
// neither restarts the tree nor advances it.
func TestResolverSetCapacityStartsNoSearch(t *testing.T) {
	g, r, _, line := detourTopo()
	res := NewResolver(g, 4)
	mustRouterPath(t, res, r[0], r[2])
	tree := res.cache[r[0]]
	head, labelled := tree.head, len(tree.queue)

	gen := g.Generation()
	g.SetCapacity(line[0], rate.Mbps(3))
	if g.Generation() == gen {
		t.Fatal("SetCapacity did not bump the generation the partitioner reads")
	}
	mustRouterPath(t, res, r[0], r[2])
	if res.cache[r[0]] != tree || tree.head != head || len(tree.queue) != labelled {
		t.Fatalf("SetCapacity started a search: head %d→%d, labelled %d→%d",
			head, tree.head, labelled, len(tree.queue))
	}
	// A farther destination resumes the same tree from where it stopped.
	mustRouterPath(t, res, r[0], r[4])
	if res.cache[r[0]] != tree || tree.head <= head {
		t.Fatalf("the farther query did not resume the tree: head %d→%d", head, tree.head)
	}
}

// Links and nodes added after a tree was cached are seen by the next query.
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

// The tree cache is bounded in bytes as well as in trees: on a graph whose
// trees are large, fewer than cacheSize are kept.
func TestResolverCacheBoundedInBytes(t *testing.T) {
	g := New()
	const pairs = 40000
	for i := 0; i < pairs; i++ {
		g.Connect(g.AddRouter("a"), g.AddRouter("b"), rate.Mbps(10), 0)
	}
	res := NewResolver(g, 256)
	for i := 0; i < 64; i++ {
		mustRouterPath(t, res, NodeID(2*i), NodeID(2*i+1))
	}
	held := 0
	for _, tree := range res.cache {
		held += 4 * (len(tree.parentLink) + cap(tree.queue))
	}
	if len(res.cache) >= 64 || held > treeCacheBytes {
		t.Fatalf("%d trees holding %d bytes cached, bound %d", len(res.cache), held, treeCacheBytes)
	}
	// Small graphs keep the full count.
	small, _, _, _ := detourTopo()
	res = NewResolver(small, 256)
	res.syncAdjacency()
	if res.limit != 256 {
		t.Fatalf("limit %d on a 14-node graph, want 256", res.limit)
	}
}

// A warm hit allocates the returned path and nothing else.
func TestResolverWarmHitAllocatesOnlyThePath(t *testing.T) {
	g, _, h, _ := detourTopo()
	res := NewResolver(g, 4)
	// Across the graph and to the neighbouring router.
	for _, dst := range []NodeID{h[4], h[1]} {
		if _, err := res.HostPath(h[0], dst); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { res.HostPath(h[0], dst) }); allocs != 1 {
			t.Fatalf("HostPath(%d, %d) warm: %v allocs, want 1", h[0], dst, allocs)
		}
	}
}
