package netsim_test

import (
	"strings"
	"testing"

	"edisim/internal/cluster"
	"edisim/internal/netsim"
	"edisim/internal/sim"
	"edisim/internal/units"
)

// earlyExitRoute is the route search that per-source trees replace: a
// breadth-first search from src over a per-call parent map, stopped as
// soon as dst is discovered. It reports false when dst is unreachable.
func earlyExitRoute(adj map[string][]*netsim.Link, src, dst string) ([]*netsim.Link, bool) {
	prev := map[string]*netsim.Link{src: nil}
	queue := []string{src}
	for len(queue) > 0 && prev[dst] == nil {
		v := queue[0]
		queue = queue[1:]
		for _, l := range adj[v] {
			if _, seen := prev[l.Dst]; !seen {
				prev[l.Dst] = l
				queue = append(queue, l.Dst)
			}
		}
		if _, ok := prev[dst]; ok {
			break
		}
	}
	back, ok := prev[dst]
	if !ok || back == nil {
		return nil, false
	}
	var rev []*netsim.Link
	for l := back; l != nil; l = prev[l.Src] {
		rev = append(rev, l)
	}
	path := make([]*netsim.Link, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path, true
}

// checkRoutesMatchOracle compares Route with the early-exit search for
// every ordered pair of vertices, link by link.
func checkRoutesMatchOracle(t *testing.T, name string, f *netsim.Fabric, vertices []string) {
	t.Helper()
	adj := map[string][]*netsim.Link{}
	for _, l := range f.Links() {
		adj[l.Src] = append(adj[l.Src], l)
	}
	for _, src := range vertices {
		for _, dst := range vertices {
			if src == dst {
				continue
			}
			want, ok := earlyExitRoute(adj, src, dst)
			got, panicked := routeOrPanic(f, src, dst)
			if panicked == ok {
				t.Fatalf("%s: %s -> %s: Route panicked=%v, oracle reachable=%v", name, src, dst, panicked, ok)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %s -> %s: %d hops, oracle %d", name, src, dst, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: %s -> %s: hop %d is %s->%s, oracle %s->%s", name, src, dst, i,
						got[i].Src, got[i].Dst, want[i].Src, want[i].Dst)
				}
			}
		}
	}
}

func routeOrPanic(f *netsim.Fabric, src, dst string) (path []*netsim.Link, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return f.Route(src, dst), false
}

// vertexNames lists every vertex that has a link, in first-seen order.
func vertexNames(f *netsim.Fabric) []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range f.Links() {
		for _, v := range []string{l.Src, l.Dst} {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// hadoopNet is the paper's 35-Edison Hadoop testbed with its Dell master;
// it returns the fabric and the hosts, master last.
func hadoopNet(eng *sim.Engine) (*netsim.Fabric, []string) {
	tb := cluster.NewOn(eng, cluster.PairConfig(35, 1, 0, 0))
	var hosts []string
	for _, g := range tb.Groups {
		for _, n := range g.Nodes {
			hosts = append(hosts, n.ID)
		}
	}
	return tb.Fab, hosts
}

// TestRouteMatchesEarlyExitBFS checks that routes walked up per-source
// trees equal the per-pair early-exit search on every ordered vertex pair
// of the Hadoop testbed, the web testbed and a leaf-spine fabric, and
// again after ConnectAsym adds a shortcut and AddVertex a late vertex.
func TestRouteMatchesEarlyExitBFS(t *testing.T) {
	nets := []struct {
		name  string
		build oracleNet
	}{
		{"hadoop-35E", hadoopNet},
		{"web-table6", table6Net},
		{"leaf-spine", leafSpineNet},
	}
	for _, n := range nets {
		f, _ := n.build(sim.NewEngine())
		vs := vertexNames(f)
		checkRoutesMatchOracle(t, n.name, f, vs)

		// A one-way shortcut from the last vertex to the first changes
		// some routes; the cached ones must not survive it.
		a, b := vs[len(vs)-1], vs[0]
		f.ConnectAsym(a, b, units.Gbps(1), 1e-6)
		checkRoutesMatchOracle(t, n.name+"+shortcut", f, vs)

		// A vertex added after the trees were built is unreachable until
		// connected.
		f.AddVertex("late")
		if _, panicked := routeOrPanic(f, vs[0], "late"); !panicked {
			t.Fatalf("%s: route to an unconnected vertex did not panic", n.name)
		}
		if _, panicked := routeOrPanic(f, "late", vs[0]); !panicked {
			t.Fatalf("%s: route from an unconnected vertex did not panic", n.name)
		}
		f.Connect("late", vs[1], units.Gbps(1), 1e-6)
		checkRoutesMatchOracle(t, n.name+"+late", f, append(vs, "late"))
	}
}

// TestRouteTreesStayWithinBudget routes from every host of a leaf-spine
// fabric large enough that one tree per source would pass the tree
// budget: the trees are dropped and rebuilt, and the routes still match
// the early-exit search.
func TestRouteTreesStayWithinBudget(t *testing.T) {
	f, hosts := cluster.LeafSpine(sim.NewEngine(), cluster.LeafSpineConfig{Spines: 2, Leaves: 25, HostsPerLeaf: 90})
	vertices := len(vertexNames(f))
	if len(hosts)*vertices <= netsim.TreeBudget {
		t.Fatalf("%d sources × %d vertices fit the budget; the fabric is too small", len(hosts), vertices)
	}
	adj := map[string][]*netsim.Link{}
	for _, l := range f.Links() {
		adj[l.Src] = append(adj[l.Src], l)
	}
	peak := 0
	for i, src := range hosts {
		for _, dst := range []string{hosts[(i+1)%len(hosts)], hosts[(i+len(hosts)/2)%len(hosts)]} {
			want, _ := earlyExitRoute(adj, src, dst)
			got := f.Route(src, dst)
			if len(got) != len(want) {
				t.Fatalf("%s -> %s: %d hops, oracle %d", src, dst, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s -> %s: hop %d differs from the oracle", src, dst, k)
				}
			}
		}
		peak = max(peak, f.RouteTrees())
	}
	if peak*vertices > netsim.TreeBudget {
		t.Fatalf("%d trees of %d entries exceed the budget of %d", peak, vertices, netsim.TreeBudget)
	}
	if f.RouteTrees() >= len(hosts) {
		t.Fatalf("%d trees for %d sources: the budget never dropped them", f.RouteTrees(), len(hosts))
	}
}

// BenchmarkRouteCold measures the full route table of the 35-Edison Hadoop
// testbed (every ordered host pair, master included) from a cold fabric:
// the first Route per pair after the testbed is built.
func BenchmarkRouteCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, hosts := hadoopNet(sim.NewEngine())
		b.StartTimer()
		for _, src := range hosts {
			for _, dst := range hosts {
				f.Route(src, dst)
			}
		}
	}
}

// checkIndexMatchesName checks that the path by vertex index is the path by
// name, the very same slice, for every ordered pair of vertices. Half the
// pairs are asked by index first, so either way of asking fills the one
// table.
func checkIndexMatchesName(t *testing.T, name string, f *netsim.Fabric, vertices []string) {
	t.Helper()
	for i, src := range vertices {
		for j, dst := range vertices {
			if src == dst {
				continue
			}
			var byIndex, byName []*netsim.Link
			if (i+j)%2 == 0 {
				byIndex = f.Path(f.Vertex(src), f.Vertex(dst))
				byName = f.Route(src, dst)
			} else {
				byName = f.Route(src, dst)
				byIndex = f.Path(f.Vertex(src), f.Vertex(dst))
			}
			if len(byIndex) == 0 || len(byIndex) != len(byName) || &byIndex[0] != &byName[0] {
				t.Fatalf("%s: %s -> %s: the path by index is not the path by name", name, src, dst)
			}
		}
	}
}

// TestRouteByVertexMatchesByName checks on the Table 6 web testbed and a
// leaf-spine fabric that Send's route by vertex index is the route Route
// returns by name, and that a Connect after the table is full still
// invalidates it: the shortcut's routes are seen by index too.
func TestRouteByVertexMatchesByName(t *testing.T) {
	for _, n := range []struct {
		name  string
		build oracleNet
	}{
		{"web-table6", table6Net},
		{"leaf-spine", leafSpineNet},
	} {
		f, _ := n.build(sim.NewEngine())
		vs := vertexNames(f)
		checkIndexMatchesName(t, n.name, f, vs)

		a, b := vs[len(vs)-1], vs[0]
		if len(f.Path(f.Vertex(a), f.Vertex(b))) == 1 {
			t.Fatalf("%s: %s and %s are already neighbours", n.name, a, b)
		}
		f.ConnectAsym(a, b, units.Gbps(1), 1e-6)
		if p := f.Path(f.Vertex(a), f.Vertex(b)); len(p) != 1 || p[0].Src != a || p[0].Dst != b {
			t.Fatalf("%s: %s -> %s by index ignores the new link", n.name, a, b)
		}
		checkIndexMatchesName(t, n.name+"+shortcut", f, vs)
		checkRoutesMatchOracle(t, n.name+"+shortcut", f, vs)
	}
}

// TestVertexUnknownNamePanics checks that resolving a name the fabric does
// not have panics with the name in the message.
func TestVertexUnknownNamePanics(t *testing.T) {
	f, _ := table6Net(sim.NewEngine())
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"nosuchhost"`) {
			t.Fatalf("Vertex of an unknown name panicked with %q, want the name", msg)
		}
	}()
	f.Vertex("nosuchhost")
}

// BenchmarkRoute measures a warm route lookup by vertex index, the one
// every Send makes: the 35-Edison Hadoop testbed's table is filled first,
// then 1024 host pairs are looked up in turn.
func BenchmarkRoute(b *testing.B) {
	f, hosts := hadoopNet(sim.NewEngine())
	vs := make([]netsim.Vertex, len(hosts))
	for i, h := range hosts {
		vs[i] = f.Vertex(h)
	}
	for _, s := range vs {
		for _, d := range vs {
			if s != d {
				f.Path(s, d)
			}
		}
	}
	var pairs [1024][2]netsim.Vertex
	for i := range pairs {
		s := i % len(vs)
		pairs[i] = [2]netsim.Vertex{vs[s], vs[(s+1+i/len(vs))%len(vs)]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pairs[i&(len(pairs)-1)]
		f.Path(p[0], p[1])
	}
}
