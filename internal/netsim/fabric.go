// Package netsim models the clusters' networks: hosts and switches joined by
// duplex links, static shortest-path routing, and two transfer mechanisms
// chosen by message size class:
//
//   - Send: store-and-forward FIFO per link, for small RPC-style messages
//     (HTTP requests, memcached gets, heartbeats). Queueing delay emerges
//     naturally as links saturate. A link is a capacity-1 FIFO with a
//     constant delay that serves legs in order of arrival, ties in the
//     order they were sent, so a leg's whole path is planned in closed
//     form when it is sent and the leg costs one engine event, its
//     delivery, on its last link's delivery lane. A leg that overtakes
//     legs planned earlier on a shared link is inserted ahead of them, and
//     those whose start it pushes back are re-planned down the rest of
//     their paths (see message).
//   - StartFlow: max-min fair bandwidth sharing with progressive filling,
//     for bulk transfers (HDFS blocks, shuffle segments, iperf streams).
//     Each admission or completion re-allocates only the flows and links
//     of the component it touches, in one pass whose rates do not depend
//     on the order of the flows or on the other components. A slack link,
//     one whose feeding links can never fill it, stays out of the sharing
//     graph, so flows joined only through such links (the paper testbed's
//     box uplinks) share no component (see waterfill.go).
//
// Every host and switch is a Vertex, the dense index AddVertex interns its
// name to. Send takes vertices, which its callers resolve
// once with Fabric.Vertex; StartFlow, Route and Latency take names and
// resolve them on each call. All of them read one route table indexed by
// source and destination vertex, whose rows are cut from per-source
// breadth-first trees and bounded with them (treeBudget).
//
// Link capacities and propagation delays are set by internal/cluster to the
// paper's measured values (§4.4: 100 Mbps Edison NICs, 1 Gbps Dell NICs and
// inter-switch links; RTTs of 1.3 ms E–E, 0.8 ms D–E, 0.24 ms D–D).
package netsim

import (
	"fmt"
	"math"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// Vertex is a host's or switch's dense index in its fabric, in AddVertex
// order (see Fabric.Vertex).
type Vertex int32

// Link is one direction of a cable: src -> dst with a capacity and a
// propagation delay. Duplex cables are two Links.
type Link struct {
	Src, Dst string
	src, dst int32 // dense vertex indices of Src and Dst (Fabric.vertices)
	idx      int32 // position in Fabric.links, the route trees' parent key
	Capacity units.BytesPerSec
	Delay    float64 // one-way propagation delay in seconds

	// Send messages: the plans of the legs crossing the link in order of
	// arrival, from plans[first] (see hopPlan), how many of them from the
	// front are already counted in bytes, when the last retired plan's
	// transmission ended, the delivery events of the legs whose last link
	// this is, and the event that drops held legs if a cut lasts.
	fab        *Fabric
	plans      []hopPlan
	first      int
	credited   int
	base       sim.Time
	deliveries *sim.Lane
	holdEv     sim.EventRef

	bytes units.Bytes // cumulative bytes carried (messages + flows); may
	// lag behind live flow progress and sent messages until
	// Fabric.FlushProgress credits them

	// flows lists the active max-min flows crossing this link while it is
	// binding. A slack link (see isSlack) lists none of the flows admitted
	// while it is slack: its feeding links can never fill it, so it never
	// limits a rate and stays out of the sharing graph. It may keep flows
	// listed while it was binding; those lists stay exact constraints.
	flows []linkSlot
	slack bool   // the feeding links can never fill the link (isSlack)
	dirty bool   // on the fabric's dirty list for the next reallocate
	mark  uint64 // epoch stamp for the dirty-component sweep
	// Water-filling working state, set for the component's links at the
	// start of each pass (see waterFill): remaining capacity, unfrozen
	// flows, and the fair share at the start of the current round.
	wfRem   float64
	wfCnt   int
	wfShare float64
	// scale rescales the effective capacity for fault injection: 1 is the
	// healthy default, (0,1) a degraded link, 0 a cut. It multiplies the
	// nameplate capacity exactly, so at 1 every float downstream — water
	// filling, Send transmission times — is bit-identical to the
	// pre-fault-injection arithmetic.
	scale float64
}

// linkSlot is one entry of a link's flow list: the crossing flow plus the
// index of this link in that flow's own list of links (Flow.links), so
// swap-removal can repair the moved entry's back-pointer in O(1).
type linkSlot struct {
	fl   *Flow
	slot int32
}

// Bytes reports the cumulative bytes carried over this link.
func (l *Link) Bytes() units.Bytes { return l.bytes }

// Scale reports the link's capacity scale (1 healthy, 0 cut).
func (l *Link) Scale() float64 { return l.scale }

// Down reports whether the link is cut.
func (l *Link) Down() bool { return l.scale == 0 }

// effCap is the scaled capacity in bytes/sec used by both transfer models.
func (l *Link) effCap() float64 { return float64(l.Capacity) * l.scale }

// ceiling is the most the link can carry as a feeder of another link: its
// nameplate capacity, or its effective capacity when scaled above it.
func (l *Link) ceiling() float64 { return float64(l.Capacity) * max(1, l.scale) }

// newLink adds one direction of a cable to the fabric.
func (f *Fabric) newLink(src, dst string, capacity units.BytesPerSec, delay float64) *Link {
	l := &Link{Src: src, Dst: dst, src: f.vertices[src], dst: f.vertices[dst],
		idx: int32(len(f.links)), Capacity: capacity, Delay: delay,
		fab: f, deliveries: f.eng.NewLane(), scale: 1}
	f.adj[l.src] = append(f.adj[l.src], l)
	f.into[l.dst] = append(f.into[l.dst], l)
	f.links = append(f.links, l)
	return l
}

// Fabric is the network graph plus the active flow set.
type Fabric struct {
	eng      *sim.Engine
	vertices map[string]int32 // name -> dense vertex index, in AddVertex order
	names    []string         // vertex index -> name
	adj      [][]*Link        // outgoing links by vertex index, in Connect order
	into     [][]*Link        // incoming links by vertex index, in Connect order
	links    []*Link

	// endpoint[v] records that a flow was admitted from or to vertex v;
	// the slack rule treats every other vertex as a relay (see isSlack).
	// slackStale says the topology changed since the links' slack flags
	// were computed; the next admission or capacity change recomputes
	// them. turned collects the links that became binding since their
	// crossing flows were last listed (see relist).
	endpoint   []bool
	slackStale bool
	turned     []*Link

	// trees[s] is the breadth-first parent tree from source vertex s, built
	// on the first route miss from s (nil until then): trees[s][v] is the
	// Fabric.links index of the link that first reached v, or unreached.
	// routes[s] is s's row of the route table, built and dropped with the
	// tree: routes[s][d] is the path to d, walked up the tree on the first
	// route from s to d (nil until then). nTrees counts the built trees,
	// so building a topology (one ConnectAsym per link, before any route)
	// never clears an empty table, and bounds the table's size
	// (treeBudget).
	trees    [][]int32
	routes   [][][]*Link
	nTrees   int
	bfsQueue []int32
	// pathSlab is the unused tail of the chunk new routes are carved from,
	// so a cold route table allocates per chunk, not per pair.
	pathSlab []*Link

	// The live max-min flow set is held only by the links' flow lists
	// (Link.flows) and the completion heap; nFlows counts it. Water-filling
	// is order-free (see waterfill.go), and simultaneous completions run
	// their callbacks in admission (seq) order because the completion heap
	// ties on seq, keeping reruns bit-identical.
	nFlows   int
	epoch    uint64
	nextDone sim.EventRef

	// doneHeap is the indexed 4-ary min-heap of projected completion times
	// (see doneheap.go); one engine event is armed at its minimum.
	doneHeap []*Flow

	// freeFlows is the Flow record pool (see StartFlow); flowSeq stamps
	// each started flow so stale FlowRefs are detected after recycling.
	// freeMsgs is the message record pool (see Send), legs stamps each
	// message leg, ops queues the plan changes of one settle, and
	// planStats counts the reorders and re-plans.
	freeFlows []*Flow
	flowSeq   uint64
	freeMsgs  []*message
	legs      uint64
	ops       []planOp
	planStats PlanStats

	// Reusable scratch so steady-state flow churn does not allocate: the
	// links and flows of the dirty-component sweep, the near-bottleneck
	// links of one water-filling round, the pending done callbacks of one
	// completion round, the abort set of a link-cut storm, and the bound
	// completeFlows closure (allocated once instead of per re-arm).
	wfLinks    []*Link
	affScratch []*Flow
	wfNear     []*Link
	doneQueue  []func()
	abortFlows []*Flow
	completeFn func()

	// dirtyLinks are the links dirtied by flow arrivals/departures/capacity
	// changes since the last pass.
	dirtyLinks []*Link
}

// NewFabric returns an empty network on the engine.
func NewFabric(eng *sim.Engine) *Fabric {
	f := &Fabric{eng: eng, vertices: make(map[string]int32)}
	f.completeFn = f.completeFlows
	return f
}

// Engine returns the engine the fabric runs on.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// AddVertex registers a host or switch by name, interning it to the next
// dense vertex index. Re-adding is a no-op.
func (f *Fabric) AddVertex(name string) {
	if _, ok := f.vertices[name]; ok {
		return
	}
	f.vertices[name] = int32(len(f.adj))
	f.names = append(f.names, name)
	f.adj = append(f.adj, nil)
	f.into = append(f.into, nil)
	f.endpoint = append(f.endpoint, false)
	f.trees = append(f.trees, nil)
	f.routes = append(f.routes, nil)
}

// Vertex returns the dense index of the named host or switch. An unknown
// name panics: vertices are added when the topology is built, so a
// missing one is a configuration bug.
func (f *Fabric) Vertex(name string) Vertex {
	v, ok := f.vertices[name]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown vertex %q", name))
	}
	return Vertex(v)
}

// Connect joins a and b with a duplex cable of the given per-direction
// capacity and one-way propagation delay. Routes are invalidated.
func (f *Fabric) Connect(a, b string, capacity units.BytesPerSec, delay float64) {
	f.ConnectAsym(a, b, capacity, delay)
	f.ConnectAsym(b, a, capacity, delay)
}

// ConnectAsym joins a -> b only, for asymmetric capacities. Routes are
// invalidated.
func (f *Fabric) ConnectAsym(a, b string, capacity units.BytesPerSec, delay float64) {
	_, okA := f.vertices[a]
	_, okB := f.vertices[b]
	if !okA || !okB {
		panic(fmt.Sprintf("netsim: connect of unknown vertex %q or %q", a, b))
	}
	if capacity <= 0 {
		panic("netsim: non-positive link capacity")
	}
	f.newLink(a, b, capacity, delay)
	f.slackStale = true
	if f.nTrees > 0 {
		f.dropTrees()
	}
}

// dropTrees clears every route tree and route table row.
func (f *Fabric) dropTrees() {
	clear(f.trees)
	clear(f.routes)
	f.nTrees = 0
}

// Route returns the shortest path (in hops) from src to dst as directed
// links, memoized. It panics when a name is unknown or no route exists:
// topologies are static and a missing route is a configuration bug.
func (f *Fabric) Route(src, dst string) []*Link {
	if src == dst {
		return nil
	}
	return f.path(f.Vertex(src), f.Vertex(dst))
}

// path returns the route table's path from s to d (s != d), cutting it
// from s's tree on a miss.
func (f *Fabric) path(s, d Vertex) []*Link {
	if row := f.routes[s]; int(d) < len(row) {
		if p := row[d]; p != nil {
			return p
		}
	}
	return f.cut(int32(s), int32(d))
}

// cut builds the path from s to d by walking up s's breadth-first tree (see
// tree) and stores it in the route table. The tree's parents are the
// first-discovery links, so the path equals that of a search from s that
// stops as soon as d is reached: both visit vertices in the same order.
func (f *Fabric) cut(s, d int32) []*Link {
	t := f.tree(s)
	// A vertex added after the tree was built has no entry yet; it is
	// unreachable until a Connect rebuilds the tree.
	if int(d) >= len(t) || t[d] < 0 {
		panic(fmt.Sprintf("netsim: no route %s -> %s", f.names[s], f.names[d]))
	}
	n := 0
	for v := d; v != s; v = f.links[t[v]].src {
		n++
	}
	if len(f.pathSlab) < n {
		f.pathSlab = make([]*Link, max(n, pathChunk))
	}
	path := f.pathSlab[:n:n]
	f.pathSlab = f.pathSlab[n:]
	for v := d; v != s; {
		l := f.links[t[v]]
		n--
		path[n] = l
		v = l.src
	}
	f.routes[s][d] = path
	return path
}

// Route tree markers: a vertex the search never reached, and the source.
const (
	unreached int32 = -1
	treeRoot  int32 = -2
)

// pathChunk is how many links a route slab holds.
const pathChunk = 256

// treeBudget caps the entries of all route trees together. Each tree
// entry comes with an entry of its source's route table row, 28 bytes for
// the pair, so the trees and the table stay within 14 MiB. A fabric with
// thousands of sending hosts drops every tree and row when the next tree
// would pass the cap and rebuilds them on demand, so its table stays
// bounded rather than growing to one tree and row per source.
const treeBudget = 1 << 19

// tree returns source s's breadth-first parent tree over the whole graph,
// building it and an empty route table row on first use. Vertices are
// dequeued in discovery order and each one's links are scanned in Connect
// order, so every vertex's parent is the first link that reaches it.
func (f *Fabric) tree(s int32) []int32 {
	if t := f.trees[s]; t != nil {
		return t
	}
	if (f.nTrees+1)*len(f.adj) > treeBudget {
		f.dropTrees()
	}
	t := make([]int32, len(f.adj))
	for i := range t {
		t[i] = unreached
	}
	t[s] = treeRoot
	queue := append(f.bfsQueue[:0], s)
	for i := 0; i < len(queue); i++ {
		for _, l := range f.adj[queue[i]] {
			if t[l.dst] == unreached {
				t[l.dst] = l.idx
				queue = append(queue, l.dst)
			}
		}
	}
	f.bfsQueue = queue[:0]
	f.trees[s] = t
	f.routes[s] = make([][]*Link, len(t))
	f.nTrees++
	return t
}

// Latency reports the one-way propagation delay from src to dst (no
// queueing, no transmission), i.e. an idealized tiny-packet trip.
func (f *Fabric) Latency(src, dst string) float64 { return pathDelay(f.Route(src, dst)) }

// pathDelay sums the propagation delays along a path, source first.
func pathDelay(path []*Link) float64 {
	var d float64
	for _, l := range path {
		d += l.Delay
	}
	return d
}

// RTT reports Latency both ways, matching what ping measures on idle links.
func (f *Fabric) RTT(a, b string) float64 {
	return f.Latency(a, b) + f.Latency(b, a)
}

// SetVertexLinks rescales the effective capacity of every link adjacent to
// vertex v (both directions) to scale × nameplate: 1 restores the healthy
// link, a value in (0,1) degrades it, and 0 cuts it. Cutting is a departure
// storm for the max-min flow set: every active flow crossing a cut link is
// aborted without its done callback (the sender's timeout machinery owns
// recovery), handled by the same incremental dirty-component sweep as normal
// departures. Flows started while a link on their path is down are admitted
// at rate 0 and resume when the link is restored. A Send message is
// dropped if and only if its link is down at the instant it would start
// transmitting, so every leg planned on a changed link that has not
// started there yet is re-planned at the new capacity, or held to that
// instant while the link is cut, and the change is carried down the rest
// of its path; one already transmitting finishes. A slack link that the
// change makes binding (a cut one always is) lists its crossing flows
// first, so the cut finds them and the re-allocation counts them.
func (f *Fabric) SetVertexLinks(v string, scale float64) {
	if !(scale >= 0) || math.IsInf(scale, 0) {
		panic(fmt.Sprintf("netsim: link scale %g must be finite and non-negative", scale))
	}
	if _, ok := f.vertices[v]; !ok {
		panic(fmt.Sprintf("netsim: SetVertexLinks of unknown vertex %q", v))
	}
	changed := false
	for _, l := range f.links {
		if (l.Src == v || l.Dst == v) && l.scale != scale {
			l.scale = scale
			l.replan()
			f.markDirty(l)
			changed = true
		}
	}
	if !changed {
		return
	}
	f.settle()
	f.refreshSlack()
	f.relist()
	if scale == 0 {
		f.abortCrossing()
	}
	f.reallocate()
}

// abortCrossing drops every active flow whose path contains a just-cut
// link (flows parked at rate 0 on an earlier, unrelated cut keep waiting).
// Aborted flows never run their done callbacks — the transfer is simply
// lost, like a TCP connection through a yanked cable. The cut links must
// already be marked dirty, and list every crossing flow (a cut link is
// binding, and relist has listed the flows of one that was slack); the
// victims are found through the cut links' own flow lists (cost
// proportional to the crossing flows, not the live set) and credited just
// before recycling, per the lazy-crediting invariant.
func (f *Fabric) abortCrossing() {
	// The just-cut links sit on the dirty list; collect their crossing
	// flows once (epoch-deduplicated), then retire each.
	f.epoch++
	victims := f.abortFlows[:0]
	for _, l := range f.dirtyLinks {
		if !l.Down() {
			continue
		}
		for _, s := range l.flows {
			if s.fl.mark != f.epoch {
				s.fl.mark = f.epoch
				victims = append(victims, s.fl)
			}
		}
	}
	for _, fl := range victims {
		f.credit(fl)
		f.unlink(fl)
		f.nFlows--
		f.heapRemove(fl)
		f.recycleFlow(fl)
	}
	for i := range victims {
		victims[i] = nil
	}
	f.abortFlows = victims[:0]
}

// ArrivalsWaiting reports how many message legs wait behind the head of
// their delivery lane, outside the engine heap.
func (f *Fabric) ArrivalsWaiting() int {
	n := 0
	for _, l := range f.links {
		n += max(l.deliveries.Len()-1, 0)
	}
	return n
}

// TotalBytes reports bytes carried across all links (each hop counted),
// crediting any lazily deferred flow progress and sent messages first.
func (f *Fabric) TotalBytes() units.Bytes {
	f.FlushProgress()
	var total units.Bytes
	for _, l := range f.links {
		total += l.bytes
	}
	return total
}
