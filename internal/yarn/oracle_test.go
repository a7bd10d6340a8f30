package yarn

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"edisim/internal/hw"
	"edisim/internal/sim"
)

// sortingRM is the heartbeat allocator before the queue became
// incremental: every round stable-sorts the whole pending queue by
// priority, rebuilds it in a new slice, and runs the full any-node scan for
// every waiting request. It shares NodeManager and its accounting with
// ResourceManager, so both can be driven through the same trace.
type sortingRM struct {
	eng     *sim.Engine
	nodes   []*NodeManager
	pending []*pendingReq
	grants  int // GrantsPerHeartbeat
	ticking bool
}

func (o *sortingRM) Request(req ContainerRequest, done func(*Container)) {
	o.pending = append(o.pending, &pendingReq{req: req, done: done})
	o.ensureTicking()
}

func (o *sortingRM) ensureTicking() {
	if o.ticking {
		return
	}
	o.ticking = true
	o.eng.After(1.0, o.tick)
}

func (o *sortingRM) tick() {
	o.ticking = false
	grants := 0
	sort.SliceStable(o.pending, func(i, j int) bool {
		return o.pending[i].req.Priority > o.pending[j].req.Priority
	})
	var still []*pendingReq
	for _, p := range o.pending {
		if grants >= o.grants {
			still = append(still, p)
			continue
		}
		nm := o.place(p.req, p.waited >= delayRounds)
		if nm == nil {
			p.waited++
			still = append(still, p)
			continue
		}
		grants++
		nm.usedMem += p.req.MemoryMB
		nm.usedVC += p.req.VCores
		c := &Container{Node: nm, Req: p.req}
		p := p
		o.eng.After(DefaultContainerStartup(nm.Node), func() { p.done(c) })
	}
	o.pending = still
	if len(o.pending) > 0 {
		o.ensureTicking()
	}
}

func (o *sortingRM) place(req ContainerRequest, anyNode bool) *NodeManager {
	for _, nm := range req.PreferredNodes {
		if !nm.unusable && nm.fits(req) {
			return nm
		}
	}
	if len(req.PreferredNodes) > 0 && !anyNode {
		return nil
	}
	var best *NodeManager
	for _, nm := range o.nodes {
		if nm.unusable || !nm.fits(req) {
			continue
		}
		if best == nil || nm.Available().MemoryMB > best.Available().MemoryMB {
			best = nm
		}
	}
	return best
}

func (o *sortingRM) Release(c *Container) {
	c.released = true
	c.Node.usedMem -= c.Req.MemoryMB
	c.Node.usedVC -= c.Req.VCores
	if len(o.pending) > 0 {
		o.ensureTicking()
	}
}

// rmOp is one step of a random scheduler trace.
type rmOp struct {
	at        sim.Time
	kind      int // 0 request, 1 release, 2 usability toggle
	req       ContainerRequest
	preferred []int // node indices, for requests
	pick      int   // held container (release) or node (toggle)
	usable    bool
}

func randomRMTrace(rng *rand.Rand, nodes, n int) []rmOp {
	mem := []int{100, 150, 200, 300, 600, 1024}
	ops := make([]rmOp, n)
	for i := range ops {
		op := rmOp{at: sim.Time(rng.Float64() * 120)}
		switch r := rng.Intn(10); {
		case r < 7:
			op.req = ContainerRequest{MemoryMB: mem[rng.Intn(len(mem))], VCores: 1 + rng.Intn(2), Priority: rng.Intn(3)}
			op.preferred = rng.Perm(nodes)[:rng.Intn(4)]
		case r < 9:
			op.kind = 1
			op.pick = rng.Int()
		default:
			op.kind = 2
			op.pick = rng.Intn(nodes)
			op.usable = rng.Intn(2) == 0
		}
		ops[i] = op
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops
}

// grant is one container handed to a request: which request, on which
// node, at what engine time.
type grant struct {
	req, node int
	at        sim.Time
}

// rmRun is one scheduler driven through a trace: the grants it made and
// every request's record, in request order.
type rmRun struct {
	grants []grant
	reqs   []*pendingReq
}

// driveRM replays ops against a scheduler built on eng over nodes. queue
// exposes the scheduler's pending queue, so each request's record (and
// its waited count) can be found right after it is queued.
func driveRM(eng *sim.Engine, nodes []*NodeManager, ops []rmOp,
	request func(ContainerRequest, func(*Container)), release func(*Container),
	setUsable func(*hw.Node, bool), queue func() []*pendingReq) *rmRun {
	run := &rmRun{}
	index := map[*NodeManager]int{}
	for i, nm := range nodes {
		index[nm] = i
	}
	var held []*Container
	for _, op := range ops {
		eng.At(op.at, func() {
			switch op.kind {
			case 0:
				req := op.req
				for _, i := range op.preferred {
					req.PreferredNodes = append(req.PreferredNodes, nodes[i])
				}
				id := len(run.reqs)
				known := map[*pendingReq]bool{}
				for _, p := range queue() {
					known[p] = true
				}
				request(req, func(c *Container) {
					run.grants = append(run.grants, grant{id, index[c.Node], eng.Now()})
					held = append(held, c)
				})
				var added *pendingReq
				for _, p := range queue() {
					if !known[p] {
						added = p
					}
				}
				run.reqs = append(run.reqs, added)
			case 1:
				if len(held) > 0 {
					k := op.pick % len(held)
					c := held[k]
					held = append(held[:k], held[k+1:]...)
					release(c)
				}
			case 2:
				setUsable(nodes[op.pick].Node, op.usable)
			}
		})
	}
	eng.RunUntil(400)
	return run
}

// rmCluster builds a mixed slave set on a fresh engine: Edison nodes (600
// MB / 2 vcores) and a Dell (12 GB / 12 vcores).
func rmCluster(t *testing.T) (*sim.Engine, *ResourceManager) {
	t.Helper()
	eng := sim.NewEngine()
	master := hw.NewNode(eng, hw.DellR620Spec(), "master")
	var slaves []*hw.Node
	for i := 0; i < 6; i++ {
		slaves = append(slaves, hw.NewNode(eng, hw.EdisonSpec(), fmt.Sprintf("e%d", i)))
	}
	slaves = append(slaves, hw.NewNode(eng, hw.DellR620Spec(), "d0"))
	rm, err := NewResourceManager(eng, master, slaves, DefaultResources)
	if err != nil {
		t.Fatal(err)
	}
	return eng, rm
}

// TestTickMatchesSortingOracle drives ResourceManager and the sorting
// oracle through the same random traces of requests (mixed sizes,
// priorities 0–2, 0–3 preferred nodes), releases and usability toggles.
// The incremental queue, the no-fit memo and the free-room bound must
// leave every grant (request, node, time) and every request's waited
// count exactly as the full per-round search has them.
func TestTickMatchesSortingOracle(t *testing.T) {
	fellBack := 0
	for seed := int64(1); seed <= 40; seed++ {
		grantsPerHB := []int{24, 3, 1}[seed%3]
		ops := randomRMTrace(rand.New(rand.NewSource(seed)), 7, 300)

		eng, rm := rmCluster(t)
		rm.GrantsPerHeartbeat = grantsPerHB
		got := driveRM(eng, rm.nodes, ops, rm.Request, rm.Release, rm.SetNodeUsable,
			func() []*pendingReq { return rm.pending })

		oeng, orm := rmCluster(t)
		o := &sortingRM{eng: oeng, nodes: orm.nodes, grants: grantsPerHB}
		want := driveRM(oeng, o.nodes, ops, o.Request, o.Release, orm.SetNodeUsable,
			func() []*pendingReq { return o.pending })

		if len(got.grants) != len(want.grants) {
			t.Fatalf("seed %d: %d grants, oracle %d", seed, len(got.grants), len(want.grants))
		}
		for i := range want.grants {
			if got.grants[i] != want.grants[i] {
				t.Fatalf("seed %d: grant %d is %+v, oracle %+v", seed, i, got.grants[i], want.grants[i])
			}
		}
		if len(got.reqs) != len(want.reqs) {
			t.Fatalf("seed %d: %d requests, oracle %d", seed, len(got.reqs), len(want.reqs))
		}
		for i := range want.reqs {
			if g, w := got.reqs[i].waited, want.reqs[i].waited; g != w {
				t.Fatalf("seed %d: request %d waited %d rounds, oracle %d", seed, i, g, w)
			}
			if want.reqs[i].waited > delayRounds {
				fellBack++
			}
		}
		if len(want.grants) == 0 || len(rm.pending) == 0 {
			t.Fatalf("seed %d: trace granted %d and left %d pending; want both nonzero",
				seed, len(want.grants), len(rm.pending))
		}
	}
	if fellBack == 0 {
		t.Fatal("no request waited past its delay-scheduling rounds; the traces miss the any-node path")
	}
}
