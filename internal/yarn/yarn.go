// Package yarn models Hadoop YARN as configured in §5.2: a ResourceManager
// that grants containers against per-node memory/vcore capacities via
// heartbeat-driven allocation, NodeManagers on every slave, and container
// launch overheads (JVM spin-up) that differ sharply between platforms.
// The paper's key operational finding is reproduced structurally: an
// Edison node cannot host the ResourceManager/NameNode (insufficient RAM),
// so the Edison cluster runs a hybrid with a Dell master.
package yarn

import (
	"fmt"
	"slices"

	"edisim/internal/hw"
	"edisim/internal/sim"
	"edisim/internal/units"
)

// NodeResources is the nameplate capacity a NodeManager offers (§5.2:
// 600 MB / 2 vcores on Edison, 12 GB / 12 vcores on Dell).
type NodeResources struct {
	MemoryMB int
	VCores   int
}

// ContainerRequest asks for one container of the given size.
type ContainerRequest struct {
	MemoryMB int
	VCores   int
	// PreferredNodes lists nodes whose local data make them better hosts
	// (HDFS locality); the scheduler tries them first. They must be the
	// ResourceManager's own NodeManagers (Nodes, NodeManagerOf).
	PreferredNodes []*NodeManager
	// Priority orders pending requests: higher first, FIFO within equal
	// priorities. MapReduce AMs use it to let a few early reducers start
	// shuffling ahead of the queued map backlog.
	Priority int
}

// Container is a granted allocation on a node.
type Container struct {
	Node *NodeManager
	Req  ContainerRequest

	released bool
}

// NodeManager tracks one slave's available resources.
type NodeManager struct {
	Node *hw.Node

	capacity NodeResources
	usedMem  int
	usedVC   int

	// unusable excludes the node from placement — crashed, unreachable or
	// blacklisted by an application master. Already-granted containers are
	// the application's to clean up (as in YARN, where the RM only learns of
	// their fate from heartbeats).
	unusable bool
}

// Usable reports whether the scheduler may place containers here.
func (nm *NodeManager) Usable() bool { return !nm.unusable }

// Available reports free resources.
func (nm *NodeManager) Available() NodeResources {
	return NodeResources{MemoryMB: nm.capacity.MemoryMB - nm.usedMem, VCores: nm.capacity.VCores - nm.usedVC}
}

// Capacity reports configured resources.
func (nm *NodeManager) Capacity() NodeResources { return nm.capacity }

func (nm *NodeManager) fits(r ContainerRequest) bool {
	return nm.capacity.MemoryMB-nm.usedMem >= r.MemoryMB && nm.capacity.VCores-nm.usedVC >= r.VCores
}

// ResourceManager grants containers over the slave set.
type ResourceManager struct {
	eng *sim.Engine

	// Master is the node hosting the RM + namenode (a Dell server in every
	// paper configuration; see §5.2).
	Master *hw.Node

	nodes []*NodeManager
	// pending is the request queue in service order: highest priority
	// first, FIFO within a priority. Request inserts at that position, so
	// the queue never needs sorting.
	pending []*pendingReq
	// Per-round placement state (see tick): the request sizes for which
	// the any-node scan found no node, and the most free memory and the
	// most free vcores on any usable node, each maximum taken on its own.
	noFit []NodeResources
	room  NodeResources

	// HeartbeatInterval is the NM→RM heartbeat period gating allocation
	// (Hadoop default 1 s).
	HeartbeatInterval float64
	// GrantsPerHeartbeat caps how many containers the RM hands out per
	// heartbeat round, modeling RM scheduling throughput.
	GrantsPerHeartbeat int
	// ContainerStartup is the platform-dependent JVM launch time added
	// before a granted container begins useful work.
	ContainerStartup func(n *hw.Node) float64

	granted int64
	ticking bool
	tickFn  func() // tick, bound once so arming a heartbeat never allocates
}

type pendingReq struct {
	req    ContainerRequest
	done   func(*Container)
	waited int // heartbeat rounds spent waiting for a data-local node
}

// delayRounds is how many heartbeat rounds a request with locality
// preferences waits for a preferred node before accepting any node (delay
// scheduling; this is how both clusters reach ≈95% data-local maps, §5.2).
const delayRounds = 4

// MasterMemoryMB is what namenode+RM consume on the master — far beyond an
// Edison node's 1 GB (§5.2: "a single Edison node cannot fulfill
// resource-intensive tasks").
const MasterMemoryMB = 8 * 1024

// ErrMasterTooSmall reports that the chosen master cannot host RM+namenode.
var ErrMasterTooSmall = fmt.Errorf("yarn: master node lacks memory for ResourceManager+NameNode (needs %d MB)", MasterMemoryMB)

// NewResourceManager builds an RM on master over the given slaves. It
// fails with ErrMasterTooSmall when the master cannot hold the daemons,
// reproducing the paper's failed Edison-master experiments.
func NewResourceManager(eng *sim.Engine, master *hw.Node, slaves []*hw.Node, res func(n *hw.Node) NodeResources) (*ResourceManager, error) {
	if err := master.AllocMem(units.Bytes(MasterMemoryMB) * units.MB); err != nil {
		return nil, ErrMasterTooSmall
	}
	rm := &ResourceManager{
		eng:                eng,
		Master:             master,
		HeartbeatInterval:  1.0,
		GrantsPerHeartbeat: 24,
		ContainerStartup:   DefaultContainerStartup,
	}
	rm.tickFn = rm.tick
	for _, s := range slaves {
		nm := &NodeManager{Node: s, capacity: res(s)}
		rm.nodes = append(rm.nodes, nm)
	}
	return rm, nil
}

// DefaultResources returns the node platform's NodeManager capacity from
// the hw catalog (§5.2 for the baseline pair). Ad-hoc specs outside the
// catalog fall back to a sensor-class-vs-server heuristic on clock speed.
func DefaultResources(n *hw.Node) NodeResources {
	if p := hw.PlatformForSpec(n.Spec.Name); p != nil {
		return NodeResources{MemoryMB: p.Hadoop.NodeMemoryMB, VCores: p.Hadoop.VCores}
	}
	if n.Spec.CPU.Clock < 1000 {
		return NodeResources{MemoryMB: 600, VCores: 2}
	}
	return NodeResources{MemoryMB: 12 * 1024, VCores: 12}
}

// DefaultContainerStartup returns the node platform's JVM + container
// localization time from the hw catalog: the paper's traces show ≈20 s of
// ramp on the brawny cluster and ≈45 s (2.3×) on the micro cluster before
// CPU rises.
func DefaultContainerStartup(n *hw.Node) float64 {
	if p := hw.PlatformForSpec(n.Spec.Name); p != nil {
		return p.Hadoop.ContainerStartup
	}
	if n.Spec.CPU.Clock < 1000 {
		return 12.0
	}
	return 2.5
}

// Nodes returns the NodeManagers.
func (rm *ResourceManager) Nodes() []*NodeManager { return rm.nodes }

// Granted reports the total containers granted.
func (rm *ResourceManager) Granted() int64 { return rm.granted }

// Request queues a container request; done runs (after the heartbeat
// allocation delay and JVM startup) with the granted container. The request
// goes after every pending request of equal or higher priority.
func (rm *ResourceManager) Request(req ContainerRequest, done func(*Container)) {
	i := len(rm.pending)
	for i > 0 && rm.pending[i-1].req.Priority < req.Priority {
		i--
	}
	rm.pending = slices.Insert(rm.pending, i, &pendingReq{req: req, done: done})
	rm.ensureTicking()
}

func (rm *ResourceManager) ensureTicking() {
	if rm.ticking {
		return
	}
	rm.ticking = true
	rm.eng.After(rm.HeartbeatInterval, rm.tickFn)
}

// tick is one heartbeat round: grant up to GrantsPerHeartbeat pending
// requests onto nodes with room, preferring data-local nodes, in queue
// order (by priority, FIFO within a class; see pending). The queue is
// filtered in place and never sorted.
//
// Free capacity only shrinks within a round, which makes two per-round
// memos exact. Once the any-node scan finds no node for a size, every
// later request at least that large in both dimensions skips the scan
// (noFit). A request larger than the round's free-room bound (room,
// refreshed after each grant) in either dimension fits no node, so it
// skips its preferred-node checks too. A request that is not placed counts
// one more waited round, exactly as with a full search.
func (rm *ResourceManager) tick() {
	rm.ticking = false
	rm.noFit = rm.noFit[:0]
	rm.measureRoom()
	grants := 0
	kept := rm.pending[:0]
	for i := range rm.pending {
		if grants >= rm.GrantsPerHeartbeat {
			kept = append(kept, rm.pending[i:]...)
			break
		}
		p := rm.pending[i]
		nm := rm.place(p.req, p.waited >= delayRounds)
		if nm == nil {
			p.waited++
			kept = append(kept, p)
			continue
		}
		grants++
		rm.granted++
		nm.usedMem += p.req.MemoryMB
		nm.usedVC += p.req.VCores
		rm.measureRoom()
		c := &Container{Node: nm, Req: p.req}
		startup := rm.ContainerStartup(nm.Node)
		done := p.done
		rm.eng.After(startup, func() { done(c) })
	}
	clear(rm.pending[len(kept):])
	rm.pending = kept
	if len(rm.pending) > 0 {
		rm.ensureTicking()
	}
}

// measureRoom sets room to the most free memory and the most free vcores
// on any usable node.
func (rm *ResourceManager) measureRoom() {
	rm.room = NodeResources{}
	for _, nm := range rm.nodes {
		if !nm.unusable {
			a := nm.Available()
			rm.room.MemoryMB = max(rm.room.MemoryMB, a.MemoryMB)
			rm.room.VCores = max(rm.room.VCores, a.VCores)
		}
	}
}

// place chooses a node for the request: preferred (data-local) first; any
// fitting node only once the request has waited out its delay-scheduling
// rounds (or has no preference). A request beyond the round's room, or at
// least as large as a size the round's any-node scan already failed for,
// fails without searching.
func (rm *ResourceManager) place(req ContainerRequest, anyNode bool) *NodeManager {
	if req.MemoryMB > rm.room.MemoryMB || req.VCores > rm.room.VCores {
		return nil
	}
	for _, nm := range req.PreferredNodes {
		if !nm.unusable && nm.fits(req) {
			return nm
		}
	}
	if len(req.PreferredNodes) > 0 && !anyNode {
		return nil
	}
	for _, sz := range rm.noFit {
		if req.MemoryMB >= sz.MemoryMB && req.VCores >= sz.VCores {
			return nil
		}
	}
	var best *NodeManager
	for _, nm := range rm.nodes {
		if nm.unusable || !nm.fits(req) {
			continue
		}
		if best == nil || nm.Available().MemoryMB > best.Available().MemoryMB {
			best = nm
		}
	}
	if best == nil {
		rm.noFit = append(rm.noFit, NodeResources{MemoryMB: req.MemoryMB, VCores: req.VCores})
	}
	return best
}

// Release returns a container's resources; the next heartbeat can reuse
// them. Releasing twice panics (it is always an accounting bug).
func (rm *ResourceManager) Release(c *Container) {
	if c.released {
		panic("yarn: double release of container")
	}
	c.released = true
	c.Node.usedMem -= c.Req.MemoryMB
	c.Node.usedVC -= c.Req.VCores
	if len(rm.pending) > 0 {
		rm.ensureTicking()
	}
}

// SetNodeUsable includes or excludes a node from container placement
// (failure detection and blacklisting). Unknown nodes are ignored. Toggling
// usability never touches granted containers or queued requests; a request
// that can no longer be placed simply keeps waiting for the next heartbeat.
func (rm *ResourceManager) SetNodeUsable(n *hw.Node, usable bool) {
	if nm := rm.NodeManagerOf(n); nm != nil {
		nm.unusable = !usable
	}
}

// NodeManagerOf finds the NodeManager for a given hardware node.
func (rm *ResourceManager) NodeManagerOf(n *hw.Node) *NodeManager {
	for _, nm := range rm.nodes {
		if nm.Node == n {
			return nm
		}
	}
	return nil
}
