package hw

import (
	"fmt"

	"edisim/internal/sim"
	"edisim/internal/stats"
	"edisim/internal/units"
)

// Node is a running server instance inside a simulation: a processor-sharing
// CPU, a FIFO disk, a memory accountant and an energy integrator driven by
// CPU utilization through a pluggable PowerModel (the platform's calibrated
// linear model unless SetPowerModel arms another).
type Node struct {
	// Platform is the platform the node is an instance of; every layer
	// reads the node's calibration (Hadoop tuning, web costs) from it.
	Platform *Platform
	// Spec is Platform.Spec.
	Spec NodeSpec
	ID   string

	// power maps utilization to draw; defaults to Spec.Power (linear).
	power PowerModel

	eng *sim.Engine
	cpu *sim.ProcShare
	dsk *Disk

	memUsed units.Bytes

	// down marks a crashed node: its CPU and disk black-hole new work (a
	// submission is silently dropped, done callbacks never run) and power
	// draw is zero until Restore. slow is the straggler factor (0 = never
	// set = nominal speed); it survives a crash/reboot cycle.
	down bool
	// parked marks a deliberate power-off (autoscaling): the node is down
	// like a crashed one, but fault-recovery Restore will not revive it —
	// only PowerUp does. This keeps a fault plan's crash/recover pair from
	// silently re-powering a node the autoscaler parked.
	parked bool
	slow   float64
	// incarnation counts crashes, letting services detect across a reboot
	// that their in-kernel state (backlogs, inflight counts) was wiped.
	incarnation uint64

	energy *stats.Integrator // integrates watts over time
	// BusyFloor pins a minimum "busy fraction" for power purposes, modeling
	// always-on daemons (e.g. datanode+nodemanager keep some load).
	BusyFloor float64

	// utilSubs are change subscribers (see SubscribeUtil); nil slots are
	// cancelled entries, compacted once the last subscriber leaves. The
	// generation counter invalidates cancel funcs issued before a
	// compaction, whose captured indices would otherwise alias new slots.
	utilSubs     []func(u float64)
	utilSubCount int
	utilSubGen   uint64
}

// NewNode instantiates a node of platform p on the engine. The CPU's work
// unit is the DMIPS-second: submitting work W models W DMIPS-seconds of
// computation, so identical logical work takes ~18× longer per core on
// Edison than on Dell, exactly as §4.1 measures.
func NewNode(eng *sim.Engine, p *Platform, id string) *Node {
	spec := p.Spec
	n := &Node{
		Platform: p,
		Spec:     spec,
		ID:       id,
		power:    spec.Power,
		eng:      eng,
		energy:   stats.NewIntegrator(float64(eng.Now()), float64(spec.Power.IdleDraw())),
	}
	n.cpu = sim.NewProcShare(eng, spec.CPU.EffectiveCores(), float64(spec.CPU.DMIPS))
	n.cpu.OnActiveChange = func(int) { n.updatePower() }
	n.dsk = NewDisk(eng, spec.Disk)
	return n
}

// Engine returns the engine the node runs on.
func (n *Node) Engine() *sim.Engine { return n.eng }

// CPU returns the node's processor-sharing CPU.
func (n *Node) CPU() *sim.ProcShare { return n.cpu }

// Disk returns the node's storage device.
func (n *Node) Disk() *Disk { return n.dsk }

// SubscribeUtil registers fn to be called after the node's CPU utilization
// changes, with the new raw utilization in [0,1] (BusyFloor does not
// apply). It lets observers integrate utilization on change instead of
// polling the node on a timer. Any number of observers may subscribe; they
// are notified in registration order. The returned cancel function removes
// the subscription (idempotent).
func (n *Node) SubscribeUtil(fn func(u float64)) (cancel func()) {
	n.utilSubs = append(n.utilSubs, fn)
	n.utilSubCount++
	i := len(n.utilSubs) - 1
	gen := n.utilSubGen
	return func() {
		if gen != n.utilSubGen || n.utilSubs[i] == nil {
			return // stale (pre-compaction) or already cancelled
		}
		n.utilSubs[i] = nil
		n.utilSubCount--
		if n.utilSubCount == 0 {
			n.utilSubs = n.utilSubs[:0]
			n.utilSubGen++
		}
	}
}

// updatePower closes the current energy segment at the new utilization.
func (n *Node) updatePower() {
	u := n.cpu.Utilization()
	for _, fn := range n.utilSubs {
		if fn != nil {
			fn(u)
		}
	}
	if n.down {
		n.energy.Set(float64(n.eng.Now()), 0)
		return
	}
	if u < n.BusyFloor {
		u = n.BusyFloor
	}
	n.energy.Set(float64(n.eng.Now()), float64(n.power.Draw(u)))
}

// SetPowerModel swaps the node's utilization→draw model and immediately
// re-evaluates the energy integrator at the current utilization. A nil model
// restores the spec's linear default. Swapping models mid-run is legal: past
// energy was integrated under the old model, future segments use the new one.
func (n *Node) SetPowerModel(pm PowerModel) {
	if pm == nil {
		pm = n.Spec.Power
	}
	n.power = pm
	n.updatePower()
}

// PowerModel reports the active utilization→draw model.
func (n *Node) PowerModel() PowerModel { return n.power }

// Up reports whether the node is powered and serving (not crashed).
func (n *Node) Up() bool { return !n.down }

// Crash powers the node off: every in-flight CPU task and disk operation is
// dropped without its done callback (outstanding refs go stale), new work is
// black-holed until Restore, and the power draw falls to zero. Crashing a
// down node is a no-op. Memory reservations survive, as the reservation is
// a planning construct (YARN capacities), not live state.
func (n *Node) Crash() {
	if n.down {
		return
	}
	n.cpu.KillAll() // fires OnActiveChange → updatePower at the old state
	n.down = true
	n.incarnation++
	n.dsk.killAll()
	n.updatePower()
}

// Restore reboots a crashed node: it accepts work again (empty CPU and
// disk — the crash dropped everything) and resumes idle power draw. Any
// straggler slow factor set before the crash still applies. Restoring an
// up node is a no-op, and so is restoring a parked node: a deliberate
// power-off outlives fault recovery and ends only with PowerUp.
func (n *Node) Restore() {
	if n.parked {
		return
	}
	n.restore()
}

func (n *Node) restore() {
	if !n.down {
		return
	}
	n.down = false
	n.dsk.restore()
	n.updatePower()
}

// PowerDown parks the node: a deliberate power-off for elasticity, distinct
// from a crash only in who may revive it (PowerUp, not Restore). The caller
// is expected to have drained the node — parking is mechanically a crash,
// so anything still in flight is dropped. Parking a parked node is a no-op.
func (n *Node) PowerDown() {
	if n.parked {
		return
	}
	n.parked = true
	n.Crash()
}

// PowerUp un-parks the node and boots it (idle draw resumes, empty CPU and
// disk). It also revives a node that was crashed when parked. No-op unless
// parked.
func (n *Node) PowerUp() {
	if !n.parked {
		return
	}
	n.parked = false
	n.restore()
}

// Parked reports whether the node is deliberately powered off.
func (n *Node) Parked() bool { return n.parked }

// Incarnation reports how many times the node has crashed — 0 for a node
// that never failed. Services compare it against a remembered value to
// notice, lazily, that a reboot wiped their kernel-side state.
func (n *Node) Incarnation() uint64 { return n.incarnation }

// SetSlowFactor rescales the node's CPU speed and disk rate to factor × the
// nominal value — straggler injection (factor < 1) or recovery (factor 1).
// The factor must be positive and finite.
func (n *Node) SetSlowFactor(factor float64) {
	n.cpu.SetSpeedFactor(factor) // validates the factor
	n.slow = factor
	n.dsk.setRateFactor(factor)
}

// SlowFactor reports the current straggler factor (1 when never set).
func (n *Node) SlowFactor() float64 {
	if n.slow == 0 {
		return 1
	}
	return n.slow
}

// SetBusyFloor sets the minimum busy fraction (clamped to [0,1]) and
// immediately re-evaluates power.
func (n *Node) SetBusyFloor(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	n.BusyFloor = f
	n.updatePower()
}

// Compute submits work DMIPS-seconds to the CPU; done runs on completion.
// The returned handle can cancel the task and stays safe across pooled
// task-record recycling. On a crashed node the work is black-holed: the
// zero (inert) ref is returned and done never runs — recovery belongs to
// the caller's timeout machinery, as with a real dead host.
func (n *Node) Compute(work float64, done func()) sim.PSTaskRef {
	if n.down {
		return sim.PSTaskRef{}
	}
	return n.cpu.Submit(work, done)
}

// ComputeSeconds submits work sized so that it takes roughly seconds of
// single-core time on THIS platform when the CPU is otherwise idle.
func (n *Node) ComputeSeconds(seconds float64, done func()) sim.PSTaskRef {
	if n.down {
		return sim.PSTaskRef{}
	}
	return n.cpu.Submit(seconds*float64(n.Spec.CPU.DMIPS), done)
}

// Power reports instantaneous draw (zero while crashed).
func (n *Node) Power() units.Watts {
	if n.down {
		return 0
	}
	u := n.cpu.Utilization()
	if u < n.BusyFloor {
		u = n.BusyFloor
	}
	return n.power.Draw(u)
}

// Energy reports joules consumed from node creation until now.
func (n *Node) Energy() units.Joules {
	return units.Joules(n.energy.Total(float64(n.eng.Now())))
}

// Utilization reports instantaneous CPU utilization in [0,1].
func (n *Node) Utilization() float64 { return n.cpu.Utilization() }

// AllocMem reserves bytes of RAM, failing when the node would exceed its
// physical capacity — this is what disqualifies an Edison node from running
// the HDFS namenode/YARN resource-manager (§5.2).
func (n *Node) AllocMem(b units.Bytes) error {
	if n.memUsed+b > n.Spec.Mem.Capacity {
		return fmt.Errorf("hw: %s out of memory: used %v + req %v > cap %v",
			n.ID, n.memUsed, b, n.Spec.Mem.Capacity)
	}
	n.memUsed += b
	return nil
}

// FreeMem releases bytes of RAM.
func (n *Node) FreeMem(b units.Bytes) {
	if b > n.memUsed {
		panic(fmt.Sprintf("hw: %s freeing %v with only %v used", n.ID, b, n.memUsed))
	}
	n.memUsed -= b
}

// MemUsed reports currently reserved RAM.
func (n *Node) MemUsed() units.Bytes { return n.memUsed }

// MemUtilization reports reserved/capacity.
func (n *Node) MemUtilization() float64 {
	return float64(n.memUsed) / float64(n.Spec.Mem.Capacity)
}
