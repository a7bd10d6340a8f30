package web

import (
	"fmt"
	"math"

	"edisim/internal/autoscale"
	"edisim/internal/sim"
)

// This file adapts a Deployment's web tier onto the autoscale.Pool
// contract. When RunConfig.Autoscale arms the elasticity engine, the
// lifecycle manager edits the run's routing rotation; parked nodes are
// powered off (hw.Node.PowerDown, zero draw), booting nodes burn busy power
// for the platform's boot delay, and freshly joined nodes run at the
// platform's warm-up factor until their caches are hot. With Autoscale nil
// none of this code runs.

// fleetPool is the autoscale.Pool over a deployment's web servers. It
// snapshots each node's busy floor and straggler factor at construction so
// boot-burn and warm-up overrides can be unwound, both per transition and
// at run teardown (deployments are reusable).
type fleetPool struct {
	rs         *runState // the run whose rotation the pool edits
	inRot      []bool
	savedFloor []float64
	savedSlow  []float64
	// util integrates each web node's utilization from arming on; window
	// reads it against prevUtil.
	util     *utilTracker
	prevUtil []float64
}

func newFleetPool(rs *runState) *fleetPool {
	d := rs.d
	p := &fleetPool{
		rs:         rs,
		inRot:      make([]bool, len(d.Web)),
		savedFloor: make([]float64, len(d.Web)),
		savedSlow:  make([]float64, len(d.Web)),
		prevUtil:   make([]float64, len(d.Web)),
	}
	for i, w := range d.Web {
		p.savedFloor[i] = w.Node.BusyFloor
		p.savedSlow[i] = w.Node.SlowFactor()
	}
	return p
}

func (p *fleetPool) Len() int { return len(p.rs.d.Web) }

func (p *fleetPool) Join(i int) {
	if p.inRot[i] {
		return
	}
	w := p.rs.d.Web[i]
	w.Node.SetBusyFloor(p.savedFloor[i]) // boot burn off
	p.rs.rotation = append(p.rs.rotation, w)
	p.inRot[i] = true
}

func (p *fleetPool) Leave(i int) {
	if !p.inRot[i] {
		return
	}
	w := p.rs.d.Web[i]
	rot := p.rs.rotation
	for j, s := range rot {
		if s == w {
			p.rs.rotation = append(rot[:j], rot[j+1:]...)
			break
		}
	}
	p.inRot[i] = false
}

func (p *fleetPool) Busy(i int) bool {
	w := p.rs.d.Web[i]
	w.syncIncarnation()
	return w.pendingSyn > 0 || w.activeConns > 0 || w.inflight > 0
}

// PowerOn boots the node: powered (PowerUp revives a parked node) and
// drawing full busy power for the boot's duration — firmware, kernel and
// service start-up peg the package — but not serving yet.
func (p *fleetPool) PowerOn(i int) {
	n := p.rs.d.Web[i].Node
	n.PowerUp()
	n.SetBusyFloor(1)
}

// PowerOff parks the drained node at zero draw. The manager's drain
// contract means nothing is in flight; a busy park would silently kill
// requests, so it fails loudly instead.
func (p *fleetPool) PowerOff(i int) {
	if p.Busy(i) {
		panic(fmt.Sprintf("web: autoscale parked busy server %s", p.rs.d.Web[i].Node.ID))
	}
	n := p.rs.d.Web[i].Node
	n.SetBusyFloor(p.savedFloor[i])
	n.PowerDown()
}

// SetSpeed applies the warm-up penalty on top of whatever straggler factor
// the node carried at run start; factor 1 restores that baseline.
func (p *fleetPool) SetSpeed(i int, factor float64) {
	p.rs.d.Web[i].Node.SetSlowFactor(p.savedSlow[i] * factor)
}

// restore unwinds every autoscale override so the deployment is reusable:
// parked nodes are re-powered, busy floors and straggler factors return to
// their run-start values, and the rotation is dropped.
func (p *fleetPool) restore() {
	for i, w := range p.rs.d.Web {
		n := w.Node
		if n.Parked() {
			n.PowerUp()
		}
		n.SetBusyFloor(p.savedFloor[i])
		n.SetSlowFactor(p.savedSlow[i])
	}
	p.rs.rotation = nil
	for i := range p.inRot {
		p.inRot[i] = false
	}
}

// window reports the mean utilization and mean in-flight depth across the
// current rotation for the window of the given length ending now, then
// advances every node's baseline to now. The policy gets a windowed mean
// because instantaneous utilization of a few-core micro server is far too
// noisy to size a fleet on.
func (p *fleetPool) window(now sim.Time, window float64) (util, queue float64) {
	n := 0
	for i, w := range p.rs.d.Web {
		tot := p.util.integs[i].Total(float64(now))
		if p.inRot[i] {
			util += (tot - p.prevUtil[i]) / window
			queue += float64(w.inflight)
			n++
		}
		p.prevUtil[i] = tot
	}
	if n > 0 {
		util /= float64(n)
		queue /= float64(n)
	}
	return util, queue
}

// armAutoscale resolves platform defaults into the run's Autoscale config,
// binds the policy's capacity thresholds and starts the lifecycle manager
// over the web tier. Run must call teardownAutoscale when the run ends.
func (rs *runState) armAutoscale() {
	d := rs.d
	ac := *rs.cfg.Autoscale
	if ac.BootDelay == 0 {
		ac.BootDelay = d.Plat.Boot.Delay
	}
	if ac.Warmup == 0 {
		ac.Warmup = d.Plat.Boot.Warmup
	}
	if ac.WarmupFactor == 0 {
		ac.WarmupFactor = d.Plat.Boot.WarmupFactor
	}
	ac.Policy = autoscale.Bind(ac.Policy, autoscale.Capacity{
		ConnRate:    d.Plat.Web.ConnRate,
		MaxInflight: d.Plat.Web.MaxInflight,
	})
	pool := newFleetPool(rs)
	rs.rotation = nil
	mgr, err := autoscale.NewManager(d.Eng, pool, ac)
	if err != nil {
		// Config.Validate ran in RunConfig.Validate; what reaches here is a
		// pool-shape mismatch (e.g. MinServing above the tier size), which
		// is a caller bug exactly like an invalid RunConfig.
		panic(err)
	}
	rs.scaler, rs.asPool = mgr, pool
	pool.util = trackMeanUtil(d.Eng, d.webNodes, d.Eng.Now(), sim.Time(math.Inf(1)))
}

// teardownAutoscale stops the manager (pending timers become no-ops) and
// restores every node override so the deployment can run again.
func (rs *runState) teardownAutoscale() {
	rs.scaler.Halt()
	rs.asPool.util.detach()
	rs.asPool.restore()
	rs.scaler = nil
}
