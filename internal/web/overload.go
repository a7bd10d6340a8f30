package web

import (
	"fmt"
	"math"

	"edisim/internal/hw"
	"edisim/internal/sim"
)

// This file is the overload-resilience layer: server-side admission
// control (ShedPolicy), client-side retry budgets, and the SLO controller's
// configuration and accounting (the controller itself is runState.tick).
// All of it is opt-in: at the zero knobs no shed check, budget or
// controller tick runs, so nothing is scheduled or drawn on their behalf.

// ShedMode selects the admission-control policy a web server applies
// before committing a worker thread to a request.
type ShedMode string

const (
	// ShedOff disables admission control (the paper's behavior: requests
	// queue until the server-side 2 s worker wait trips a 500).
	ShedOff ShedMode = ""
	// ShedDropTail rejects once the admitted-but-unfinished count reaches
	// Queue — a bounded listen queue.
	ShedDropTail ShedMode = "drop"
	// ShedDeadline rejects a request whose estimated wait for a worker
	// thread already exceeds Deadline — early rejection of work that would
	// blow its latency budget anyway, the cheapest time to fail.
	ShedDeadline ShedMode = "deadline"
	// ShedPriority tags a LowFrac fraction of requests as low-priority
	// (crawler/batch class) and sheds those at half the Queue bound,
	// keeping headroom for interactive traffic.
	ShedPriority ShedMode = "priority"
)

// ShedPolicy bounds what a web server accepts under overload. A rejection
// is a fast-fail 503: it burns FastFailFrac of a full request's CPU and
// returns a short reply, so shedding is cheap but not free. Rejections are
// final from the client's view (a 503 carries Retry-After; the simulated
// clients honor it by not retrying), so shedding never feeds the retry
// path.
type ShedPolicy struct {
	Mode ShedMode
	// Queue bounds the per-server admitted-but-unfinished request count
	// (default: the platform's MaxInflight).
	Queue int
	// Deadline is the estimated-wait bound for ShedDeadline, seconds
	// (default 1).
	Deadline float64
	// LowFrac is the fraction of traffic tagged low-priority under
	// ShedPriority (default 0.2).
	LowFrac float64
	// FastFailFrac is a rejection's CPU cost as a fraction of the
	// platform's BaseCPU+ReplyCPU service cost (default 0.1).
	FastFailFrac float64
}

// Enabled reports whether any admission control is configured.
func (p ShedPolicy) Enabled() bool { return p.Mode != ShedOff }

// withDefaults resolves unset knobs against the web tier's calibration.
func (p ShedPolicy) withDefaults(costs hw.WebCosts) ShedPolicy {
	if p.Queue == 0 {
		p.Queue = costs.MaxInflight
	}
	if p.Deadline == 0 {
		p.Deadline = 1
	}
	if p.LowFrac == 0 {
		p.LowFrac = 0.2
	}
	if p.FastFailFrac == 0 {
		p.FastFailFrac = 0.1
	}
	return p
}

// Validate rejects policies whose values would fail silently.
func (p ShedPolicy) Validate() error {
	switch p.Mode {
	case ShedOff, ShedDropTail, ShedDeadline, ShedPriority:
	default:
		return fmt.Errorf("web: unknown shed mode %q (want %q, %q or %q)", p.Mode, ShedDropTail, ShedDeadline, ShedPriority)
	}
	if p.Queue < 0 {
		return fmt.Errorf("web: shed queue %d must be non-negative", p.Queue)
	}
	if badDur(p.Deadline) {
		return fmt.Errorf("web: shed deadline %g must be finite and non-negative", p.Deadline)
	}
	if math.IsNaN(p.LowFrac) || p.LowFrac < 0 || p.LowFrac > 1 {
		return fmt.Errorf("web: shed low-priority fraction %g must be in [0,1]", p.LowFrac)
	}
	if math.IsNaN(p.FastFailFrac) || p.FastFailFrac < 0 || p.FastFailFrac > 1 {
		return fmt.Errorf("web: fast-fail fraction %g must be in [0,1]", p.FastFailFrac)
	}
	return nil
}

// refuseConn reports whether admission control refuses an arriving SYN
// outright (TCP RST). A refused client fails fast instead of entering the
// kernel retransmit schedule, which keeps the backlog out of the
// port-churn thrash region — without this, a sustained spike past the
// accept rate halves the accept rate exactly when it is needed most (the
// metastable collapse this layer exists to prevent). Down nodes are left
// to the normal drop/timeout path so crash accounting is unchanged.
func (w *WebServer) refuseConn() bool {
	p := &w.dep.run.shed
	if p.Mode == ShedOff {
		return false
	}
	w.syncIncarnation()
	if !w.Node.Up() {
		return false
	}
	// The thrash threshold is the hard ceiling for every mode: beyond it
	// accepting slows down and refusing is strictly better.
	limit := w.dep.Params.SynBacklog / 2
	switch p.Mode {
	case ShedDeadline:
		// Refuse when the backlog ahead already implies an accept wait
		// past the deadline.
		if float64(w.pendingSyn)*w.connInterval() > p.Deadline {
			return true
		}
	case ShedPriority:
		if w.dep.rnd.class.Bool(p.LowFrac) {
			limit /= 2
		}
	}
	return w.pendingSyn >= limit
}

// shouldShed applies the configured admission policy to a request arriving
// at w. Down nodes are left to admitRequest's 500 path so crash accounting
// is unchanged by shedding.
func (w *WebServer) shouldShed() bool {
	w.syncIncarnation()
	if !w.Node.Up() {
		return false
	}
	p := &w.dep.run.shed
	switch p.Mode {
	case ShedDropTail:
		return w.inflight >= p.Queue
	case ShedPriority:
		limit := p.Queue
		if w.dep.rnd.class.Bool(p.LowFrac) {
			limit = (limit + 1) / 2
		}
		return w.inflight >= limit
	case ShedDeadline:
		eng := w.dep.Eng
		at := eng.Now()
		if prev := w.lastReq + sim.Time(w.dep.run.loadFactor/w.costs().ReqRate); prev > at {
			at = prev
		}
		return float64(at-eng.Now()) > p.Deadline
	}
	return false
}

// SLO is a service-level objective plus the reactive controller that
// defends it. Every Window seconds the controller evaluates the window's
// latency quantile and availability; while the SLO burns it activates
// reserve web servers (one per window) and, when Brownout is set, degrades
// cache misses to cheap stale answers instead of DB trips. Two consecutive
// healthy windows wind the reaction back (hysteresis).
type SLO struct {
	// Latency is the response-time target in seconds at Percentile
	// (default percentile 0.99).
	Latency    float64
	Percentile float64
	// Availability is the floor on served/attempted per window; 0 disables
	// the availability clause.
	Availability float64
	// Window is the controller period in seconds (default 1).
	Window float64
	// Brownout enables degraded cache-only answers while burning.
	Brownout bool
	// Reserve holds back this many web servers (the tail of the tier) from
	// the routing rotation at run start; the controller activates them one
	// per burning window and holds them back again after two healthy ones.
	// Failover stays inside the rotation: a held-back server takes no
	// traffic, not even a dead server's.
	Reserve int
}

// SLOWindow is one controller evaluation, T seconds after run start; a
// run's verdicts are its Result.Windows.
type SLOWindow struct {
	T            float64
	Served       int64 // operations completed OK in this window
	Ops          int64 // operations settled in this window (incl. failures)
	Shed         int64 // requests rejected by admission control
	Quantile     float64
	Availability float64
	Burning      bool
	Brownout     bool
	Active       int // web servers in the routing rotation after reacting
}

// withDefaults resolves unset SLO knobs.
func (s SLO) withDefaults() SLO {
	if s.Percentile == 0 {
		s.Percentile = 0.99
	}
	if s.Window == 0 {
		s.Window = 1
	}
	return s
}

// Validate rejects SLOs whose values would fail silently. A nil SLO is
// valid (no controller).
func (s *SLO) Validate() error {
	if s == nil {
		return nil
	}
	if math.IsNaN(s.Latency) || math.IsInf(s.Latency, 0) || s.Latency <= 0 {
		return fmt.Errorf("web: SLO latency target %g must be positive and finite", s.Latency)
	}
	if math.IsNaN(s.Percentile) || s.Percentile < 0 || s.Percentile >= 1 {
		return fmt.Errorf("web: SLO percentile %g must be in [0,1)", s.Percentile)
	}
	if math.IsNaN(s.Availability) || s.Availability < 0 || s.Availability > 1 {
		return fmt.Errorf("web: SLO availability floor %g must be in [0,1]", s.Availability)
	}
	if math.IsNaN(s.Window) || math.IsInf(s.Window, 0) || s.Window < 0 {
		return fmt.Errorf("web: SLO window %g must be finite and non-negative", s.Window)
	}
	if s.Reserve < 0 {
		return fmt.Errorf("web: SLO reserve %d must be non-negative", s.Reserve)
	}
	return nil
}

// retryBurst caps the retry-budget token balance: after a long quiet
// stretch at most this many retries can fire back-to-back.
const retryBurst = 10

// retryBudget is a Finagle-style token bucket bounding client retries
// fleet-wide: every first attempt deposits rate tokens (e.g. 0.1), every
// retry spends one, so retries are capped at roughly rate × traffic plus
// the burst allowance — a crash under peak load degrades instead of
// amplifying into a storm.
type retryBudget struct {
	rate   float64
	tokens float64
}

func (b *retryBudget) deposit() {
	b.tokens += b.rate
	if b.tokens > retryBurst {
		b.tokens = retryBurst
	}
}

func (b *retryBudget) spend() bool {
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// overloadCounters are the SLO controller's per-evaluation-window
// counters, reset every tick.
type overloadCounters struct {
	winServed, winOps, winShed int64
	// winArr counts the connections fired per controller window, closed
	// and open loop alike; the autoscale policies read it as the arrival
	// rate.
	winArr int64
}

// noteShed records one rejected request (run total gated to the
// measurement window; controller window always).
func (d *Deployment) noteShed() {
	d.run.ovl.winShed++
	if d.run.inWindow() {
		d.run.res.Shed++
	}
}

// noteDegraded records one brownout cache-only answer.
func (d *Deployment) noteDegraded() {
	if d.run.inWindow() {
		d.run.res.Degraded++
	}
}

// noteSettled feeds the SLO controller's current window: every settled
// operation counts toward availability, successful ones contribute their
// latency to the window digest.
func (d *Deployment) noteSettled(ok bool, delay float64) {
	d.run.ovl.winOps++
	if ok {
		d.run.ovl.winServed++
		if d.run.sloDig != nil {
			d.run.sloDig.Add(delay)
		}
	}
}
