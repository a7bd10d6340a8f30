package web

import (
	"fmt"
	"math"
	"slices"

	"edisim/internal/autoscale"
	"edisim/internal/cluster"
	"edisim/internal/faults"
	"edisim/internal/hw"
	"edisim/internal/load"
	"edisim/internal/netsim"
	"edisim/internal/power"
	"edisim/internal/rng"
	"edisim/internal/sim"
	"edisim/internal/stats"
	"edisim/internal/units"
)

// Dataset geometry (§5.1.1): 15 tables, 11 plain and 4 with image blobs.
const (
	numPlainTables = 11
	numImageTables = 4
	rowsPerTable   = 2000
)

// Deployment is one testbed configured as the paper's middle tier: web
// servers and cache servers, on one platform or one each (see Tier), with
// the shared infra-platform database tier and the client machines.
type Deployment struct {
	Eng    *sim.Engine
	Fab    *netsim.Fabric
	Params Params

	// Plat is the web-tier platform; its hw.Platform.Web block carries the
	// per-platform CPU costs and admission rates for the web servers. The
	// DB tier uses the testbed's infra platform instead.
	Plat *hw.Platform
	// CachePlat is the cache-tier platform (same as Plat in the paper's
	// homogeneous middle tiers; tiered deployments may split them).
	CachePlat *hw.Platform

	Web   []*WebServer
	Cache []*CacheServer
	DBs   []*DBServer

	clients []netsim.Vertex // the testbed's client machines

	webNodes, cacheNodes []*hw.Node
	meter                *power.Meter

	rnd struct {
		arrival, table, row, db, class *rng.Source
	}

	// Pooled request, connection and SYN records (see request.go and
	// conn.go).
	reqs  pool[webReq]
	conns pool[webConn]
	tries pool[synTry]

	// run is the current (or last) Run's state. Servers and requests read
	// its overload knobs and book into its Result.
	run *runState
}

// NewDeployment builds a middle tier of nWeb web servers and nCache cache
// servers on platform p's node group of testbed tb, web servers first.
// Tier.Build builds the testbed as well; Table6 lists the paper's tiers.
func NewDeployment(tb *cluster.Testbed, p *hw.Platform, nWeb, nCache int, seed int64) *Deployment {
	return Tier{Web: p, Cache: p, NWeb: nWeb, NCache: nCache}.deploy(tb, seed)
}

// deploy places the tier's servers on testbed tb: NWeb web servers on the
// Web platform's node group and NCache cache servers on the Cache
// platform's. When the platforms coincide both tiers split one node group,
// web servers first.
func (t Tier) deploy(tb *cluster.Testbed, seed int64) *Deployment {
	var webNodes, cacheNodes []*hw.Node
	if t.Web == t.Cache {
		pool := tb.Nodes(t.Web)
		if t.NWeb+t.NCache > len(pool) {
			panic(fmt.Sprintf("web: need %d %s nodes, testbed has %d", t.NWeb+t.NCache, t.Web.Name, len(pool)))
		}
		webNodes, cacheNodes = pool[:t.NWeb], pool[t.NWeb:t.NWeb+t.NCache]
	} else {
		wp, cp := tb.Nodes(t.Web), tb.Nodes(t.Cache)
		if t.NWeb > len(wp) {
			panic(fmt.Sprintf("web: need %d %s web nodes, testbed has %d", t.NWeb, t.Web.Name, len(wp)))
		}
		if t.NCache > len(cp) {
			panic(fmt.Sprintf("web: need %d %s cache nodes, testbed has %d", t.NCache, t.Cache.Name, len(cp)))
		}
		webNodes, cacheNodes = wp[:t.NWeb], cp[:t.NCache]
	}
	if len(tb.DB) == 0 || len(tb.Clients) == 0 {
		panic("web: testbed needs DB servers and clients")
	}
	d := &Deployment{Eng: tb.Eng, Fab: tb.Fab, Params: DefaultParams(), Plat: t.Web, CachePlat: t.Cache,
		webNodes: webNodes, cacheNodes: cacheNodes}
	d.run = &runState{d: d, loadFactor: 1}
	for _, n := range webNodes {
		d.Web = append(d.Web, newWebServer(d, n))
	}
	for _, c := range tb.Clients {
		d.clients = append(d.clients, d.Fab.Vertex(c))
	}
	items := new(store)
	for _, n := range cacheNodes {
		d.Cache = append(d.Cache, newCacheServer(d, n, items))
	}
	for _, n := range tb.DB {
		d.DBs = append(d.DBs, newDBServer(d, n, tb.Infra.Web.DBQueryCPU))
	}
	meterName := t.Web.Label + "-cluster"
	if t.Cache != t.Web {
		meterName = t.Web.Label + "+" + t.Cache.Label + "-tier"
	}
	d.meter = power.NewMeter(meterName, append(append([]*hw.Node(nil), webNodes...), cacheNodes...))
	root := rng.New(seed)
	d.rnd.arrival = root.Derive("web/arrival")
	d.rnd.table = root.Derive("web/table")
	d.rnd.row = root.Derive("web/row")
	d.rnd.db = root.Derive("web/db")
	// Priority-class draws (only consumed under ShedPriority; deriving the
	// substream draws nothing, so healthy runs are untouched).
	d.rnd.class = root.Derive("web/class")
	return d
}

// Roster maps the fault roles "web" and "cache" to the deployment's server
// tiers in ring order, for faults.Schedule.
func (d *Deployment) Roster() map[string][]faults.Target {
	roster := map[string][]faults.Target{}
	for _, w := range d.Web {
		roster["web"] = append(roster["web"], faults.Target{Node: w.Node, Fab: d.Fab})
	}
	for _, c := range d.Cache {
		roster["cache"] = append(roster["cache"], faults.Target{Node: c.Node, Fab: d.Fab})
	}
	return roster
}

// Warm preloads the cache tier so that a hitRatio fraction of uniformly
// drawn rows are resident, emulating the paper's warm-up stage. (Misses
// during the test stage do not insert, as in the paper, so the ratio stays
// fixed.)
func (d *Deployment) Warm(hitRatio float64) {
	if hitRatio < 0 { // ColdCache sentinel: nothing resident
		hitRatio = 0
	}
	resident := int(hitRatio * rowsPerTable)
	for t := 0; t < numPlainTables+numImageTables; t++ {
		size := units.Bytes(plainReplyBytes)
		if t >= numPlainTables {
			size = units.Bytes(imageReplyBytes)
		}
		for r := 0; r < resident; r++ {
			k := key(t, r)
			d.cacheFor(k).Set(k, size)
		}
	}
}

// WarmFor warms the cache tier for the run described by cfg, resolving the
// CacheHit default/sentinel exactly as Run will — use this rather than
// Warm(cfg.CacheHit) so the two paths cannot disagree about what an unset
// field means.
func (d *Deployment) WarmFor(cfg RunConfig) {
	d.Warm(cfg.withDefaults().CacheHit)
}

// DefaultCacheHit is the warmed hit ratio used across the paper's runs
// (§5.1.1), applied when RunConfig.CacheHit is left at its zero value.
const DefaultCacheHit = 0.93

// ColdCache is the RunConfig.CacheHit sentinel for a fully cold cache.
// Because the field's zero value means "use DefaultCacheHit", a literal 0
// cannot express "no hits"; any negative value (use this constant) does.
const ColdCache = -1

// RunConfig drives one httperf measurement (one x-axis point of Figs 4–9).
type RunConfig struct {
	Concurrency  float64 // new TCP connections per second (the x axis)
	CallsPerConn int     // requests per connection (paper tunes this; 8 here)
	ImageFrac    float64 // probability a request hits an image table
	// CacheHit is the warmed cache hit ratio. 0 (unset) means
	// DefaultCacheHit; pass ColdCache (or any negative value) for a
	// genuinely cold cache.
	CacheHit   float64
	Duration   float64 // generation time in simulated seconds
	WarmupFrac float64 // fraction of Duration excluded from measurement

	// Failure recovery; all zero is the paper's healthy client. A positive
	// RequestTimeout arms the recovery stage of the connection state
	// machine: a timer per request attempt whose expiry abandons it and,
	// after capped exponential backoff, retries it against the next live
	// server when the current one is down; an operation that runs out of
	// retries errors. SYNs gain the kernel retransmit timer (one lost to a
	// cut link times out instead of hanging), and new connections steer
	// around dead servers in ring order. The retry limit counts an
	// abandoned attempt twice, so MaxRetries n allows ⌈n/2⌉ retries.
	RequestTimeout float64 // seconds; 0 disables all recovery machinery
	MaxRetries     int     // retry limit; 0 means 3 when enabled
	RetryBase      float64 // first backoff in seconds; 0 means 0.05 when enabled

	// Overload resilience; all zero is off. Profile switches the generator
	// open-loop: connection arrivals follow the profiled rate instead of
	// the closed-loop Concurrency ladder, and keep coming whether or not
	// the servers keep up. Mutually exclusive with Concurrency.
	Profile load.Profile
	// Shed configures server-side admission control (see ShedPolicy).
	Shed ShedPolicy
	// RetryBudget bounds client retries as a fraction of first attempts
	// (token bucket: each first attempt deposits RetryBudget tokens, each
	// retry spends one, burst-capped). 0 leaves retries unbudgeted; it only
	// matters when RequestTimeout arms the retry machinery.
	RetryBudget float64
	// SLO attaches the reactive controller (windowed quantile +
	// availability checks, reserve activation, brownout). Nil = off.
	SLO *SLO
	// Autoscale arms the elasticity engine: a lifecycle manager that
	// grows and shrinks the web tier mid-run under the configured policy,
	// with platform-calibrated boot delays and warm-up penalties (zero
	// knobs resolve from hw.Platform.Boot). Requires SLO (the policy
	// observes the controller's windows) and excludes SLO.Reserve (both
	// would edit the routing rotation). Nil = a fixed fleet.
	Autoscale *autoscale.Config
}

// withDefaults fills unset fields with the values used across the paper
// reproduction, resolves the ColdCache sentinel, and points SLO at a
// resolved copy (the caller's SLO is left as it was).
func (c RunConfig) withDefaults() RunConfig {
	if c.CallsPerConn == 0 {
		c.CallsPerConn = 8
	}
	if c.Duration == 0 {
		c.Duration = 30
	}
	if c.WarmupFrac == 0 {
		c.WarmupFrac = 0.25
	}
	if c.CacheHit == 0 {
		c.CacheHit = DefaultCacheHit
	}
	if c.CacheHit < 0 {
		c.CacheHit = 0
	}
	if c.RequestTimeout > 0 {
		if c.MaxRetries == 0 {
			c.MaxRetries = 3
		}
		if c.RetryBase == 0 {
			c.RetryBase = 0.05
		}
	}
	if c.SLO != nil {
		slo := c.SLO.withDefaults()
		c.SLO = &slo
	}
	return c
}

// badDur rejects the silent-failure values for a duration-like knob: NaN
// would poison every comparison quietly, ±Inf and negatives turn timers into
// never/always. Zero is left to the caller (usually a meaningful default).
func badDur(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) || v < 0 }

// Validate rejects configurations whose zero-ish values would fail silently
// rather than loudly: NaN/Inf anywhere, negative times, rates and counts.
// Run panics on an invalid config; the public API surfaces the error.
func (c RunConfig) Validate() error {
	if c.Profile != nil {
		if err := c.Profile.Validate(); err != nil {
			return err
		}
		if c.Concurrency != 0 {
			return fmt.Errorf("web: set either Concurrency (closed-loop) or Profile (open-loop), not both")
		}
	} else if math.IsNaN(c.Concurrency) || math.IsInf(c.Concurrency, 0) || c.Concurrency <= 0 {
		return fmt.Errorf("web: concurrency %g must be positive and finite", c.Concurrency)
	}
	if c.CallsPerConn < 0 {
		return fmt.Errorf("web: calls per connection %d must be non-negative", c.CallsPerConn)
	}
	if math.IsNaN(c.ImageFrac) || c.ImageFrac < 0 || c.ImageFrac > 1 {
		return fmt.Errorf("web: image fraction %g must be in [0,1]", c.ImageFrac)
	}
	if math.IsNaN(c.CacheHit) || math.IsInf(c.CacheHit, 0) || c.CacheHit > 1 {
		return fmt.Errorf("web: cache hit ratio %g must be finite and at most 1", c.CacheHit)
	}
	if badDur(c.Duration) {
		return fmt.Errorf("web: duration %g must be finite and non-negative", c.Duration)
	}
	if math.IsNaN(c.WarmupFrac) || c.WarmupFrac < 0 || c.WarmupFrac >= 1 {
		return fmt.Errorf("web: warmup fraction %g must be in [0,1)", c.WarmupFrac)
	}
	if badDur(c.RequestTimeout) {
		return fmt.Errorf("web: request timeout %g must be finite and non-negative", c.RequestTimeout)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("web: max retries %d must be non-negative", c.MaxRetries)
	}
	if badDur(c.RetryBase) {
		return fmt.Errorf("web: retry base %g must be finite and non-negative", c.RetryBase)
	}
	if math.IsNaN(c.RetryBudget) || c.RetryBudget < 0 || c.RetryBudget > 1 {
		return fmt.Errorf("web: retry budget %g must be in [0,1]", c.RetryBudget)
	}
	if err := c.Shed.Validate(); err != nil {
		return err
	}
	if err := c.SLO.Validate(); err != nil {
		return err
	}
	if c.Autoscale != nil {
		if c.SLO == nil {
			return fmt.Errorf("web: Autoscale needs an SLO controller (policies observe its windows)")
		}
		if c.SLO.Reserve > 0 {
			return fmt.Errorf("web: Autoscale and SLO.Reserve both edit the routing rotation; use one")
		}
		if err := c.Autoscale.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result is the outcome of one run.
type Result struct {
	// Config is the run's configuration with every default resolved,
	// SLO included.
	Config RunConfig
	// WindowSecs is the measurement window's length in seconds,
	// Duration × (1 − WarmupFrac). Every per-second figure below divides
	// by it; divide an in-window count (Offered, Shed, ...) by it for a
	// rate.
	WindowSecs float64

	Throughput float64 // successful replies per second in the window
	MeanDelay  float64 // mean per-request response time (httperf view): Latency.Mean()
	// ConnDelays digests the per-connection delays of Figs 10–11: SYN
	// retries included, to the first reply or to giving up.
	ConnDelays *stats.Digest

	Errors500    int64
	ConnFailures int64
	ErrorRate    float64 // errored operations / attempted operations

	// Recovery accounting (all zero when RequestTimeout is off). Attempts
	// counts the request transmissions, first attempts plus retries, of the
	// operations that settled inside the window — the same operations as
	// the served and errored counts — so Attempts / (Latency.N() +
	// Errors500) is exactly the retry amplification factor.
	Timeouts int64
	Retries  int64
	Attempts int64

	MeanPower units.Watts  // cluster draw averaged over the window
	Energy    units.Joules // cluster (web + cache) joules over the window
	WebEnergy units.Joules // the web tier's share of Energy
	// EP is the web tier's energy-proportionality score: ideal joules (the
	// offered connections at the platform's ConnRate, at the web nodes'
	// busy draw) over WebEnergy, capped at 1. It is 0 in a closed-loop run.
	EP float64

	// Table 7 decomposition, measured on the web servers.
	DBDelay, CacheDelay, WebTotal stats.Summary

	WebCPU, CacheCPU float64 // mean utilization over the window
	HitRatio         float64

	// Latency digests the in-window response times of served requests:
	// the source of MeanDelay and of every latency quantile.
	Latency *stats.Digest

	// Overload accounting (all zero when the overload knobs are off).
	Offered      int64   // open-loop connection arrivals in the window
	Shed         int64   // operations rejected early by admission control (SYN refusals + request rejections) in the window
	Degraded     int64   // brownout cache-only answers in the window
	RetryDenied  int64   // retries suppressed by the budget in the window
	SLOBreaches  int64   // in-window controller evaluations that burned the SLO
	BrownoutSecs float64 // total time brownout was engaged
	ActivePeak   int     // high-water routing-rotation size (0 unless SLO set)
	// Windows is the SLO controller's time series: one verdict per
	// evaluation, every SLO.Window seconds from run start (nil unless SLO
	// set).
	Windows []SLOWindow

	// Elasticity accounting (all zero unless Autoscale is armed).
	ScaleUps     int64        // servers that joined the rotation by policy decision
	ScaleDowns   int64        // drain-before-park scale-downs started
	Boots        int64        // parked servers powered on
	DrainCancels int64        // drains reclaimed by a scale-up before parking
	BootEnergy   units.Joules // energy burned booting (busy draw × boot time), already inside Energy
	MeanActive   float64      // time-weighted mean serving servers over the window
}

// SLOMet is the fraction of the SLO controller's in-window evaluations
// that did not burn: windows ending in (WarmupFrac·Duration, Duration]. It
// is 1 when no evaluation ended in the window, or when no SLO was set.
func (r Result) SLOMet() float64 {
	from, to := r.Config.WarmupFrac*r.Config.Duration, r.Config.Duration
	wins, burned := 0, 0
	for _, w := range r.Windows {
		if w.T > from && w.T <= to {
			wins++
			if w.Burning {
				burned++
			}
		}
	}
	if wins == 0 {
		return 1
	}
	return 1 - float64(burned)/float64(wins)
}

// PerWatt is the run's goodput per cluster watt (req/s/W), or 0 when no
// power was drawn.
func (r Result) PerWatt() float64 {
	if r.MeanPower <= 0 {
		return 0
	}
	return r.Throughput / float64(r.MeanPower)
}

// runState is one Run's state: the resolved config, the measurement
// window, the Result being filled, and the overload and SLO controller
// state that connections, servers and requests read and write. Servers and
// requests use the deployment's current run (Deployment.run). A connection
// keeps the run that launched it, so a straggler from an earlier run on
// the same deployment books its operations into that run's Result.
type runState struct {
	d   *Deployment
	cfg RunConfig
	res Result

	winStart, winEnd sim.Time
	// recover arms the recovery stage of the connection state machine
	// (RequestTimeout > 0); budgeted adds the retry budget to it.
	recover, budgeted bool
	// Under recovery, the request timeouts and the SYN retransmit timers
	// of each RetryBackoff step. Each has a constant delay, so each is a
	// FIFO lane.
	timeouts  *sim.Lane
	synTimers []*sim.Lane

	served, errored int64
	loadFactor      float64 // scales the servers' admission intervals

	// Connection generator: the round-robin cursor and the open-loop
	// arrival process anchored at origin.
	next            int
	origin          sim.Time
	arr             *load.Arrivals
	genFn, arriveFn func()

	// rotation is the routing rotation: the web servers new connections
	// go to, round-robin, and the ring failover walks. It starts as all of
	// Web; SLO.Reserve holds back its tail, and autoscale edits it.
	rotation []*WebServer

	// Overload resilience (see overload.go): the resolved shedding policy
	// and the CPU cost of one fast-fail rejection, the client retry
	// budget, the brownout flag, and the SLO controller's window digest
	// and counters.
	shed        ShedPolicy
	fastFailCPU float64
	budget      retryBudget
	brownout    bool
	sloDig      *stats.Digest
	ovl         overloadCounters

	// SLO controller (see tick).
	slo                  SLO
	baseActive, healthy  int
	runStart, brownoutAt sim.Time
	tickFn               func()

	// Elasticity (see autoscale.go), nil unless cfg.Autoscale is set: the
	// lifecycle manager and the fleet whose rotation it edits.
	scaler                         *autoscale.Manager
	asPool                         *fleetPool
	asIntegWinStart, asIntegWinEnd float64
}

// inWindow reports whether now falls inside the measurement window.
func (rs *runState) inWindow() bool {
	now := rs.d.Eng.Now()
	return now >= rs.winStart && now <= rs.winEnd
}

// begin starts a run of cfg (already validated and defaulted) on the
// deployment. The overload state is inert at the zero knobs: no extra
// events, no extra RNG draws, identical routing.
func (d *Deployment) begin(cfg RunConfig) *runState {
	now := d.Eng.Now()
	rs := &runState{
		d:        d,
		cfg:      cfg,
		res:      Result{Config: cfg, ConnDelays: stats.NewDigest(), Latency: stats.NewDigest()},
		winStart: now + sim.Time(cfg.Duration*cfg.WarmupFrac),
		winEnd:   now + sim.Time(cfg.Duration),
		recover:  cfg.RequestTimeout > 0,
		budgeted: cfg.RequestTimeout > 0 && cfg.RetryBudget > 0,
		budget:   retryBudget{rate: cfg.RetryBudget, tokens: retryBurst},
		rotation: slices.Clone(d.Web),
		// Threads and ports are held for transfer durations, so admission
		// intervals scale with the run's mean reply size.
		loadFactor: 1 + d.Params.TransferPenaltyPerKB*AvgReplyBytes(cfg.ImageFrac)/1024,
	}
	rs.genFn, rs.arriveFn, rs.tickFn = rs.gen, rs.arrive, rs.tick
	if rs.recover {
		rs.timeouts = d.Eng.NewLane()
		for range d.Params.RetryBackoff {
			rs.synTimers = append(rs.synTimers, d.Eng.NewLane())
		}
	}
	if cfg.Shed.Enabled() {
		rs.shed = cfg.Shed.withDefaults(d.Plat.Web)
		rs.fastFailCPU = rs.shed.FastFailFrac * (d.Plat.Web.BaseCPU + d.Plat.Web.ReplyCPU)
	}
	d.run = rs
	return rs
}

// Run executes one measurement on a fresh traffic epoch. The deployment's
// caches must already be warmed.
func (d *Deployment) Run(cfg RunConfig) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rs := d.begin(cfg.withDefaults())
	cfg = rs.cfg
	eng := d.Eng

	// Elasticity: the lifecycle manager takes over routing through
	// rs.rotation (the SLO tick feeds it windowed signals), parked nodes
	// power off and booting nodes burn busy draw — all inside the same
	// meter, so MeanPower/Energy price provisioning overhead too.
	if cfg.Autoscale != nil {
		rs.armAutoscale()
		eng.At(rs.winStart, func() { rs.asIntegWinStart = rs.scaler.ServingIntegral(rs.winStart) })
		eng.At(rs.winEnd, func() { rs.asIntegWinEnd = rs.scaler.ServingIntegral(rs.winEnd) })
	}

	// Window power accounting: the meter lists the web nodes first, so one
	// pass reads the web tier's joules on the way to the cluster's.
	eng.At(rs.winStart, func() { d.meter.Reset() })
	eng.At(rs.winEnd, func() { rs.res.WebEnergy, rs.res.Energy = d.meter.EnergySplit(len(d.webNodes)) })
	// Integrate tier utilizations over the window for the §5.1.2 CPU
	// numbers. Tracking is change-driven (hw.Node.SubscribeUtil), so heavy
	// runs do not pay for a polling timer and the means are exact.
	webUtil := trackMeanUtil(eng, d.webNodes, rs.winStart, rs.winEnd)
	cacheUtil := trackMeanUtil(eng, d.cacheNodes, rs.winStart, rs.winEnd)
	defer webUtil.detach()
	defer cacheUtil.detach()

	if cfg.SLO != nil {
		rs.armSLO()
	}

	// Connection generator: Poisson arrivals at Concurrency conn/s (closed
	// loop), or the profiled arrival process (open loop), spread over the
	// client machines.
	if cfg.Profile != nil {
		rs.arr = load.NewArrivals(cfg.Profile, d.rnd.arrival, cfg.Duration)
		rs.origin = eng.Now()
		rs.pump()
	} else {
		eng.After(d.rnd.arrival.Exp(1/cfg.Concurrency), rs.genFn)
	}

	// Run to completion: generation stops at Duration, stragglers drain.
	eng.RunUntil(rs.winEnd + sim.Time(20))
	return rs.finish(webUtil, cacheUtil)
}

// gen is the closed-loop generator: one connection now, the next after an
// exponential gap, until the window (and generation) ends at Duration.
func (rs *runState) gen() {
	eng := rs.d.Eng
	if eng.Now() >= rs.winEnd {
		return
	}
	rs.fire()
	eng.After(rs.d.rnd.arrival.Exp(1/rs.cfg.Concurrency), rs.genFn)
}

// pump schedules the next open-loop arrival. The profiled process fires
// connections at absolute instants regardless of how the fleet is doing —
// the client population does not wait for responses.
func (rs *runState) pump() {
	at, ok := rs.arr.Next()
	if !ok {
		return
	}
	rs.d.Eng.At(rs.origin+sim.Time(at), rs.arriveFn)
}

func (rs *runState) arrive() {
	if rs.inWindow() {
		rs.res.Offered++
	}
	rs.fire()
	rs.pump()
}

// fire starts one connection from the next client at the next web server
// in the routing rotation, round-robin as HAProxy does. Under recovery the
// balancer health-checks: a connection aimed at a dead server is steered to
// the next live one in the rotation's ring order.
func (rs *runState) fire() {
	d := rs.d
	client := d.clients[rs.next%len(d.clients)]
	rs.ovl.winArr++
	w := rs.rotation[rs.next%len(rs.rotation)]
	rs.next++
	if rs.recover {
		w = d.steer(w)
	}
	rs.launch(client, w)
}

// armSLO starts the SLO controller: a tick every Window seconds. A reserve
// truncates the rotation, holding back the tail of Web.
func (rs *runState) armSLO() {
	d := rs.d
	rs.slo = *rs.cfg.SLO
	if rs.slo.Reserve > 0 {
		rs.rotation = rs.rotation[:max(1, len(d.Web)-rs.slo.Reserve)]
	}
	rs.baseActive = len(rs.rotation)
	rs.sloDig = stats.NewDigest()
	rs.res.ActivePeak = len(rs.rotation)
	rs.runStart = d.Eng.Now()
	d.Eng.After(rs.slo.Window, rs.tickFn)
}

// tick judges the controller window's quantile and availability, reacts
// while the SLO burns (activate a reserve server, engage brownout, or hand
// the signals to the autoscale policy), and winds back after two
// consecutive healthy windows.
func (rs *runState) tick() {
	d, slo, res := rs.d, &rs.slo, &rs.res
	now := d.Eng.Now()
	q := rs.sloDig.Quantile(slo.Percentile)
	avail := 1.0
	if rs.ovl.winOps > 0 {
		avail = float64(rs.ovl.winServed) / float64(rs.ovl.winOps)
	}
	burning := (rs.sloDig.N() > 0 && q > slo.Latency) ||
		(rs.ovl.winOps > 0 && slo.Availability > 0 && avail < slo.Availability)
	if burning {
		rs.healthy = 0
		if rs.inWindow() {
			res.SLOBreaches++
		}
		if slo.Reserve > 0 && len(rs.rotation) < len(d.Web) {
			rs.rotation = append(rs.rotation, d.Web[len(rs.rotation)])
		}
		if slo.Brownout && !rs.brownout {
			rs.brownout = true
			rs.brownoutAt = now
		}
	} else {
		rs.healthy++
		if rs.healthy >= 2 {
			if rs.brownout {
				rs.brownout = false
				res.BrownoutSecs += float64(now - rs.brownoutAt)
			}
			if slo.Reserve > 0 && len(rs.rotation) > rs.baseActive {
				rs.rotation = rs.rotation[:len(rs.rotation)-1]
			}
		}
	}
	if rs.scaler != nil {
		// Autoscale replaces the reserve reaction above: the policy sees
		// this window's signals and the manager moves servers through
		// boot/drain/park around them.
		util, queue := rs.asPool.window(now, slo.Window)
		rs.scaler.Observe(autoscale.Signals{
			T:            float64(now - rs.runStart),
			Util:         util,
			Queue:        queue,
			ShedRate:     float64(rs.ovl.winShed) / slo.Window,
			ArrivalRate:  float64(rs.ovl.winArr) / slo.Window,
			Quantile:     q,
			Availability: avail,
			Burning:      burning,
		})
	}
	activeNow := len(rs.rotation)
	if activeNow > res.ActivePeak {
		res.ActivePeak = activeNow
	}
	res.Windows = append(res.Windows, SLOWindow{
		T:            float64(now - rs.runStart),
		Served:       rs.ovl.winServed,
		Ops:          rs.ovl.winOps,
		Shed:         rs.ovl.winShed,
		Quantile:     q,
		Availability: avail,
		Burning:      burning,
		Brownout:     rs.brownout,
		Active:       activeNow,
	})
	rs.sloDig.Reset()
	rs.ovl.winServed, rs.ovl.winOps, rs.ovl.winShed, rs.ovl.winArr = 0, 0, 0, 0
	if now < rs.winEnd {
		d.Eng.After(slo.Window, rs.tickFn)
	} else if rs.brownout {
		// Close the books on a brownout still engaged at run end.
		rs.brownout = false
		res.BrownoutSecs += float64(now - rs.brownoutAt)
	}
}

// finish derives the Result's window figures once the run has drained and
// resets the deployment's per-run state.
func (rs *runState) finish(webUtil, cacheUtil *utilTracker) Result {
	d, res := rs.d, &rs.res
	window := float64(rs.winEnd - rs.winStart)
	res.WindowSecs = window
	res.Throughput = float64(rs.served) / window
	res.MeanDelay = res.Latency.Mean()
	res.Errors500 = rs.errored
	if total := rs.served + rs.errored + res.ConnFailures; total > 0 {
		res.ErrorRate = float64(rs.errored+res.ConnFailures) / float64(total)
	}
	res.MeanPower = units.Watts(float64(res.Energy) / window)
	// Boot burn and the EP score's ideal joules are priced at the busy draw
	// of whatever power model the web nodes actually run (the cluster
	// builder may have armed a non-default one).
	busy := d.Plat.Spec.Power.BusyDraw()
	if len(d.Web) > 0 {
		busy = d.Web[0].Node.PowerModel().BusyDraw()
	}
	if res.Offered > 0 && res.WebEnergy > 0 {
		res.EP = min(1, float64(res.Offered)/d.Plat.Web.ConnRate*float64(busy)/float64(res.WebEnergy))
	}
	res.WebCPU = webUtil.mean()
	res.CacheCPU = cacheUtil.mean()
	var gets, hits int64
	for _, c := range d.Cache {
		gets += c.gets
		hits += c.hits
	}
	if gets > 0 {
		res.HitRatio = float64(hits) / float64(gets)
	}
	if rs.scaler != nil {
		st := rs.scaler.Stats()
		res.ScaleUps = st.ScaleUps
		res.ScaleDowns = st.ScaleDowns
		res.Boots = st.Boots
		res.DrainCancels = st.DrainCancels
		res.BootEnergy = units.Joules(st.BootSecs * float64(busy))
		res.MeanActive = (rs.asIntegWinEnd - rs.asIntegWinStart) / window
		rs.teardownAutoscale()
	}
	return *res
}

// nextLive returns the first web server after w in the routing rotation's
// ring order whose node is up, or nil when every server in the rotation is
// down. Ring order keeps failover deterministic and spreads a dead server's
// inherited load evenly. Walking the rotation, not all of Web, keeps
// failover off servers that are not serving: an SLO reserve still held
// back, or an autoscaled server that is booting or parked (Up, but not
// serving).
func (d *Deployment) nextLive(w *WebServer) *WebServer {
	ring := d.run.rotation
	start := 0
	for i, s := range ring {
		if s == w {
			start = i
			break
		}
	}
	for k := 1; k <= len(ring); k++ {
		if s := ring[(start+k)%len(ring)]; s.Node.Up() {
			return s
		}
	}
	return nil
}

// steer returns w, or the next live server when w is down (w itself when
// the whole tier is).
func (d *Deployment) steer(w *WebServer) *WebServer {
	if !w.Node.Up() {
		if nl := d.nextLive(w); nl != nil {
			return nl
		}
	}
	return w
}

// utilTracker integrates the CPU utilization of each node of a set over
// a window. It subscribes to per-node utilization changes instead of
// sampling on a timer: the integral is exact and no events are added to
// the engine beyond the single window-start anchor.
type utilTracker struct {
	integs           []*stats.Integrator // one per node: exact and O(1) per change
	cancels          []func()
	winStart, winEnd float64
}

// trackMeanUtil attaches a tracker to the nodes for the window
// [winStart, winEnd]. Call detach after the run to unhook the callbacks.
func trackMeanUtil(eng *sim.Engine, nodes []*hw.Node, winStart, winEnd sim.Time) *utilTracker {
	tr := &utilTracker{integs: make([]*stats.Integrator, len(nodes)), winStart: float64(winStart), winEnd: float64(winEnd)}
	for i, n := range nodes {
		tr.integs[i] = stats.NewIntegrator(tr.winStart, 0)
		tr.cancels = append(tr.cancels, n.SubscribeUtil(func(u float64) {
			tr.set(i, u, float64(eng.Now()))
		}))
	}
	// Anchor each integrand at window start with whatever is running then.
	eng.At(winStart, func() {
		for i, n := range nodes {
			tr.set(i, n.Utilization(), tr.winStart)
		}
	})
	return tr
}

// set updates one node's integrand, clamped to the measurement window.
// Changes before winStart are ignored — the window-start anchor reads the
// live utilization then — and changes after winEnd no longer matter.
func (tr *utilTracker) set(i int, u, now float64) {
	if now < tr.winStart || now > tr.winEnd {
		return
	}
	tr.integs[i].Set(now, u)
}

// mean reports the time-weighted mean utilization across the node set over
// the window: Σ per-node integrals / (nodes × window).
func (tr *utilTracker) mean() float64 {
	window := tr.winEnd - tr.winStart
	if window <= 0 || len(tr.integs) == 0 {
		return 0
	}
	var total float64
	for _, in := range tr.integs {
		total += in.Total(tr.winEnd)
	}
	return total / (float64(len(tr.integs)) * window)
}

// detach unhooks the tracker's own subscriptions (other observers on the
// same nodes are untouched).
func (tr *utilTracker) detach() {
	for _, cancel := range tr.cancels {
		cancel()
	}
}
