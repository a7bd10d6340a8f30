package web

import (
	"math"
	"testing"

	"edisim/internal/faults"
	"edisim/internal/load"
)

// The 6-server micro web tier accepts ~45 conn/s per server, so ~270 conn/s
// is its connection capacity; the drills below size their profiles off it.
const microTierCap = 270.0

func TestOpenLoopSteadyMatchesOffered(t *testing.T) {
	d := smallDeployment(t, microP(), 6, 3)
	rate := 120.0 // well under capacity
	r := d.Run(RunConfig{Profile: load.Steady{Rate: rate}, Duration: 20, WarmupFrac: 0.1})
	window := 18.0
	wantConns := rate * window
	if math.Abs(float64(r.Offered)-wantConns) > 4*math.Sqrt(wantConns) {
		t.Fatalf("offered %d conns, want ≈%v", r.Offered, wantConns)
	}
	// Every offered conn carries 8 calls; under capacity goodput tracks it.
	wantTp := rate * 8
	if r.Throughput < 0.9*wantTp || r.Throughput > 1.1*wantTp {
		t.Fatalf("throughput %.0f, want ≈%v", r.Throughput, wantTp)
	}
	if r.Latency.N() == 0 {
		t.Fatal("latency digest empty on an open-loop run")
	}
	if r.MeanDelay <= 0 {
		t.Fatalf("mean delay %v must come from the digest", r.MeanDelay)
	}
}

// The same open-loop overload scenario must replay identically: the whole
// drill is a deterministic function of (config, seed).
func TestOpenLoopRunDeterministic(t *testing.T) {
	run := func() Result {
		d := smallDeployment(t, microP(), 6, 3)
		faults.Schedule(d.Eng, faults.RollingCrashes("web", 2, 8, 0.5, 2), 1, d.Roster())
		return d.Run(RunConfig{
			Profile:  load.Spike{Base: 120, Peak: 600, Start: 6, Duration: 6},
			Duration: 20, WarmupFrac: 0.1,
			RequestTimeout: 0.25, RetryBudget: 0.1,
			Shed: ShedPolicy{Mode: ShedDeadline, Deadline: 0.5},
			SLO:  &SLO{Latency: 0.5, Window: 1},
		})
	}
	a, b := run(), run()
	if a.Throughput != b.Throughput || a.Offered != b.Offered || a.Shed != b.Shed ||
		a.Retries != b.Retries || a.RetryDenied != b.RetryDenied ||
		a.Attempts != b.Attempts || a.SLOBreaches != b.SLOBreaches ||
		a.Latency.Quantile(0.999) != b.Latency.Quantile(0.999) {
		t.Fatalf("open-loop drill not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

// TestShedPreventsAcceptThrash: at 3× connection capacity the unshed tier
// collapses — the SYN backlog crosses the port-churn thrash region and the
// accept rate halves exactly when it is needed most. Deadline shedding
// refuses the excess with cheap RSTs, keeps accepts at full rate, and
// keeps the served tail bounded.
func TestShedPreventsAcceptThrash(t *testing.T) {
	over := load.Steady{Rate: 3 * microTierCap}
	noShed := smallDeployment(t, microP(), 6, 3).Run(RunConfig{
		Profile: over, Duration: 10, WarmupFrac: 0.1,
	})
	shed := smallDeployment(t, microP(), 6, 3).Run(RunConfig{
		Profile: over, Duration: 10, WarmupFrac: 0.1,
		Shed: ShedPolicy{Mode: ShedDeadline, Deadline: 0.5},
	})
	if shed.Shed == 0 {
		t.Fatal("deadline shedding at 3× capacity rejected nothing")
	}
	// Goodput under shedding must beat the thrashing baseline decisively.
	if shed.Throughput < 1.3*noShed.Throughput {
		t.Fatalf("shed goodput %.0f/s does not beat the thrash collapse %.0f/s", shed.Throughput, noShed.Throughput)
	}
	if p99 := shed.Latency.Quantile(0.99); p99 > 0.5 {
		t.Fatalf("shed p99 %.3fs, want bounded under overload", p99)
	}
}

func TestShedPriorityKeepsInteractive(t *testing.T) {
	over := load.Steady{Rate: 3 * microTierCap}
	r := smallDeployment(t, microP(), 6, 3).Run(RunConfig{
		Profile: over, Duration: 10, WarmupFrac: 0.1,
		Shed: ShedPolicy{Mode: ShedPriority, Queue: 32, LowFrac: 0.3},
	})
	if r.Shed == 0 {
		t.Fatal("priority shedding at 3× capacity rejected nothing")
	}
	if r.Throughput == 0 {
		t.Fatal("priority shedding starved all traffic")
	}
}

// TestOverloadCrashDrill is the PR's acceptance pin: a spike at ≥2×
// capacity with a mid-spike rolling crash, retry budgets and shedding on.
// The fleet must degrade, recover, and never collapse: goodput in every
// phase stays ≥80% of the pre-spike level, p999 stays bounded by the
// timeout discipline, shed is reported, and retries never exceed the
// budget.
func TestOverloadCrashDrill(t *testing.T) {
	d := smallDeployment(t, microP(), 6, 3)
	faults.Schedule(d.Eng, faults.RollingCrashes("web", 2, 7, 0.5, 2), 1, d.Roster())
	r := d.Run(RunConfig{
		// Base at ~0.44× capacity, spike to ~2.2× during [6s, 12s); two of
		// six servers crash at 7s/7.5s and reboot ~2s later — failure at
		// the worst moment.
		Profile:  load.Spike{Base: 120, Peak: 600, Start: 6, Duration: 6},
		Duration: 20, WarmupFrac: 0.1,
		RequestTimeout: 0.25, RetryBudget: 0.1,
		Shed: ShedPolicy{Mode: ShedDeadline, Deadline: 0.5},
		SLO:  &SLO{Latency: 0.5, Window: 1},
	})
	wins := r.Windows

	// Phase goodput from the controller windows (T is the window end).
	phase := func(from, to float64) float64 {
		var served int64
		n := 0
		for _, w := range wins {
			if w.T > from && w.T <= to {
				served += w.Served
				n++
			}
		}
		if n == 0 {
			t.Fatalf("no controller windows in (%v,%v]", from, to)
		}
		return float64(served) / float64(n)
	}
	pre := phase(2, 6)
	during := phase(7, 12)
	post := phase(15, 20)
	if pre <= 0 {
		t.Fatal("no pre-spike goodput")
	}
	if during < 0.8*pre {
		t.Fatalf("goodput during spike+crash %.0f/s fell below 80%% of pre-spike %.0f/s", during, pre)
	}
	if post < 0.8*pre {
		t.Fatalf("goodput after recovery %.0f/s fell below 80%% of pre-spike %.0f/s", post, pre)
	}

	// p999 bounded by the timeout discipline: at most 1+MaxRetries
	// attempts of RequestTimeout each plus backoffs — nowhere near the
	// unbounded queueing a collapse produces.
	p999 := r.Latency.Quantile(0.999)
	if math.IsNaN(p999) || math.IsInf(p999, 0) || p999 <= 0 || p999 > 3 {
		t.Fatalf("p999 %.3fs not finite and bounded", p999)
	}

	// Shed rate is reported: the spike exceeded capacity, something must
	// have been rejected early.
	if r.Shed == 0 {
		t.Fatal("2× capacity spike shed nothing")
	}

	// Retries never exceed the budget: burst allowance plus 10% of first
	// attempts (token-bucket invariant).
	first := r.Attempts - r.Retries
	if maxRetries := float64(retryBurst) + 0.1*float64(first); float64(r.Retries) > maxRetries {
		t.Fatalf("retries %d exceed the budget bound %.0f (first attempts %d)", r.Retries, maxRetries, first)
	}
	if r.Timeouts == 0 {
		t.Fatal("a mid-spike crash produced no timeouts — drill did not bite")
	}
}

// TestSLOWindowsPerTick: Result.Windows is the controller's time series —
// one verdict per tick, every Window seconds from run start through the end
// of generation — and its in-window burning verdicts are exactly the
// SLOBreaches count. A run without an SLO has no windows.
func TestSLOWindowsPerTick(t *testing.T) {
	const window, duration, warmup = 0.5, 20.0, 0.1
	d := smallDeployment(t, microP(), 6, 3)
	// The crash drill's spike and rolling crashes burn the SLO mid-run.
	faults.Schedule(d.Eng, faults.RollingCrashes("web", 2, 7, 0.5, 2), 1, d.Roster())
	r := d.Run(RunConfig{
		Profile:  load.Spike{Base: 120, Peak: 600, Start: 6, Duration: 6},
		Duration: duration, WarmupFrac: warmup,
		RequestTimeout: 0.25, RetryBudget: 0.1,
		Shed: ShedPolicy{Mode: ShedDeadline, Deadline: 0.5},
		SLO:  &SLO{Latency: 0.5, Availability: 0.99, Window: window},
	})
	if want := int(duration / window); len(r.Windows) != want {
		t.Fatalf("%d windows, want one per %gs tick over %gs = %d", len(r.Windows), window, duration, want)
	}
	var burned, healthy int64
	for i, w := range r.Windows {
		if want := float64(i+1) * window; math.Abs(w.T-want) > 1e-9 {
			t.Fatalf("window %d at T=%v, want %v", i, w.T, want)
		}
		if w.T < warmup*duration || w.T > duration {
			continue
		}
		if w.Burning {
			burned++
		} else {
			healthy++
		}
	}
	if burned == 0 || healthy == 0 {
		t.Fatalf("in-window verdicts: %d burning, %d healthy; the spike should produce both", burned, healthy)
	}
	if burned != r.SLOBreaches {
		t.Fatalf("%d in-window burning windows, SLOBreaches = %d", burned, r.SLOBreaches)
	}

	if plain := smallDeployment(t, microP(), 6, 3).Run(RunConfig{Profile: load.Steady{Rate: 120}, Duration: 2}); plain.Windows != nil {
		t.Fatalf("run without an SLO recorded %d windows", len(plain.Windows))
	}
}

// TestRetryStormWithoutBudget documents what the budget prevents: the same
// drill with budgets off completes (no livelock) but amplifies retries.
func TestRetryStormWithoutBudget(t *testing.T) {
	run := func(budget float64) Result {
		d := smallDeployment(t, microP(), 6, 3)
		// Two thirds of the tier crashes rolling through the spike peak.
		faults.Schedule(d.Eng, faults.RollingCrashes("web", 4, 7, 0.3, 2), 1, d.Roster())
		return d.Run(RunConfig{
			Profile:  load.Spike{Base: 120, Peak: 600, Start: 6, Duration: 6},
			Duration: 20, WarmupFrac: 0.1,
			RequestTimeout: 0.25, RetryBudget: budget,
			Shed: ShedPolicy{Mode: ShedDeadline, Deadline: 0.5},
		})
	}
	storm := run(0)
	budgeted := run(0.01)
	if storm.Throughput <= 0 {
		t.Fatal("unbudgeted drill livelocked: no goodput at all")
	}
	if storm.Retries <= budgeted.Retries {
		t.Fatalf("unbudgeted retries %d should exceed budgeted %d", storm.Retries, budgeted.Retries)
	}
	amp := func(r Result) float64 {
		if n := r.Attempts - r.Retries; n > 0 {
			return float64(r.Attempts) / float64(n)
		}
		return 1
	}
	if amp(storm) <= amp(budgeted) {
		t.Fatalf("retry amplification: storm %.3f should exceed budgeted %.3f", amp(storm), amp(budgeted))
	}
	if budgeted.RetryDenied == 0 {
		t.Fatal("the budget never denied a retry under a mid-spike crash")
	}
}

// TestSLOBrownoutDegrades: with a miss-heavy working set and an aggressive
// latency target, the controller must engage brownout (cache-only stale
// answers) and account the degraded replies.
func TestSLOBrownoutDegrades(t *testing.T) {
	tb := smallTestbed(microP(), 9, 2, 4)
	d := NewDeployment(tb, microP(), 6, 3, 1)
	// Request-level pressure: 120 conn/s × 40 calls ≈ 4800 req/s against a
	// ~2400 req/s web tier, so worker-thread waits blow a 50 ms target.
	rc := RunConfig{
		Profile: load.Steady{Rate: 120}, CallsPerConn: 40, Duration: 12, WarmupFrac: 0.1,
		CacheHit: 0.5,
		SLO:      &SLO{Latency: 0.05, Window: 1, Brownout: true},
	}
	d.WarmFor(rc)
	r := d.Run(rc)
	if r.SLOBreaches == 0 {
		t.Fatal("2× overload never burned a 50ms p99 SLO")
	}
	if r.BrownoutSecs <= 0 {
		t.Fatal("brownout never engaged")
	}
	if r.Degraded == 0 {
		t.Fatal("brownout engaged but no degraded answers were served")
	}
}

// TestSLOReserveActivates: a burning SLO must pull held-back reserve
// servers into the rotation.
func TestSLOReserveActivates(t *testing.T) {
	d := smallDeployment(t, microP(), 6, 3)
	r := d.Run(RunConfig{
		Profile: load.Steady{Rate: 120}, CallsPerConn: 40, Duration: 12, WarmupFrac: 0.1,
		SLO: &SLO{Latency: 0.05, Window: 1, Reserve: 2},
	})
	if r.ActivePeak <= 4 {
		t.Fatalf("active peak %d: reserves never activated (started at 4 of 6)", r.ActivePeak)
	}
	if r.SLOBreaches == 0 {
		t.Fatal("no breaches recorded while reserves activated")
	}
}

// TestSLOReserveFailoverStaysInRotation: failover walks the routing
// rotation, so a crashed server's connections never land on reserve
// servers the controller is still holding back. The latency target is
// out of reach, so no reserve is ever activated, and both held-back
// servers burn exactly their idle draw.
func TestSLOReserveFailoverStaysInRotation(t *testing.T) {
	d := smallDeployment(t, microP(), 6, 3)
	faults.Schedule(d.Eng, &faults.Plan{Events: []faults.Event{
		{Kind: faults.NodeCrash, At: 1, Role: "web", Index: 3},
	}}, 1, d.Roster())
	r := d.Run(RunConfig{
		Concurrency: 64, Duration: 10, RequestTimeout: 0.5,
		SLO: &SLO{Latency: 100, Reserve: 2},
	})
	if r.ActivePeak != 4 {
		t.Fatalf("active peak %d, want the 4 unreserved servers", r.ActivePeak)
	}
	if r.Throughput == 0 {
		t.Fatal("the tier served nothing")
	}
	idle := float64(d.Web[4].Node.PowerModel().IdleDraw()) * float64(d.Eng.Now())
	e4, e5 := float64(d.Web[4].Node.Energy()), float64(d.Web[5].Node.Energy())
	if e4 != e5 || math.Abs(e4-idle) > 1e-9*idle {
		t.Fatalf("reserve servers burned %.4f J and %.4f J, want both the idle %.4f J", e4, e5, idle)
	}
}

func TestOverloadConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  RunConfig
	}{
		{"both generators", RunConfig{Concurrency: 64, Profile: load.Steady{Rate: 100}}},
		{"invalid profile", RunConfig{Profile: load.Steady{Rate: -1}}},
		{"nan profile", RunConfig{Profile: load.Steady{Rate: math.NaN()}}},
		{"negative retry budget", RunConfig{Concurrency: 64, RetryBudget: -0.1}},
		{"retry budget over 1", RunConfig{Concurrency: 64, RetryBudget: 1.5}},
		{"nan retry budget", RunConfig{Concurrency: 64, RetryBudget: math.NaN()}},
		{"unknown shed mode", RunConfig{Concurrency: 64, Shed: ShedPolicy{Mode: "yolo"}}},
		{"negative shed queue", RunConfig{Concurrency: 64, Shed: ShedPolicy{Mode: ShedDropTail, Queue: -1}}},
		{"nan shed deadline", RunConfig{Concurrency: 64, Shed: ShedPolicy{Mode: ShedDeadline, Deadline: math.NaN()}}},
		{"low frac over 1", RunConfig{Concurrency: 64, Shed: ShedPolicy{Mode: ShedPriority, LowFrac: 1.5}}},
		{"fast fail over 1", RunConfig{Concurrency: 64, Shed: ShedPolicy{Mode: ShedDropTail, FastFailFrac: 2}}},
		{"slo zero latency", RunConfig{Concurrency: 64, SLO: &SLO{}}},
		{"slo nan latency", RunConfig{Concurrency: 64, SLO: &SLO{Latency: math.NaN()}}},
		{"slo percentile 1", RunConfig{Concurrency: 64, SLO: &SLO{Latency: 0.5, Percentile: 1}}},
		{"slo availability over 1", RunConfig{Concurrency: 64, SLO: &SLO{Latency: 0.5, Availability: 1.5}}},
		{"slo negative window", RunConfig{Concurrency: 64, SLO: &SLO{Latency: 0.5, Window: -1}}},
		{"slo negative reserve", RunConfig{Concurrency: 64, SLO: &SLO{Latency: 0.5, Reserve: -1}}},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", tc.name)
		}
	}
	ok := RunConfig{
		Profile:        load.Spike{Base: 50, Peak: 500, Start: 5, Duration: 5},
		RequestTimeout: 0.25, RetryBudget: 0.1,
		Shed: ShedPolicy{Mode: ShedPriority, Queue: 64, LowFrac: 0.2, FastFailFrac: 0.1},
		SLO:  &SLO{Latency: 0.5, Percentile: 0.999, Availability: 0.99, Window: 2, Reserve: 1},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid overload config rejected: %v", err)
	}
}

// TestShedSteadyStateNoAlloc pins the fast-fail rejection path — shed
// decision, fractional CPU burn, 503 delivery, record recycling — at zero
// allocations per request (CI-gated alongside the admit path).
func TestShedSteadyStateNoAlloc(t *testing.T) {
	tb := smallTestbed(microP(), 9, 2, 4)
	d := NewDeployment(tb, microP(), 6, 3, 1)
	d.Warm(1.0)
	// Queue 0 with drop-tail sheds every request (the config layer would
	// default Queue; setting the resolved policy directly pins the path).
	d.run.shed = ShedPolicy{Mode: ShedDropTail, Queue: 0, FastFailFrac: 0.1}
	d.run.fastFailCPU = 0.1 * (d.Plat.Web.BaseCPU + d.Plat.Web.ReplyCPU)
	eng := d.Eng
	cfg := RunConfig{Concurrency: 1}.withDefaults()
	done := func(uint64, bool) {}
	for i := 0; i < 100; i++ {
		d.request(d.clients[i%len(d.clients)], d.Web[i%len(d.Web)], cfg.ImageFrac, 0, done)
		eng.RunUntil(eng.Now() + 0.05)
	}
	avg := testing.AllocsPerRun(200, func() {
		d.request(d.clients[0], d.Web[1], cfg.ImageFrac, 0, done)
		eng.RunUntil(eng.Now() + 0.05)
	})
	if avg != 0 {
		t.Fatalf("steady-state shed path allocates %.2f allocs/op, want 0", avg)
	}
}
