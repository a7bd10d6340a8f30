package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"edisim/internal/report"
)

// config is what one workload pass needs to know.
type config struct {
	seed    int64
	workers int  // edisim Workers for paper-quick
	small   bool // reduced-size inputs, for the benchmark's own tests
}

// pass is one execution of every op of a workload.
type pass struct {
	wall  time.Duration // host time of the whole pass
	setup time.Duration // host time inside the set-up calls
	ops   int
	// failures holds one entry per op that failed its output check.
	failures    []string
	fingerprint string // hash of the simulated outputs only
	ledger      []report.Comparison
	layer       layerStats // filled by traced passes

	// Process counters over the pass, filled by repeat.
	cpu                 time.Duration
	gcs                 uint32
	allocBytes, mallocs uint64
}

func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// layerStats are the per-layer counts and host times one traced pass
// measures around calls into the simulator's packages.
type layerStats struct {
	simEvents             uint64 // model events fired inside web and mapred Run calls
	pendingPeak           int
	flowsPeak             int
	netBytes              float64
	webRun, webWarm       time.Duration
	requests              int64
	attempts, shed        int64
	webMallocs            uint64
	scaleEvents           int64
	mrRun, mrSetup        time.Duration
	clusterBuild          time.Duration
	tasks, maps, localMap int
	unitMax, emit         time.Duration
}

// runReport is what a whole run of the benchmark reports.
type runReport struct {
	passes            int
	attempted, failed int
	problems          []string
	fingerprint       string
	ledger            []string  // the first pass's paper-vs-simulated rows
	walls             []float64 // host seconds of each pass, in order
	cpus              []float64 // process CPU seconds of each pass, in order
	metrics           map[string]metric
}

func (r *runReport) result() result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// maxProblems caps how many failed checks a run lists.
const maxProblems = 10

// repeat runs passes until the host-time deadline passes, at least one.
func repeat(w *workload, cfg config, tr *tracer, deadline time.Time) ([]*pass, error) {
	var out []*pass
	for len(out) == 0 || time.Now().Before(deadline) {
		// Each pass starts from a collected heap, as testing.B's runs do, so
		// garbage left by the previous pass is not charged to this one.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := cpuTime()
		p, err := w.run(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		p.cpu = cpuTime() - c0
		runtime.ReadMemStats(&m1)
		p.gcs = m1.NumGC - m0.NumGC
		p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		p.mallocs = m1.Mallocs - m0.Mallocs
		out = append(out, p)
	}
	return out, nil
}

// tally counts ops and failures over passes. A pass whose simulated outputs
// differ from ref fails every op: same seed, same inputs, same outputs.
func tally(passes []*pass, ref string) *runReport {
	r := &runReport{passes: len(passes), fingerprint: ref}
	for _, c := range passes[0].ledger {
		r.ledger = append(r.ledger, c.String())
	}
	for i, p := range passes {
		r.walls = append(r.walls, p.wall.Seconds())
		r.cpus = append(r.cpus, p.cpu.Seconds())
		r.attempted += p.ops
		failures := p.failures
		if p.fingerprint != ref {
			failures = append(failures, fmt.Sprintf("pass %d: simulated outputs differ (fingerprint %s, want %s)", i, p.fingerprint, ref))
			r.failed += p.ops
		} else {
			r.failed += len(p.failures)
		}
		for _, f := range failures {
			if len(r.problems) < maxProblems {
				r.problems = append(r.problems, f)
			}
		}
	}
	return r
}

// runPlain is the untraced run: it reports the end-to-end metrics.
func runPlain(w *workload, cfg config, seconds float64) (*runReport, error) {
	passes, err := repeat(w, cfg, nil, time.Now().Add(secondsDur(seconds)))
	if err != nil {
		return nil, err
	}
	r := tally(passes, passes[0].fingerprint)
	var setup time.Duration
	if w.processSetup {
		if setup, err = probeSetup(cfg); err != nil {
			return nil, err
		}
	} else {
		setup = medianDur(passes, func(p *pass) time.Duration { return p.setup })
	}
	in15, logErr := ledgerStats(passes[0].ledger)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.metrics = map[string]metric{
		"wall_s":         {medianDur(passes, func(p *pass) time.Duration { return p.wall }).Seconds(), "s"},
		"setup_s":        {setup.Seconds(), "s"},
		"peak_rss_mb":    {rss, "MB"},
		"ledger_in15":    {float64(in15), "count"},
		"ledger_log_err": {logErr, "1"},
	}
	return r, nil
}

// runTraced spends the first part of its budget on untraced passes and the
// rest on traced ones under a CPU profile, and reports the per-layer
// metrics. The spans of every traced pass go to spansPath.
func runTraced(w *workload, cfg config, seconds float64, spansPath string) (*runReport, error) {
	start := time.Now()
	plain, err := repeat(w, cfg, nil, start.Add(secondsDur(0.4*seconds)))
	if err != nil {
		return nil, err
	}
	tr := newTracer("workload:" + w.name)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := repeat(w, cfg, tr, start.Add(secondsDur(seconds)))
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	r := tally(append(plain, traced...), plain[0].fingerprint)
	r.metrics = layerMetrics(w, cfg, plain, traced, shares)
	return r, nil
}

// profiledPackages are the simulator packages whose share of CPU samples is
// reported as <pkg>.cpu_frac; "gc" collects the garbage collector's frames.
var profiledPackages = []string{"sim", "netsim", "web", "load", "stats", "autoscale", "hw", "power", "mapred", "hdfs", "yarn", "gc"}

// layerMetrics turns the traced run's measurements into the per-layer
// metrics. Counts come from the last traced pass (every pass simulates the
// same inputs); host times are medians over traced passes; runtime counters
// and CPU utilisation come from the untraced passes.
func layerMetrics(w *workload, cfg config, plain, traced []*pass, shares map[string]float64) map[string]metric {
	last := traced[len(traced)-1].layer
	med := func(f func(l *layerStats) time.Duration) float64 {
		return medianDur(traced, func(p *pass) time.Duration { return f(&p.layer) }).Seconds()
	}
	workers := 1
	if w.parallel {
		workers = cfg.workers
	}
	var cpu, wall time.Duration
	for _, p := range plain {
		cpu += p.cpu
		wall += p.wall
	}
	nsPerEvent := median(traced, func(p *pass) float64 {
		return ratio(float64((p.layer.webRun + p.layer.mrRun).Nanoseconds()), float64(p.layer.simEvents))
	})
	m := map[string]metric{
		"sim.events":             {float64(last.simEvents), "count"},
		"sim.ns_per_event":       {nsPerEvent, "ns"},
		"sim.pending_peak":       {float64(maxOf(traced, func(l *layerStats) int { return l.pendingPeak })), "count"},
		"netsim.bytes_mb":        {last.netBytes / 1e6, "MB"},
		"netsim.flows_peak":      {float64(maxOf(traced, func(l *layerStats) int { return l.flowsPeak })), "count"},
		"web.run_s":              {med(func(l *layerStats) time.Duration { return l.webRun }), "s"},
		"web.warm_s":             {med(func(l *layerStats) time.Duration { return l.webWarm }), "s"},
		"web.requests":           {float64(last.requests), "count"},
		"web.useful_frac":        {ratio(float64(last.requests), float64(last.attempts+last.shed)), "frac"},
		"web.mallocs_per_req":    {median(traced, func(p *pass) float64 { return ratio(float64(p.layer.webMallocs), float64(p.layer.requests)) }), "count"},
		"autoscale.scale_events": {float64(last.scaleEvents), "count"},
		"mapred.run_s":           {med(func(l *layerStats) time.Duration { return l.mrRun }), "s"},
		"mapred.setup_s":         {med(func(l *layerStats) time.Duration { return l.mrSetup }), "s"},
		"mapred.tasks":           {float64(last.tasks), "count"},
		"mapred.locality":        {ratio(float64(last.localMap), float64(last.maps)), "frac"},
		"cluster.build_s":        {med(func(l *layerStats) time.Duration { return l.clusterBuild }), "s"},
		"runner.cpu_util":        {ratio(cpu.Seconds(), wall.Seconds()*float64(workers)), "frac"},
		"core.unit_max_s":        {med(func(l *layerStats) time.Duration { return l.unitMax }), "s"},
		"report.emit_s":          {med(func(l *layerStats) time.Duration { return l.emit }), "s"},
		"gc.cycles":              {median(plain, func(p *pass) float64 { return float64(p.gcs) }), "count"},
		"alloc.mb":               {median(plain, func(p *pass) float64 { return float64(p.allocBytes) / 1e6 }), "MB"},
		"alloc.mallocs":          {median(plain, func(p *pass) float64 { return float64(p.mallocs) }), "count"},
		"trace.overhead_frac": {
			medianDur(traced, func(p *pass) time.Duration { return p.wall }).Seconds()/
				medianDur(plain, func(p *pass) time.Duration { return p.wall }).Seconds() - 1, "frac"},
	}
	for _, pkg := range profiledPackages {
		m[pkg+".cpu_frac"] = metric{shares[pkg], "frac"}
	}
	return m
}

// ledgerStats summarises paper-vs-simulated comparisons: how many rows fall
// within ±15% of the paper, and the mean |ln(sim/paper)|. A row repeated
// under the same artifact and metric counts once; rows against a paper value
// of 0 (ratio 0) are never within the band and carry no log error.
func ledgerStats(rows []report.Comparison) (in15 int, logErr float64) {
	seen := map[[2]string]bool{}
	n := 0
	for _, c := range rows {
		k := [2]string{c.Artifact, c.Metric}
		if seen[k] {
			continue
		}
		seen[k] = true
		r := c.RatioError()
		if r >= 0.85 && r <= 1.15 {
			in15++
		}
		if r > 0 {
			logErr += math.Abs(math.Log(r))
			n++
		}
	}
	return in15, ratio(logErr, float64(n))
}

// setupProbes is how many fresh processes probeSetup starts; the median
// damps process-start noise.
const setupProbes = 41

// probeEnv, when set in a process's environment, makes it a set-up probe:
// it builds paper-quick's scenario, prints the wall clock and exits.
const probeEnv = "PERFBENCH_SETUP_PROBE"

// probeSetup measures paper-quick's set-up, process start up to the first
// edisim.Run call, by starting this executable as a probe several times.
func probeSetup(cfg config) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ds []time.Duration
	for range setupProbes {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", probeEnv, cfg.seed))
		t0 := time.Now()
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("set-up probe printed %q: %w", out, err)
		}
		ds = append(ds, time.Duration(ns-t0.UnixNano()))
	}
	slices.Sort(ds)
	return ds[len(ds)/2], nil
}

// probeSeed reports whether this process is a set-up probe, and the seed
// it was started for.
func probeSeed() (int64, bool) {
	v, ok := os.LookupEnv(probeEnv)
	if !ok {
		return 0, false
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: bad %s=%q: %v\n", probeEnv, v, err)
		os.Exit(2)
	}
	return seed, true
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set less its file-backed pages,
// in MiB. File pages are mostly the executable's text, whose resident size
// depends on how the page cache happened to map it, not on the run.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	kb := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if f := strings.Fields(v); ok && len(f) == 2 && f[1] == "kB" {
			kb[k], _ = strconv.ParseFloat(f[0], 64)
		}
	}
	if kb["VmHWM"] == 0 {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	return (kb["VmHWM"] - kb["RssFile"] - kb["RssShmem"]) / 1024, nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(ps []*pass, f func(*pass) float64) float64 {
	vs := make([]float64, len(ps))
	for i, p := range ps {
		vs[i] = f(p)
	}
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func medianDur(ps []*pass, f func(*pass) time.Duration) time.Duration {
	return time.Duration(median(ps, func(p *pass) float64 { return float64(f(p)) }))
}

func maxOf(ps []*pass, f func(*layerStats) int) int {
	m := 0
	for _, p := range ps {
		m = max(m, f(&p.layer))
	}
	return m
}
