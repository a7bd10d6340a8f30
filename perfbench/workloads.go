package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"edisim"
	"edisim/internal/autoscale"
	"edisim/internal/cluster"
	"edisim/internal/core"
	"edisim/internal/hw"
	"edisim/internal/jobs"
	"edisim/internal/load"
	"edisim/internal/report"
	"edisim/internal/rng"
	"edisim/internal/web"
)

// workload is one named benchmark input set. Why each exists, and which
// layers it stresses, is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// parallel workloads fan out across config.workers; the others run one
	// engine at a time.
	parallel bool
	// processSetup measures setup_s in fresh processes (see probeSetup)
	// instead of from the set-up calls inside a pass.
	processSetup bool
	// run executes every op of the workload once; a nil tracer is the
	// untraced path.
	run func(cfg config, tr *tracer) (*pass, error)
}

var workloads = []*workload{
	{name: "paper-quick", parallel: true, processSetup: true, run: runPaperQuick},
	{name: "web-open", run: runWebOpen},
	{name: "mapreduce", run: runMapReduce},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// opSeed derives an op's simulator seed from the workload seed and the op's
// name, so every input of a run follows from --seed alone.
func opSeed(seed int64, op string) int64 { return rng.New(seed).Derive(op).Seed() }

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func fingerprintOf(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:16]) }

// --- paper-quick -------------------------------------------------------------

// paperIDs lists the experiments a paper-quick pass must emit, in the
// order edisim.Run emits them: the default reproduction, or three cheap
// ones for smoke runs.
func paperIDs(small bool) []string {
	smoke := map[string]bool{"table2": true, "sec44_network": true, "fig14_fig17": true}
	var ids []string
	for _, e := range core.Experiments() {
		if !e.OptIn && (!small || smoke[e.ID]) {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// paperScenario is the user's own path: the default paper reproduction at
// quick fidelity. ids narrows it (smoke runs, per-experiment traced runs).
func paperScenario(cfg config, ids []string) edisim.Scenario {
	return edisim.Scenario{
		Seed:      cfg.seed,
		Quick:     true,
		Workers:   cfg.workers,
		Workloads: []edisim.Workload{&edisim.PaperExperiments{IDs: ids}},
	}
}

// paperSinks renders every artifact as text and collects it for the ledger.
func paperSinks() (*bytes.Buffer, *edisim.Collector, edisim.Sink) {
	text, col := &bytes.Buffer{}, &edisim.Collector{}
	return text, col, edisim.MultiSink(edisim.NewTextSink(text), col)
}

// setupProbe is a probe process's whole life: the set-up a paper-quick run
// does before its first edisim.Run call, then the wall clock.
func setupProbe(cfg config) {
	paperScenario(cfg, nil)
	paperSinks()
	fmt.Println(time.Now().UnixNano())
}

// runPaperQuick runs the default reproduction as one edisim.Run. Traced, it
// runs each experiment as its own one-ID edisim.Run instead, so each unit's
// host time is visible; per-unit seeds make the outputs identical.
func runPaperQuick(cfg config, tr *tracer) (*pass, error) {
	ids := paperIDs(cfg.small)
	text, col, sink := paperSinks()
	p := &pass{ops: len(ids)}
	ctx := context.Background()
	scope := ids
	if !cfg.small {
		scope = nil // the default selection, exactly as a user asks for it
	}

	t0 := time.Now()
	var runErr error
	if tr == nil {
		runErr = edisim.Run(ctx, paperScenario(cfg, scope), sink)
	} else {
		for _, id := range ids {
			op := tr.open(tr.root, "op:"+id)
			call := tr.open(op, "edisim.Run")
			timed := edisim.SinkFunc(func(a *edisim.Artifact) error {
				s := tr.open(call, "report.Emit")
				err := sink.Emit(a)
				p.layer.emit += tr.close(s)
				return err
			})
			runErr = edisim.Run(ctx, paperScenario(cfg, []string{id}), timed)
			p.layer.unitMax = max(p.layer.unitMax, tr.close(call))
			tr.close(op)
			if runErr != nil {
				break
			}
		}
	}
	s := tr.open(tr.rootRef(), "report.WriteLedger")
	if err := edisim.WriteLedger(text, col.Artifacts); err != nil {
		return nil, err
	}
	p.layer.emit += tr.close(s)
	p.wall = time.Since(t0)

	emitted := map[string]*edisim.Artifact{}
	for _, a := range col.Artifacts {
		emitted[a.ID] = a
		p.ledger = append(p.ledger, a.Comparisons...)
	}
	for _, id := range ids {
		switch a := emitted[id]; {
		case a == nil:
			p.fail("paper-quick %s: no artifact emitted (run error: %v)", id, runErr)
		case !finiteArtifact(a):
			p.fail("paper-quick %s: NaN or Inf in a table, figure or comparison", id)
		}
	}
	h := sha256.New()
	if err := edisim.WriteJSON(h, col.Artifacts); err != nil {
		return nil, err
	}
	p.fingerprint = fingerprintOf(h)
	return p, nil
}

func finiteArtifact(a *edisim.Artifact) bool {
	for _, t := range a.Tables {
		for _, row := range t.Rows {
			for _, v := range row {
				if v.Kind == report.KindFloat && !finite(v.Num) {
					return false
				}
			}
		}
	}
	for _, f := range a.Figures {
		if !finite(f.X...) {
			return false
		}
		for _, s := range f.Series {
			if !finite(s.Y...) {
				return false
			}
		}
	}
	for _, c := range a.Comparisons {
		if !finite(c.Paper, c.Measured) {
			return false
		}
	}
	return true
}

// --- web-open ----------------------------------------------------------------

// webOp is one open-loop run against a platform's catalog web fleet.
type webOp struct {
	name    string
	plat    *hw.Platform
	diurnal bool
}

func webOps() []webOp {
	edison, dell := hw.BaselinePair()
	return []webOp{
		{"edison/steady-2x", edison, false},
		{"dell/steady-2x", dell, false},
		{"edison/diurnal-autoscale", edison, true},
		{"dell/diurnal-autoscale", dell, true},
	}
}

// webRunConfig arms every overload knob: 0.5 s request timeouts, a 0.1 retry
// budget, deadline shedding at 0.5 s and a p99 ≤ 0.5 s / 99% SLO over 1 s
// windows. Steady runs offer twice the fleet's connection capacity; diurnal
// runs swing between 0.15× and 0.85× of it under target-util autoscaling.
func webRunConfig(op webOp, dur float64) web.RunConfig {
	capacity := float64(op.plat.Fleet.Web) * op.plat.Web.ConnRate
	slo := web.SLO{Latency: 0.5, Percentile: 0.99, Availability: 0.99, Window: 1}
	rc := web.RunConfig{
		Duration:       dur,
		WarmupFrac:     0.1,
		RequestTimeout: 0.5,
		RetryBudget:    0.1,
		Shed:           web.ShedPolicy{Mode: web.ShedDeadline, Deadline: 0.5},
		SLO:            &slo,
	}
	if op.diurnal {
		rc.Profile = load.Diurnal{Min: 0.15 * capacity, Max: 0.85 * capacity, Period: dur}
		rc.Autoscale = &autoscale.Config{Policy: autoscale.TargetUtil{Target: 0.6}}
	} else {
		rc.Profile = load.Steady{Rate: 2 * capacity}
	}
	return rc
}

// webDuration is each run's simulated seconds of offered load.
func webDuration(small bool) float64 {
	if small {
		return 2
	}
	return 8
}

func runWebOpen(cfg config, tr *tracer) (*pass, error) {
	ops := webOps()
	p := &pass{ops: len(ops)}
	h := sha256.New()
	steady := map[*hw.Platform]web.Result{}
	t0 := time.Now()
	for _, op := range ops {
		rc := webRunConfig(op, webDuration(cfg.small))
		o := tr.open(tr.rootRef(), "op:"+op.name)
		s := tr.open(o, "cluster.New")
		tb := cluster.New(cluster.Config{
			Groups:  []cluster.GroupConfig{{Platform: op.plat, Nodes: op.plat.Fleet.Web + op.plat.Fleet.Cache}},
			DBNodes: 2, Clients: 8,
		})
		build := tr.close(s)
		s = tr.open(o, "web.NewDeployment")
		dep := web.NewDeployment(tb, op.plat, op.plat.Fleet.Web, op.plat.Fleet.Cache, opSeed(cfg.seed, op.name))
		newDep := tr.close(s)
		s = tr.open(o, "web.Deployment.WarmFor")
		dep.WarmFor(rc)
		warm := tr.close(s)
		p.setup += build + newDep + warm

		var pr *probe
		var m0 uint64
		if tr != nil {
			pr = attachProbe(dep.Eng, dep.Fab, 0.005)
			m0 = heapAllocs()
		}
		f0 := dep.Eng.Fired()
		s = tr.open(o, "web.Deployment.Run")
		res := dep.Run(rc)
		run := tr.close(s)
		tr.close(o)
		if tr != nil {
			l := &p.layer
			l.webMallocs += heapAllocs() - m0
			l.clusterBuild += build
			l.webWarm += warm
			l.webRun += run
			l.simEvents += dep.Eng.Fired() - f0 - pr.ticks
			pr.note(l)
			l.netBytes += float64(dep.Fab.TotalBytes())
			l.requests += res.Latency.N()
			l.attempts += res.Attempts
			l.shed += res.Shed
			l.scaleEvents += res.ScaleUps + res.ScaleDowns
		}

		p99 := res.Latency.Quantile(0.99)
		switch {
		case res.Latency.N() == 0:
			p.fail("web-open %s: no requests served", op.name)
		case res.Attempts < res.Latency.N():
			p.fail("web-open %s: %d attempts for %d successes", op.name, res.Attempts, res.Latency.N())
		case !finite(res.Throughput, res.MeanDelay, p99, res.ErrorRate, float64(res.Energy), res.MeanActive):
			p.fail("web-open %s: NaN or Inf in the result", op.name)
		}
		fmt.Fprintf(h, "%s tput=%v delay=%v n=%d p50=%v p99=%v p999=%v err=%v att=%d to=%d re=%d shed=%d off=%d deg=%d denied=%d breach=%d energy=%v power=%v webcpu=%v cachecpu=%v hit=%v up=%d down=%d boots=%d active=%v bytes=%d\n",
			op.name, res.Throughput, res.MeanDelay, res.Latency.N(), res.Latency.Quantile(0.5), p99, res.Latency.Quantile(0.999),
			res.ErrorRate, res.Attempts, res.Timeouts, res.Retries, res.Shed, res.Offered, res.Degraded, res.RetryDenied,
			res.SLOBreaches, res.Energy, res.MeanPower, res.WebCPU, res.CacheCPU, res.HitRatio,
			res.ScaleUps, res.ScaleDowns, res.Boots, res.MeanActive, dep.Fab.TotalBytes())
		if !op.diurnal {
			steady[op.plat] = res
		}
	}
	p.wall = time.Since(t0)
	p.fingerprint = fingerprintOf(h)

	// Saturated open-loop goodput is the fleet's peak throughput, which the
	// paper reports (Figures 4 and 6) with its work-done-per-joule ratio.
	edison, dell := hw.BaselinePair()
	e, d := steady[edison], steady[dell]
	const fig = "Figure 4 (open loop at 2x capacity)"
	p.ledger = []report.Comparison{
		{Artifact: fig, Metric: "peak " + edison.Label + " req/s", Paper: 7500, Measured: e.Throughput},
		{Artifact: fig, Metric: "peak " + dell.Label + " req/s", Paper: 7500, Measured: d.Throughput},
		{Artifact: fig, Metric: "energy-efficiency ratio (x)", Paper: 3.5,
			Measured: ratio(e.Throughput/float64(e.MeanPower), d.Throughput/float64(d.MeanPower))},
	}
	return p, nil
}

// --- mapreduce ---------------------------------------------------------------

// mrOp is one Hadoop job on one Table 8 cluster configuration.
type mrOp struct {
	job, label string
	plat       *hw.Platform
	slaves     int
}

// mrOps lists the six paper jobs on 35 Edison and 2 Dell slaves, then
// wordcount and terasort over the rest of the Figure 18 scale ladder.
func mrOps(small bool) []mrOp {
	edison, dell := hw.BaselinePair()
	names := jobs.Names()
	if small {
		names = []string{"logcount2", "pi"}
	}
	var ops []mrOp
	for _, j := range names {
		ops = append(ops, mrOp{j, "35E", edison, 35}, mrOp{j, "2D", dell, 2})
	}
	if !small {
		for _, j := range []string{"wordcount", "terasort"} {
			ops = append(ops, mrOp{j, "17E", edison, 17}, mrOp{j, "8E", edison, 8}, mrOp{j, "4E", edison, 4}, mrOp{j, "1D", dell, 1})
		}
	}
	return ops
}

// hadoopShape is the testbed jobs.NewHadoop builds for n slaves of p: the
// master joins p's group when p can host it, else it runs on p's catalog
// master platform.
func hadoopShape(p *hw.Platform, n int) cluster.Config {
	groups := []jobs.SlaveGroup{{Platform: p, Nodes: n}}
	if jobs.MasterGroupIndex(groups) == 0 {
		return cluster.Config{Groups: []cluster.GroupConfig{{Platform: p, Nodes: n + 1}}}
	}
	master, _ := hw.LookupPlatform(p.Hadoop.MasterPlatform)
	return cluster.Config{Groups: []cluster.GroupConfig{{Platform: p, Nodes: n}, {Platform: master, Nodes: 1}}}
}

func runMapReduce(cfg config, tr *tracer) (*pass, error) {
	ops := mrOps(cfg.small)
	p := &pass{ops: len(ops)}
	h := sha256.New()
	t0 := time.Now()
	for _, op := range ops {
		name := op.job + "/" + op.label
		o := tr.open(tr.rootRef(), "op:"+name)
		s := tr.open(o, "jobs.NewHadoop")
		hd, err := jobs.NewHadoop(op.plat, op.slaves, jobs.BlockSizeFor(op.job, op.plat), opSeed(cfg.seed, name))
		setup := tr.close(s)
		if err != nil {
			tr.close(o)
			p.setup += setup
			p.fail("mapreduce %s: %v", name, err)
			continue
		}
		s = tr.open(o, "jobs.Hadoop.Stage")
		hd.Stage(op.job)
		def := hd.Def(op.job)
		setup += tr.close(s)
		p.setup += setup

		var pr *probe
		if tr != nil {
			// jobs.NewHadoop builds its testbed internally; build one of the
			// same shape to time the cluster layer on its own.
			s = tr.open(o, "cluster.New")
			cluster.New(hadoopShape(op.plat, op.slaves))
			p.layer.clusterBuild += tr.close(s)
			pr = attachProbe(hd.Eng, hd.Fab, 0.25)
		}
		f0 := hd.Eng.Fired()
		s = tr.open(o, "mapred.Cluster.Run")
		res, err := hd.Cluster.Run(def)
		run := tr.close(s)
		tr.close(o)
		if err != nil {
			p.fail("mapreduce %s: %v", name, err)
			continue
		}
		if tr != nil {
			l := &p.layer
			l.mrSetup += setup
			l.mrRun += run
			l.simEvents += hd.Eng.Fired() - f0 - pr.ticks
			pr.note(l)
			l.netBytes += float64(hd.Fab.TotalBytes())
			l.tasks += res.MapTasks + res.ReduceTasks
			l.maps += res.MapTasks
			l.localMap += res.DataLocalMaps
		}

		switch {
		case !res.Completed || res.Failed:
			p.fail("mapreduce %s: job did not complete (%s)", name, res.FailReason)
		case res.MapTasks == 0:
			p.fail("mapreduce %s: no map tasks", name)
		case !finite(res.Duration, float64(res.Energy)):
			p.fail("mapreduce %s: NaN or Inf in the result", name)
		}
		fmt.Fprintf(h, "%s dur=%v energy=%v maps=%d reduces=%d local=%d shuffled=%d out=%d done=%v failed=%v bytes=%d\n",
			name, res.Duration, res.Energy, res.MapTasks, res.ReduceTasks, res.DataLocalMaps,
			res.ShuffledBytes, res.OutputBytes, res.Completed, res.Failed, hd.Fab.TotalBytes())
		paper := core.PaperTable8[op.job][op.label]
		art := fmt.Sprintf("Table 8 / %s / %s", op.job, op.label)
		p.ledger = append(p.ledger,
			report.Comparison{Artifact: art, Metric: "time s", Paper: paper[0], Measured: res.Duration},
			report.Comparison{Artifact: art, Metric: "energy J", Paper: paper[1], Measured: float64(res.Energy)})
	}
	p.wall = time.Since(t0)
	p.fingerprint = fingerprintOf(h)
	return p, nil
}
