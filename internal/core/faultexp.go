package core

import (
	"fmt"

	"edisim/internal/faults"
	"edisim/internal/jobs"
	"edisim/internal/mapred"
	"edisim/internal/report"
	"edisim/internal/web"
)

func init() {
	register(Experiment{
		ID:      "fault_tolerance",
		Title:   "Availability under failure: web & TeraSort with fault injection",
		Section: "beyond-paper",
		OptIn:   true,
		Run:     runFaultTolerance,
	})
}

// defaultWebFaultPlan is the built-in web drill: a third of the tier crashes
// in a rolling wave through the middle of the measurement window, each node
// rebooting after downtime seconds.
func defaultWebFaultPlan(nWeb int, duration float64) *faults.Plan {
	count := nWeb / 3
	if count == 0 {
		count = 1
	}
	start := 0.25 * duration
	gap := 0.5 * duration / float64(count)
	return faults.RollingCrashes("web", count, start, gap, gap*0.8)
}

// defaultBatchFaultPlan is the built-in Hadoop drill: one slave crashes
// mid-job and reboots two minutes later.
func defaultBatchFaultPlan(baseline float64) *faults.Plan {
	return &faults.Plan{Events: []faults.Event{
		{Kind: faults.NodeCrash, At: 0.3 * baseline, Duration: 120, Role: "slave", Index: 1},
	}}
}

// webFaultRecovery is the client-side recovery policy every web availability
// point runs with: 500 ms request timeout, defaults for retries/backoff.
var webFaultRecovery = web.RunConfig{RequestTimeout: 0.5}

// faultWebResult is one platform's availability measurement.
type faultWebResult struct {
	healthy, faulty web.Result
}

// runFaultTolerance measures availability under failure across the
// configured platform set (cmd/paper's -platforms): every platform's
// catalog web fleet runs the httperf workload twice — healthy, then under a
// rolling-crash fault plan with client timeouts/retries/failover enabled —
// and its Hadoop fleet runs TeraSort healthy and with a mid-job slave crash
// under task re-execution. Reported per platform: availability (successful
// share of attempted operations), goodput, p99 delay under failure, retry
// amplification, and job-completion slowdown. cfg.Faults, when set,
// replaces the built-in plans (events against roles "web", "slave" and
// "master" are honored; other roles are for rosters this experiment does
// not build).
func runFaultTolerance(cfg Config) *Outcome {
	o := &Outcome{}
	plats := cfg.MatrixPlatforms()
	duration := webDuration(cfg) * 2
	conc := 512.0
	if cfg.Quick {
		conc = 256
	}

	// --- Web availability: per platform, healthy + faulty on one sweep.
	webResults := RunSweep(cfg, "fault_tolerance/web", len(plats),
		func(i int, seed int64) faultWebResult {
			p := plats[i]
			rc := webFaultRecovery
			rc.Concurrency = conc
			rc.Duration = duration
			plan := defaultWebFaultPlan(p.Fleet.Web, duration)
			if cfg.Faults != nil {
				plan = cfg.Faults.Filter("web")
			}
			return faultWebResult{
				healthy: RunWebPoint(cfg, fleetTier(p), rc, nil, seed),
				faulty:  RunWebPoint(cfg, fleetTier(p), rc, plan, seed),
			}
		})

	webTab := report.NewTable("Fault tolerance — web availability under rolling crashes",
		"platform", "web", "healthy req/s", "goodput req/s", "availability %", "p99 delay s", "retry amp", "timeouts").
		WithUnits("", "nodes", "req/s", "req/s", "%", "s", "x", "")
	for pi, p := range plats {
		r := webResults[pi]
		// A faulty run that settled no operations at all (total outage or a
		// degenerate plan) must say so, not report a vacuous 100%
		// availability computed over zero attempts.
		if r.faulty.Throughput == 0 && r.faulty.Errors500 == 0 && r.faulty.ConnFailures == 0 {
			webTab.AddRow(p.Label, p.Fleet.Web,
				report.Num(r.healthy.Throughput, "req/s"),
				report.Num(0, "req/s"),
				"no traffic", "no traffic",
				report.Num(1, "x"),
				report.Count(r.faulty.Timeouts, ""))
			continue
		}
		avail := 100 * (1 - r.faulty.ErrorRate)
		amp := safeDiv(float64(r.faulty.Attempts), float64(r.faulty.Latency.N()+r.faulty.Errors500), 1)
		p99 := r.faulty.Latency.Quantile(0.99)
		webTab.AddRow(p.Label, p.Fleet.Web,
			report.Num(r.healthy.Throughput, "req/s"),
			report.Num(r.faulty.Throughput, "req/s"),
			report.Num(avail, "%"),
			report.Num(p99, "s"),
			report.Num(amp, "x"),
			report.Count(r.faulty.Timeouts, ""))
	}
	o.Tables = append(o.Tables, webTab)

	// --- TeraSort under a mid-job slave crash, against the healthy run.
	type teraPair struct{ healthy, faulty *mapred.JobResult }
	teraResults := RunSweep(cfg, "fault_tolerance/terasort", len(plats),
		func(i int, seed int64) teraPair {
			p := plats[i]
			groups := []jobs.SlaveGroup{{Platform: p, Nodes: p.Fleet.Slaves}}
			healthy, err := jobs.RunGroups("terasort", groups, seed, cfg.Energy, cfg.Interrupt)
			if err != nil {
				panic(fmt.Sprintf("core: terasort on %s: %v", p.Label, err))
			}
			plan := defaultBatchFaultPlan(healthy.Duration)
			if cfg.Faults != nil {
				plan = cfg.Faults.Filter("slave", "master")
			}
			ft := &mapred.FaultTolerance{TaskTimeout: healthy.Duration}
			faulty, err := jobs.RunGroupsFaulty("terasort", groups, seed, cfg.Energy, plan, ft,
				20*healthy.Duration, cfg.Interrupt)
			if err != nil {
				panic(fmt.Sprintf("core: faulty terasort on %s: %v", p.Label, err))
			}
			return teraPair{healthy, faulty}
		})

	teraTab := report.NewTable("Fault tolerance — TeraSort with a mid-job slave crash",
		"platform", "slaves", "healthy s", "faulty s", "slowdown", "completed", "retries", "lost map outputs").
		WithUnits("", "nodes", "s", "s", "x", "", "", "")
	for pi, p := range plats {
		r := teraResults[pi]
		slow := safeDiv(r.faulty.Duration, r.healthy.Duration, 0)
		state := "yes"
		if !r.faulty.Completed {
			state = "NO: " + r.faulty.FailReason
		}
		teraTab.AddRow(p.Label, p.Fleet.Slaves,
			report.Num(r.healthy.Duration, "s"),
			report.Num(r.faulty.Duration, "s"),
			report.Num(slow, "x"),
			state,
			report.Count(int64(r.faulty.TaskRetries), ""),
			report.Count(int64(r.faulty.LostMapOutputs), ""))
	}
	o.Tables = append(o.Tables, teraTab)

	o.Notes = append(o.Notes,
		"web drill: a third of the web tier crashes in a rolling wave with client timeout/retry/failover on; batch drill: one slave crashes at 30% of the healthy runtime and reboots 2 minutes later",
		"availability = successful share of attempted operations in the measurement window; retry amplification = request transmissions per settled operation")
	return o
}
