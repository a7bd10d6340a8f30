package core

import (
	"fmt"

	"edisim/internal/carbon"
	"edisim/internal/cluster"
	"edisim/internal/faults"
	"edisim/internal/hw"
	"edisim/internal/load"
	"edisim/internal/report"
	"edisim/internal/tco"
	"edisim/internal/web"
)

func init() {
	register(Experiment{
		ID:      "overload",
		Title:   "Overload resilience: open-loop load, shedding, retry budgets, SLO",
		Section: "beyond-paper",
		OptIn:   true,
		Run:     runOverload,
	})
}

// safeDiv divides num by den, returning whenZero instead of NaN/Inf when
// the denominator is empty — report tables get explicit zero-traffic
// values, never NaN.
func safeDiv(num, den, whenZero float64) float64 {
	if den == 0 {
		return whenZero
	}
	return num / den
}

// overloadSLO is the objective every overload point is judged against:
// p99 under half a second with 99% availability, evaluated per 1 s window.
func overloadSLO() web.SLO {
	return web.SLO{Latency: 0.5, Percentile: 0.99, Availability: 0.99, Window: 1}
}

// overloadRecovery are the client/server resilience knobs the ladder runs
// with: timeouts + budgeted retries, deadline shedding.
func overloadRunConfig(dur float64) web.RunConfig {
	return web.RunConfig{
		Duration:       dur,
		WarmupFrac:     0.1,
		RequestTimeout: 0.5,
		RetryBudget:    0.1,
		Shed:           web.ShedPolicy{Mode: web.ShedDeadline, Deadline: 0.5},
	}
}

// connCapacity is a platform fleet's nominal connection-accept capacity.
func connCapacity(p *hw.Platform) float64 {
	return float64(p.Fleet.Web) * p.Web.ConnRate
}

// overloadTestbed builds one platform's catalog web fleet.
func overloadTestbed(cfg Config, p *hw.Platform, seed int64) *web.Deployment {
	tb := cluster.New(cluster.Config{
		Groups:  []cluster.GroupConfig{{Platform: p, Nodes: p.Fleet.Web + p.Fleet.Cache}},
		DBNodes: 2, Clients: 8,
		Interrupt: cfg.Interrupt,
		Energy:    cfg.Energy,
	})
	return web.NewDeployment(tb, p, p.Fleet.Web, p.Fleet.Cache, seed)
}

// runOverload re-asks the paper's req/s/W question the way production asks
// it: under open-loop traffic, what does each platform fleet serve at an
// SLO, and how does it behave past saturation? Two stages per platform:
//
//   - Ladder: steady open-loop arrivals at 0.5×..3× the fleet's connection
//     capacity with shedding + retry budgets on, reporting goodput, shed
//     rate, p99/p999, power, req/s/W and an SLO verdict per point (read
//     req/s/W on the rows that meet the SLO: the energy-proportionality
//     lens — a fleet that only meets the SLO at full saturation is not the
//     fleet that meets it in production).
//   - Drill: a flash-crowd spike to ~2.2× capacity with a rolling crash of
//     a quarter of the web tier mid-spike (cfg.Faults, when set, replaces
//     the built-in crash plan via its "web" events), brownout enabled —
//     pinning "degrades, recovers, never collapses": goodput during and
//     after the incident is compared against the pre-spike level.
func runOverload(cfg Config) *Outcome {
	o := &Outcome{}
	plats := cfg.MatrixPlatforms()
	dur := webDuration(cfg) * 2

	mults := []float64{0.5, 1, 1.5, 2, 3}
	if cfg.Quick {
		mults = []float64{0.5, 1, 2}
	}

	// --- Ladder: platforms × offered-load multipliers on one sweep.
	type ladderPoint struct {
		res  web.Result
		p99  float64
		p999 float64
		ok   bool // met the SLO over the whole window
	}
	slo := overloadSLO()
	ladder := RunSweep(cfg, "overload/ladder", len(plats)*len(mults),
		func(i int, seed int64) ladderPoint {
			p := plats[i/len(mults)]
			offered := connCapacity(p) * mults[i%len(mults)]
			dep := overloadTestbed(cfg, p, seed)
			rc := overloadRunConfig(dur)
			rc.Profile = load.Steady{Rate: offered}
			s := slo
			rc.SLO = &s
			dep.WarmFor(rc)
			res := dep.Run(rc)
			p99 := res.Latency.Quantile(0.99)
			p999 := res.Latency.Quantile(0.999)
			avail := 1 - res.ErrorRate
			return ladderPoint{
				res:  res,
				p99:  p99,
				p999: p999,
				ok:   p99 <= slo.Latency && avail >= slo.Availability,
			}
		})

	armed := cfg.CarbonArmed()
	ladderCols := []string{"platform", "offered conn/s", "×capacity", "goodput req/s", "shed/s", "p99 s", "p999 s", "power W", "req/s/W", "SLO"}
	ladderUnits := []string{"", "conn/s", "x", "req/s", "/s", "s", "s", "W", "req/s/W", ""}
	if armed {
		ladderCols = append(ladderCols, "gCO2e/h", "req per gCO2e", fmt.Sprintf("energy $/h (%s)", cfg.Grid().Region))
		ladderUnits = append(ladderUnits, "g/h", "req/g", "$/h")
	}
	regionPrice, _ := tco.RegionPrice(cfg.Grid().Region)
	tab := report.NewTable("Overload ladder — open-loop goodput, shedding and tails at the SLO (p99 ≤ 0.5 s, availability ≥ 99%)",
		ladderCols...).WithUnits(ladderUnits...)
	for pi, p := range plats {
		window := dur * 0.9
		for mi, m := range mults {
			lp := ladder[pi*len(mults)+mi]
			r := lp.res
			perW := safeDiv(r.Throughput, float64(r.MeanPower), 0)
			verdict := "ok"
			if !lp.ok {
				verdict = "burned"
			}
			gph := gramsPerHourAt(cfg, float64(r.MeanPower))
			perG := safeDiv(r.Throughput*3600, gph, 0)
			row := []any{p.Label,
				report.Num(connCapacity(p)*m, "conn/s"),
				report.Num(m, "x"),
				report.Num(r.Throughput, "req/s"),
				report.Num(safeDiv(float64(r.Shed), window, 0), "/s"),
				report.Num(lp.p99, "s"),
				report.Num(lp.p999, "s"),
				report.Num(float64(r.MeanPower), "W"),
				report.Num(perW, "req/s/W"),
				verdict}
			if armed {
				// Wall draw at the regional tariff, facility overhead included.
				dollarsPerHour := float64(r.MeanPower) / 1000 * carbon.DefaultPUE * regionPrice
				row = append(row, report.Num(gph, "g/h"), report.Num(perG, "req/g"),
					report.Num(dollarsPerHour, "$/h"))
			}
			tab.AddRow(row...)
		}
	}
	o.Tables = append(o.Tables, tab)

	// p99-vs-offered-load and goodput-vs-offered-load curves (x in units of
	// fleet capacity so platforms share an axis).
	figP99 := report.NewFigure("Overload — p99 vs offered load", "offered load (x fleet capacity)", "p99 delay (s)", mults)
	figGood := report.NewFigure("Overload — goodput vs offered load", "offered load (x fleet capacity)", "goodput (req/s)", mults)
	for pi, p := range plats {
		p99s := make([]float64, len(mults))
		goods := make([]float64, len(mults))
		for mi := range mults {
			lp := ladder[pi*len(mults)+mi]
			p99s[mi] = lp.p99
			goods[mi] = lp.res.Throughput
		}
		figP99.Add(p.Label, p99s)
		figGood.Add(p.Label, goods)
	}
	o.Figures = append(o.Figures, figP99, figGood)

	// --- Drill: spike + mid-spike rolling crash, brownout on.
	spikeStart := dur / 3
	spikeDur := dur / 3
	crashAt := spikeStart + 0.2*spikeDur
	type drillResult struct {
		res            web.Result
		pre, mid, post float64 // goodput req/s by phase
		p999           float64
	}
	drill := RunSweep(cfg, "overload/drill", len(plats),
		func(i int, seed int64) drillResult {
			p := plats[i]
			dep := overloadTestbed(cfg, p, seed)
			rc := overloadRunConfig(dur)
			cap := connCapacity(p)
			rc.Profile = load.Spike{Base: 0.5 * cap, Peak: 2.2 * cap, Start: spikeStart, Duration: spikeDur}
			s := slo
			s.Brownout = true
			rc.SLO = &s
			dep.WarmFor(rc)

			victims := p.Fleet.Web / 4
			if victims == 0 {
				victims = 1
			}
			plan := faults.RollingCrashes("web", victims, crashAt, 0.3, 0.25*dur)
			if cfg.Faults != nil {
				plan = cfg.Faults.Filter("web")
			}
			if !plan.Empty() {
				targets := make([]faults.Target, len(dep.Web))
				for wi, w := range dep.Web {
					targets[wi] = faults.Target{Node: w.Node, Fab: dep.Fab}
				}
				faults.Schedule(dep.Eng, plan, seed, map[string][]faults.Target{"web": targets})
			}
			res := dep.Run(rc)

			phase := func(from, to float64) float64 {
				var served int64
				n := 0
				for _, w := range res.Windows {
					if w.T > from && w.T <= to {
						served += w.Served
						n++
					}
				}
				return safeDiv(float64(served), float64(n)*s.Window, 0)
			}
			return drillResult{
				res:  res,
				pre:  phase(1, spikeStart),
				mid:  phase(crashAt, spikeStart+spikeDur),
				post: phase(spikeStart+spikeDur+0.25*dur, dur),
				p999: res.Latency.Quantile(0.999),
			}
		})

	dtab := report.NewTable(
		fmt.Sprintf("Overload drill — flash crowd to 2.2x capacity with a rolling crash of a quarter of the web tier at t=%.0fs (brownout on)", crashAt),
		"platform", "web", "pre req/s", "spike+crash req/s", "recovered req/s", "p999 s", "shed/s", "degraded/s", "retry amp", "denied", "verdict").
		WithUnits("", "nodes", "req/s", "req/s", "req/s", "s", "/s", "/s", "x", "", "")
	for pi, p := range plats {
		d := drill[pi]
		r := d.res
		window := dur * 0.9
		amp := safeDiv(float64(r.Attempts), float64(r.Latency.N()+r.Errors500), 1)
		// "Never collapses": both the incident and the recovered phases hold
		// at least 80% of the pre-spike goodput.
		verdict := "degrades+recovers"
		if d.pre == 0 {
			verdict = "no traffic"
		} else if d.mid < 0.8*d.pre || d.post < 0.8*d.pre {
			verdict = "COLLAPSED"
		}
		dtab.AddRow(p.Label, p.Fleet.Web,
			report.Num(d.pre, "req/s"),
			report.Num(d.mid, "req/s"),
			report.Num(d.post, "req/s"),
			report.Num(d.p999, "s"),
			report.Num(safeDiv(float64(r.Shed), window, 0), "/s"),
			report.Num(safeDiv(float64(r.Degraded), window, 0), "/s"),
			report.Num(amp, "x"),
			report.Count(r.RetryDenied, ""),
			verdict)
	}
	o.Tables = append(o.Tables, dtab)

	o.Notes = append(o.Notes,
		"open-loop arrivals: the client population sends at the profiled rate whether or not the fleet keeps up; goodput is successful replies inside the measurement window",
		"every point runs with deadline shedding (0.5 s), a 10% retry budget and 0.5 s client timeouts; the drill adds brownout (stale cache-only answers while the SLO burns)",
		"the ladder's SLO column reads ok when p99 <= 0.5 s and availability >= 99%; read req/s/W on ok rows, the energy-proportionality lens of Subramaniam & Feng, rather than as peak throughput per watt",
	)
	if armed {
		o.Notes = append(o.Notes, carbonLensNote(cfg))
	}
	return o
}
