package core

import (
	"fmt"

	"edisim/internal/hw"
	"edisim/internal/jobs"
	"edisim/internal/mapred"
	"edisim/internal/report"
	"edisim/internal/tco"
	"edisim/internal/units"
	"edisim/internal/web"
)

func init() {
	register(Experiment{
		ID:      "platform_matrix",
		Title:   "Cross-platform web & TeraSort matrix",
		Section: "beyond-paper",
		OptIn:   true,
		Run:     runPlatformMatrix,
	})
}

// matrixConcurrencies is the httperf axis swept per platform to locate the
// peak; the catalog's fleet sizes keep every platform in its sensible
// operating band across this range.
func matrixConcurrencies(cfg Config) []float64 {
	if cfg.Quick {
		return []float64{256, 1024}
	}
	return []float64{128, 256, 512, 1024, 2048}
}

// runPlatformMatrix runs the web-serving and TeraSort workloads across the
// configured platform set (cmd/paper's -platforms; the whole catalog by
// default), each on its catalog fleet, and reports throughput-per-watt and
// 3-year-TCO matrices. This is the experiment the platform catalog exists
// for: adding a platform to hw makes it show up here with zero code.
func runPlatformMatrix(cfg Config) *Outcome {
	o := &Outcome{}
	plats := cfg.MatrixPlatforms()
	concs := matrixConcurrencies(cfg)
	// Fleets are priced at Table 9's tariff with the armed power model's
	// endpoints; the lens columns add the regional price.
	pr := tco.Pricing{Model: cfg.Energy}

	// --- Web serving: one sweep cell per (platform, concurrency).
	type webCell struct {
		p    *hw.Platform
		conc float64
	}
	s := Sweep[webCell, web.Result]{Name: "platform_matrix/web"}
	for _, p := range plats {
		for _, conc := range concs {
			s.Points = append(s.Points, webCell{p, conc})
		}
	}
	s.Point = func(_ int, c webCell, seed int64) web.Result {
		return RunWebPoint(cfg, fleetTier(c.p), web.RunConfig{
			Concurrency: c.conc,
			Duration:    webDuration(cfg),
		}, nil, seed)
	}
	webResults := s.Run(cfg)

	webCols, webUnits := lensHeaders(
		[]string{"platform", "web", "cache", "peak req/s", "W at peak", "req/s per W", "3y TCO $", "req/s per TCO-k$"},
		[]string{"", "nodes", "nodes", "req/s", "W", "req/s/W", "$", "req/s/k$"},
		peakLens(cfg, web.Result{}, nil, 0))
	webTab := report.NewTable("Platform matrix — web serving (catalog fleets, 93% cache hit)",
		webCols...).WithUnits(webUnits...)
	for pi, p := range plats {
		pk := peakOf(webResults[pi*len(concs) : (pi+1)*len(concs)])
		// Web-service TCO at the paper's high-utilization point.
		n := p.Fleet.Web + p.Fleet.Cache
		cost := tco.MustCompute(pr.Inputs(p, n, tco.WebUtil)).Total()
		webTab.AddRow(lensCells([]any{p.Label, p.Fleet.Web, p.Fleet.Cache, report.Num(pk.Throughput, "req/s"),
			report.Num(float64(pk.MeanPower), "W"), report.Num(pk.PerWatt(), "req/s/W"), report.Num(cost, "$"),
			report.Num(safeDiv(pk.Throughput, cost/1000, 0), "req/s/k$")}, peakLens(cfg, pk, p, n))...)
	}
	o.Tables = append(o.Tables, webTab)

	// --- TeraSort: one cell per platform, each a whole Hadoop run.
	teraResults := RunSweep(cfg, "platform_matrix/terasort", len(plats),
		func(i int, seed int64) *mapred.JobResult {
			p := plats[i]
			r, err := jobs.Run("terasort", p, p.Fleet.Slaves, seed, cfg.Energy, cfg.Interrupt)
			if err != nil {
				panic(fmt.Sprintf("core: terasort on %s: %v", p.Label, err))
			}
			return r
		})

	teraCols, teraUnits := lensHeaders(
		[]string{"platform", "slaves", "time s", "energy J", "MB per J", "3y TCO $", "GB per TCO-$"},
		[]string{"", "nodes", "s", "J", "MB/J", "$", "GB/$"},
		jobRun{}.lens(cfg))
	teraTab := report.NewTable("Platform matrix — TeraSort (10 GB, catalog fleets)",
		teraCols...).WithUnits(teraUnits...)
	for pi, p := range plats {
		// Big-data TCO at Table 10's utilization.
		r := teraResults[pi]
		run := jobRun{input: jobs.TerasortBytes, energy: r.Energy, p: p, n: p.Fleet.Slaves, util: tco.HadoopUtil(p)}
		run.cost = tco.MustCompute(pr.Inputs(p, run.n, run.util)).Total()
		mbPerJ, gbPerDollar := run.efficiency()
		teraTab.AddRow(lensCells([]any{p.Label, p.Fleet.Slaves, report.Num(r.Duration, "s"),
			report.Num(float64(r.Energy), "J"), mbPerJ, report.Num(run.cost, "$"), gbPerDollar},
			run.lens(cfg))...)
	}
	o.Tables = append(o.Tables, teraTab)

	o.Notes = append(o.Notes,
		"fleets and calibration are catalog data (internal/hw, PLATFORMS.md); peak is the best point of the swept concurrency axis")
	o.Notes = append(o.Notes, carbonLensNote(cfg)...)
	return o
}

// peakOf returns the run of a concurrency sweep that served the most (the
// first on a tie, a zero Result when none served anything).
func peakOf(rs []web.Result) web.Result {
	var pk web.Result
	for _, r := range rs {
		if r.Throughput > pk.Throughput {
			pk = r
		}
	}
	return pk
}

// jobRun is one Hadoop run read through the efficiency lens: the metered
// joules of a job over input bytes, on n slaves of p whose fleet costs
// cost over 3 years at utilization util. The zero jobRun names the columns
// and reads as an empty row.
type jobRun struct {
	input      units.Bytes
	energy     units.Joules
	p          *hw.Platform
	n          int
	util, cost float64
}

// efficiency reads MB of input per metered joule and GB per TCO dollar (0
// where nothing was metered or priced).
func (j jobRun) efficiency() (mbPerJ, gbPerDollar report.Value) {
	in := float64(j.input)
	return report.Num(safeDiv(in/float64(units.MB), float64(j.energy), 0), "MB/J"),
		report.Num(safeDiv(in/float64(units.GB), j.cost, 0), "GB/$")
}

// lens is the run's armed columns: grams per run, MB per gram and the
// fleet's regional TCO.
func (j jobRun) lens(cfg Config) []lensCol {
	return append(jobLens(cfg, j.energy, j.input), fleetCostLens(cfg, j.p, j.n, j.util)...)
}
