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
		return runWebPoint(cfg, c.p, c.p.Fleet.Web, c.p.Fleet.Cache, web.RunConfig{
			Concurrency: c.conc,
			Duration:    webDuration(cfg),
		}, seed)
	}
	webResults := s.Run(cfg)

	armed := cfg.CarbonArmed()
	webCols := []string{"platform", "web", "cache", "peak req/s", "W at peak", "req/s per W", "3y TCO $", "req/s per TCO-k$"}
	webUnits := []string{"", "nodes", "nodes", "req/s", "W", "req/s/W", "$", "req/s/k$"}
	if armed {
		webCols = append(webCols, "gCO2e/h at peak", "req per gCO2e", regionCostHeader(cfg))
		webUnits = append(webUnits, "g/h", "req/g", "$")
	}
	webTab := report.NewTable("Platform matrix — web serving (catalog fleets, 93% cache hit)",
		webCols...).WithUnits(webUnits...)
	for pi, p := range plats {
		var peak, peakPower float64
		for _, r := range webResults[pi*len(concs) : (pi+1)*len(concs)] {
			if r.Throughput > peak {
				peak = r.Throughput
				peakPower = float64(r.MeanPower)
			}
		}
		perWatt := 0.0
		if peakPower > 0 {
			perWatt = peak / peakPower
		}
		// Web-service TCO at the paper's high-utilization point (75%),
		// priced with the armed power model's endpoints.
		cost := tco.MustCompute(tco.ForPlatformModel(p, p.Fleet.Web+p.Fleet.Cache, 0.75, cfg.Energy)).Total()
		perK := 0.0
		if cost > 0 {
			perK = peak / (cost / 1000)
		}
		row := []any{p.Label, p.Fleet.Web, p.Fleet.Cache, report.Num(peak, "req/s"),
			report.Num(peakPower, "W"), report.Num(perWatt, "req/s/W"), report.Num(cost, "$"), report.Num(perK, "req/s/k$")}
		if armed {
			gph := gramsPerHourAt(cfg, peakPower)
			reqPerG := 0.0
			if gph > 0 {
				reqPerG = peak * 3600 / gph
			}
			row = append(row, report.Num(gph, "g/h"), report.Num(reqPerG, "req/g"),
				report.Num(regionalFleetCost(cfg, p, p.Fleet.Web+p.Fleet.Cache, 0.75), "$"))
		}
		webTab.AddRow(row...)
	}
	o.Tables = append(o.Tables, webTab)

	// --- TeraSort: one cell per platform, each a whole Hadoop run.
	teraResults := RunSweep(cfg, "platform_matrix/terasort", len(plats),
		func(i int, seed int64) *mapred.JobResult {
			p := plats[i]
			r, err := jobs.Run("terasort", p, p.Fleet.Slaves, seed, cfg.Energy)
			if err != nil {
				panic(fmt.Sprintf("core: terasort on %s: %v", p.Label, err))
			}
			return r
		})

	teraCols := []string{"platform", "slaves", "time s", "energy J", "MB per J", "3y TCO $", "GB per TCO-$"}
	teraUnits := []string{"", "nodes", "s", "J", "MB/J", "$", "GB/$"}
	if armed {
		teraCols = append(teraCols, "gCO2e per run", "MB per gCO2e", regionCostHeader(cfg))
		teraUnits = append(teraUnits, "g", "MB/g", "$")
	}
	teraTab := report.NewTable("Platform matrix — TeraSort (10 GB, catalog fleets)",
		teraCols...).WithUnits(teraUnits...)
	for pi, p := range plats {
		r := teraResults[pi]
		mbPerJ := 0.0
		if r.Energy > 0 {
			mbPerJ = float64(jobs.TerasortBytes) / float64(units.MB) / float64(r.Energy)
		}
		// Big-data TCO: micro fleets run pinned near 100% as in Table 10;
		// brawny fleets at the paper's high-utilization point.
		util := 0.74
		if p.Micro {
			util = 1.0
		}
		cost := tco.MustCompute(tco.ForPlatformModel(p, p.Fleet.Slaves, util, cfg.Energy)).Total()
		perDollar := 0.0
		if cost > 0 {
			perDollar = float64(jobs.TerasortBytes) / float64(units.GB) / cost
		}
		row := []any{p.Label, p.Fleet.Slaves, report.Num(r.Duration, "s"), report.Num(float64(r.Energy), "J"),
			report.Num(mbPerJ, "MB/J"), report.Num(cost, "$"), report.Num(perDollar, "GB/$")}
		if armed {
			grams := gramsFromJoules(cfg, r.Energy)
			mbPerG := 0.0
			if grams > 0 {
				mbPerG = float64(jobs.TerasortBytes) / float64(units.MB) / grams
			}
			row = append(row, report.Num(grams, "g"), report.Num(mbPerG, "MB/g"),
				report.Num(regionalFleetCost(cfg, p, p.Fleet.Slaves, util), "$"))
		}
		teraTab.AddRow(row...)
	}
	o.Tables = append(o.Tables, teraTab)

	o.Notes = append(o.Notes,
		"fleets and calibration are catalog data (internal/hw, PLATFORMS.md); peak is the best point of the swept concurrency axis")
	if armed {
		o.Notes = append(o.Notes, carbonLensNote(cfg))
	}
	return o
}
