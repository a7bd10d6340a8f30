package core

import (
	"fmt"
	"math"

	"edisim/internal/cluster"
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
		ID:      "equal_budget",
		Title:   "Equal-budget fleet comparison (fleets sized to the brawny baseline's 3-year TCO)",
		Section: "beyond-paper",
		OptIn:   true,
		Run:     runEqualBudget,
	})
}

// runEqualBudget is the registry wrapper: catalog data cannot produce an
// invalid spec, so errors here are programming bugs.
func runEqualBudget(cfg Config) *Outcome {
	o, err := EqualBudget(cfg, EqualBudgetSpec{})
	if err != nil {
		panic(fmt.Sprintf("core: equal_budget: %v", err))
	}
	return o
}

// EqualBudgetSpec parameterizes the equal-budget comparison. The zero value
// reproduces the paper's framing: every platform sized to what the brawny
// baseline fleet costs over 3 years.
type EqualBudgetSpec struct {
	// SweepName namespaces per-point seeds (default "equal_budget"). Two
	// comparisons in one scenario need distinct names.
	SweepName string
	// Baseline sets the budget: its catalog web and Hadoop fleets priced
	// with the 3-year TCO model. Nil selects the configured brawny
	// platform (the paper's Dell R620).
	Baseline *hw.Platform
	// Platforms is the compared set; nil selects cfg.MatrixPlatforms().
	Platforms []*hw.Platform
	// Job is the Hadoop workload sized fleets run (default "terasort").
	Job string
	// Budget overrides both derived budgets with an explicit 3-year spend
	// in USD; 0 derives them from the baseline fleets.
	Budget float64
}

// Equal-budget utilization points follow Table 10: web fleets at the
// paper's high-utilization point; big-data micro fleets pinned at 100%
// (their jobs run 1.35–4× longer), brawny fleets at 74%.
const equalBudgetWebUtil = 0.75

func hadoopUtil(p *hw.Platform) float64 {
	if p.Micro {
		return 1.0
	}
	return 0.74
}

// fleetSizing is one platform's budget-normalized deployment.
type fleetSizing struct {
	p          *hw.Platform
	web, cache int     // web-tier split (0,0 when the budget is too small)
	slaves     int     // Hadoop slave count (0 when too small)
	webCost    float64 // 3-year TCO of the sized web+cache fleet
	hadoopCost float64 // 3-year TCO of the sized slave fleet
}

// sizeWebTier splits a node total between web and cache in the platform's
// catalog fleet ratio (the shape its reference deployment uses), keeping
// at least one node of each role. Totals below two nodes cannot field both
// tiers and return (0, 0).
func sizeWebTier(p *hw.Platform, total int) (nWeb, nCache int) {
	if total < 2 {
		return 0, 0
	}
	w, c := p.Fleet.Web, p.Fleet.Cache
	if w <= 0 || c <= 0 {
		w, c = 2, 1 // sensible default ratio for fleet-less custom platforms
	}
	nWeb = int(math.Round(float64(total) * float64(w) / float64(w+c)))
	if nWeb < 1 {
		nWeb = 1
	}
	if nWeb > total-1 {
		nWeb = total - 1
	}
	return nWeb, total - nWeb
}

// ladderScales labels the Table-6-style rungs.
var ladderScales = []string{"full", "1/2", "1/4", "1/8"}

// ladderFor builds a platform's scale ladder by successively halving the
// sized fleet (ceil, as the paper's Table 6 does: 24/11 → 12/6 → 6/3 →
// 3/2), stopping once both tiers hit one node. Quick runs keep two rungs.
func ladderFor(cfg Config, nWeb, nCache int) [][2]int {
	rungs := [][2]int{{nWeb, nCache}}
	maxRungs := len(ladderScales)
	if cfg.Quick {
		maxRungs = 2
	}
	for len(rungs) < maxRungs {
		prev := rungs[len(rungs)-1]
		if prev[0] == 1 && prev[1] == 1 {
			break
		}
		rungs = append(rungs, [2]int{(prev[0] + 1) / 2, (prev[1] + 1) / 2})
	}
	return rungs
}

// EqualBudget runs the equal-budget fleet comparison: it prices the
// baseline's catalog web and Hadoop fleets with the 3-year TCO model, sizes
// every compared platform's fleets to those budgets (tco.SizeForBudget),
// then measures what each equal-spend fleet actually delivers — peak web
// throughput across a Table-6-style scale ladder and one Hadoop job —
// reporting throughput-per-watt and throughput-per-dollar matrices. This is
// the paper's §6 economic question asked of the whole catalog: not "what
// does a fixed fleet cost" but "what does a fixed spend buy".
func EqualBudget(cfg Config, spec EqualBudgetSpec) (*Outcome, error) {
	name := spec.SweepName
	if name == "" {
		name = "equal_budget"
	}
	baseline := spec.Baseline
	if baseline == nil {
		_, baseline = cfg.Pair()
	}
	job := spec.Job
	if job == "" {
		job = "terasort"
	}
	known := false
	for _, n := range jobs.Names() {
		known = known || n == job
	}
	if !known {
		return nil, fmt.Errorf("unknown Hadoop job %q (valid: %v)", job, jobs.Names())
	}
	plats := spec.Platforms
	if len(plats) == 0 {
		plats = cfg.MatrixPlatforms()
	}

	// --- Budgets: what the baseline fleets cost over the model lifetime.
	webBudget, hadoopBudget := spec.Budget, spec.Budget
	if spec.Budget < 0 || math.IsNaN(spec.Budget) || math.IsInf(spec.Budget, 0) {
		return nil, fmt.Errorf("budget $%v must be positive and finite", spec.Budget)
	}
	if spec.Budget == 0 {
		f := baseline.Fleet
		if f.Web <= 0 || f.Cache <= 0 || f.Slaves <= 0 {
			return nil, fmt.Errorf("baseline %s has no catalog fleet to price (web %d, cache %d, slaves %d) — set an explicit Budget",
				baseline.Name, f.Web, f.Cache, f.Slaves)
		}
		wb, err := tco.Compute(tco.ForPlatform(baseline, f.Web+f.Cache, equalBudgetWebUtil))
		if err != nil {
			return nil, err
		}
		hb, err := tco.Compute(tco.ForPlatform(baseline, f.Slaves, hadoopUtil(baseline)))
		if err != nil {
			return nil, err
		}
		webBudget, hadoopBudget = wb.Total(), hb.Total()
	}

	// --- Sizing: pure math, no simulation yet.
	o := &Outcome{}
	sizings := make([]fleetSizing, len(plats))
	for i, p := range plats {
		total, err := tco.SizeForBudget(p, webBudget, equalBudgetWebUtil)
		if err != nil {
			return nil, err
		}
		if total > cluster.MaxGroupNodes {
			o.Notes = append(o.Notes, fmt.Sprintf("%s: web fleet capped at the %d-node group bound (budget buys %d)",
				p.Label, cluster.MaxGroupNodes, total))
			total = cluster.MaxGroupNodes
		}
		slaves, err := tco.SizeForBudget(p, hadoopBudget, hadoopUtil(p))
		if err != nil {
			return nil, err
		}
		if slaves > cluster.MaxGroupNodes-1 { // a self-hosted master shares the group
			o.Notes = append(o.Notes, fmt.Sprintf("%s: slave fleet capped at %d nodes (budget buys %d)",
				p.Label, cluster.MaxGroupNodes-1, slaves))
			slaves = cluster.MaxGroupNodes - 1
		}
		s := fleetSizing{p: p, slaves: slaves}
		s.web, s.cache = sizeWebTier(p, total)
		if s.web > 0 {
			s.webCost = tco.MustCompute(tco.ForPlatform(p, s.web+s.cache, equalBudgetWebUtil)).Total()
		}
		if s.slaves > 0 {
			s.hadoopCost = tco.MustCompute(tco.ForPlatform(p, s.slaves, hadoopUtil(p))).Total()
		}
		sizings[i] = s
		if s.web == 0 {
			o.Notes = append(o.Notes, fmt.Sprintf("%s: the $%.0f web budget cannot field a two-tier fleet", p.Label, webBudget))
		}
		if s.slaves == 0 {
			o.Notes = append(o.Notes, fmt.Sprintf("%s: the $%.0f big-data budget cannot buy one slave", p.Label, hadoopBudget))
		}
	}

	sizeTab := report.NewTable(
		fmt.Sprintf("Equal-budget sizing — web $%.0f / big data $%.0f (3-year TCO of %d+%d / %d %s)",
			webBudget, hadoopBudget, baseline.Fleet.Web, baseline.Fleet.Cache, baseline.Fleet.Slaves, baseline.Label),
		"platform", "$ per server (3y)", "web", "cache", "slaves", "web fleet $", "slave fleet $").
		WithUnits("", "$", "nodes", "nodes", "nodes", "$", "$")
	for _, s := range sizings {
		per := tco.MustCompute(tco.ForPlatform(s.p, 1, equalBudgetWebUtil)).Total()
		sizeTab.AddRow(s.p.Label, report.Num(per, "$"),
			report.Count(int64(s.web), "nodes"), report.Count(int64(s.cache), "nodes"),
			report.Count(int64(s.slaves), "nodes"),
			report.Num(s.webCost, "$"), report.Num(s.hadoopCost, "$"))
	}
	o.Tables = append(o.Tables, sizeTab)

	// --- Web serving: every (platform, ladder rung, concurrency) cell is
	// an independent simulation in one flat sweep; rung 0 (the full sized
	// fleet) feeds the matrix, all rungs feed the scale-ladder table.
	type webCell struct {
		sizing     int // index into sizings
		rung       int
		web, cache int
		conc       float64
	}
	concs := matrixConcurrencies(cfg)
	ladders := make([][][2]int, len(sizings))
	s := Sweep[webCell, web.Result]{Name: name + "/web"}
	for i, sz := range sizings {
		if sz.web == 0 {
			continue
		}
		ladders[i] = ladderFor(cfg, sz.web, sz.cache)
		for r, rung := range ladders[i] {
			for _, conc := range concs {
				s.Points = append(s.Points, webCell{sizing: i, rung: r, web: rung[0], cache: rung[1], conc: conc})
			}
		}
	}
	s.Point = func(_ int, c webCell, seed int64) web.Result {
		return runWebPoint(cfg, sizings[c.sizing].p, c.web, c.cache, web.RunConfig{
			Concurrency: c.conc,
			Duration:    webDuration(cfg),
		}, seed)
	}
	webResults := s.Run(cfg)

	// Regroup the flat results: peak throughput and its power per rung.
	type rungPeak struct{ peak, power float64 }
	peaks := make([][]rungPeak, len(sizings))
	for i := range sizings {
		peaks[i] = make([]rungPeak, len(ladders[i]))
	}
	for pi, c := range s.Points {
		r := webResults[pi]
		if r.Throughput > peaks[c.sizing][c.rung].peak {
			peaks[c.sizing][c.rung] = rungPeak{peak: r.Throughput, power: float64(r.MeanPower)}
		}
	}

	armed := cfg.CarbonArmed()
	webCols := []string{"platform", "web", "cache", "fleet 3y $", "peak req/s", "W at peak", "req/s per W", "req/s per TCO-k$"}
	webColUnits := []string{"", "nodes", "nodes", "$", "req/s", "W", "req/s/W", "req/s/k$"}
	if armed {
		webCols = append(webCols, "gCO2e/h at peak", "req per gCO2e", regionCostHeader(cfg))
		webColUnits = append(webColUnits, "g/h", "req/g", "$")
	}
	webTab := report.NewTable("Equal-budget web serving — what the same spend buys",
		webCols...).WithUnits(webColUnits...)
	for i, sz := range sizings {
		row := []any{sz.p.Label, report.Count(int64(sz.web), "nodes"), report.Count(int64(sz.cache), "nodes"),
			report.Num(sz.webCost, "$"), report.Num(0, "req/s"), report.Num(0, "W"),
			report.Num(0, "req/s/W"), report.Num(0, "req/s/k$")}
		if sz.web == 0 {
			if armed {
				row = append(row, report.Num(0, "g/h"), report.Num(0, "req/g"), report.Num(0, "$"))
			}
			webTab.AddRow(row...)
			continue
		}
		pk := peaks[i][0]
		perWatt, perK := 0.0, 0.0
		if pk.power > 0 {
			perWatt = pk.peak / pk.power
		}
		if sz.webCost > 0 {
			perK = pk.peak / (sz.webCost / 1000)
		}
		row[4] = report.Num(pk.peak, "req/s")
		row[5] = report.Num(pk.power, "W")
		row[6] = report.Num(perWatt, "req/s/W")
		row[7] = report.Num(perK, "req/s/k$")
		if armed {
			gph := gramsPerHourAt(cfg, pk.power)
			reqPerG := 0.0
			if gph > 0 {
				reqPerG = pk.peak * 3600 / gph
			}
			row = append(row, report.Num(gph, "g/h"), report.Num(reqPerG, "req/g"),
				report.Num(regionalFleetCost(cfg, sz.p, sz.web+sz.cache, equalBudgetWebUtil), "$"))
		}
		webTab.AddRow(row...)
	}
	o.Tables = append(o.Tables, webTab)

	ladderTab := report.NewTable("Equal-budget web scale ladders (Table 6 shape per platform)",
		"platform", "scale", "web", "cache", "peak req/s", "req/s per W").
		WithUnits("", "", "nodes", "nodes", "req/s", "req/s/W")
	for i, sz := range sizings {
		for r, rung := range ladders[i] {
			pk := peaks[i][r]
			perWatt := 0.0
			if pk.power > 0 {
				perWatt = pk.peak / pk.power
			}
			ladderTab.AddRow(sz.p.Label, ladderScales[r],
				report.Count(int64(rung[0]), "nodes"), report.Count(int64(rung[1]), "nodes"),
				report.Num(pk.peak, "req/s"), report.Num(perWatt, "req/s/W"))
		}
	}
	o.Tables = append(o.Tables, ladderTab)

	// --- Hadoop: one whole job per platform on its budget-sized slave
	// fleet.
	type hadoopCell struct{ sizing int }
	var hCells []hadoopCell
	for i, sz := range sizings {
		if sz.slaves > 0 {
			hCells = append(hCells, hadoopCell{sizing: i})
		}
	}
	hResults := RunSweep(cfg, name+"/hadoop", len(hCells),
		func(i int, seed int64) *mapred.JobResult {
			sz := sizings[hCells[i].sizing]
			r, err := jobs.Run(job, sz.p, sz.slaves, seed, cfg.Energy)
			if err != nil {
				panic(fmt.Sprintf("core: %s: %s on %s: %v", name, job, sz.p.Label, err))
			}
			return r
		})

	jobBytes := float64(jobs.TerasortBytes)
	switch job {
	case "wordcount", "wordcount2":
		jobBytes = float64(jobs.WordcountBytes)
	case "logcount", "logcount2":
		jobBytes = float64(jobs.LogcountBytes)
	case "pi":
		jobBytes = 0 // compute-bound: per-byte ratios are meaningless
	}
	hCols := []string{"platform", "slaves", "fleet 3y $", "time s", "energy J", "MB per J", "GB per TCO-$"}
	hColUnits := []string{"", "nodes", "$", "s", "J", "MB/J", "GB/$"}
	if armed {
		hCols = append(hCols, "gCO2e per run", "MB per gCO2e", regionCostHeader(cfg))
		hColUnits = append(hColUnits, "g", "MB/g", "$")
	}
	hTab := report.NewTable(fmt.Sprintf("Equal-budget %s — what the same spend buys", job),
		hCols...).WithUnits(hColUnits...)
	hi := 0
	for _, sz := range sizings {
		if sz.slaves == 0 {
			row := []any{sz.p.Label, report.Count(0, "nodes"), report.Num(0, "$"),
				report.Num(0, "s"), report.Num(0, "J"), report.Num(0, "MB/J"), report.Num(0, "GB/$")}
			if armed {
				row = append(row, report.Num(0, "g"), report.Num(0, "MB/g"), report.Num(0, "$"))
			}
			hTab.AddRow(row...)
			continue
		}
		r := hResults[hi]
		hi++
		mbPerJ, perDollar := 0.0, 0.0
		if r.Energy > 0 && jobBytes > 0 {
			mbPerJ = jobBytes / float64(units.MB) / float64(r.Energy)
		}
		if sz.hadoopCost > 0 && jobBytes > 0 {
			perDollar = jobBytes / float64(units.GB) / sz.hadoopCost
		}
		row := []any{sz.p.Label, report.Count(int64(sz.slaves), "nodes"), report.Num(sz.hadoopCost, "$"),
			report.Num(r.Duration, "s"), report.Num(float64(r.Energy), "J"),
			report.Num(mbPerJ, "MB/J"), report.Num(perDollar, "GB/$")}
		if armed {
			grams := gramsFromJoules(cfg, r.Energy)
			mbPerG := 0.0
			if grams > 0 && jobBytes > 0 {
				mbPerG = jobBytes / float64(units.MB) / grams
			}
			row = append(row, report.Num(grams, "g"), report.Num(mbPerG, "MB/g"),
				report.Num(regionalFleetCost(cfg, sz.p, sz.slaves, hadoopUtil(sz.p)), "$"))
		}
		hTab.AddRow(row...)
	}
	o.Tables = append(o.Tables, hTab)

	o.Notes = append(o.Notes,
		fmt.Sprintf("fleets sized by tco.SizeForBudget to the %s baseline's 3-year TCO (web at %.0f%% utilization; big data pinned at 100%% on micro platforms, 74%% on brawny, as in Table 10)",
			baseline.Label, equalBudgetWebUtil*100))
	if armed {
		o.Notes = append(o.Notes, carbonLensNote(cfg))
	}
	return o, nil
}
