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
	// platform (Config.Pair).
	Baseline *hw.Platform
	// Platforms is the compared set; nil selects cfg.MatrixPlatforms().
	Platforms []*hw.Platform
	// Job is the Hadoop workload sized fleets run (default "terasort").
	Job string
	// Budget overrides both derived budgets with an explicit 3-year spend
	// in USD; 0 derives them from the baseline fleets.
	Budget float64
}

// Resolve fills the spec's defaults under cfg and checks the equal-budget
// rules: the job is known, Budget is finite and not negative, and without a
// Budget the baseline has catalog web, cache and slave fleets to price.
// EqualBudget runs the spec it returns; callers with input from outside
// the program call it to fail before running.
func (s EqualBudgetSpec) Resolve(cfg Config) (EqualBudgetSpec, error) {
	if s.SweepName == "" {
		s.SweepName = "equal_budget"
	}
	if s.Baseline == nil {
		_, s.Baseline = cfg.Pair()
	}
	if s.Job == "" {
		s.Job = "terasort"
	}
	if len(s.Platforms) == 0 {
		s.Platforms = cfg.MatrixPlatforms()
	}
	if err := jobs.CheckJob(s.Job); err != nil {
		return s, err
	}
	if s.Budget < 0 || math.IsNaN(s.Budget) || math.IsInf(s.Budget, 0) {
		return s, fmt.Errorf("budget $%v must be positive and finite", s.Budget)
	}
	if f := s.Baseline.Fleet; s.Budget == 0 && (f.Web <= 0 || f.Cache <= 0 || f.Slaves <= 0) {
		return s, fmt.Errorf("baseline %s has no catalog fleet to price (web %d, cache %d, slaves %d) — set an explicit Budget",
			s.Baseline.Name, f.Web, f.Cache, f.Slaves)
	}
	return s, nil
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

// EqualBudget runs the equal-budget fleet comparison: it prices the
// baseline's catalog web and Hadoop fleets with the 3-year TCO model, sizes
// every compared platform's fleets to those budgets (tco.Pricing.Size),
// then measures what each equal-spend fleet actually delivers — peak web
// throughput across a Table-6-style scale ladder and one Hadoop job —
// reporting throughput-per-watt and throughput-per-dollar matrices. This is
// the paper's §6 economic question asked of the whole catalog: not "what
// does a fixed fleet cost" but "what does a fixed spend buy". Budgets and
// fleets share one pricing: Table 9's tariff with the power model that
// meters the runs (cfg.Energy). The armed lens columns price the same
// fleets at the configured region (lensPricing).
func EqualBudget(cfg Config, spec EqualBudgetSpec) (*Outcome, error) {
	spec, err := spec.Resolve(cfg)
	if err != nil {
		return nil, err
	}
	name, baseline, job, plats := spec.SweepName, spec.Baseline, spec.Job, spec.Platforms

	// --- Budgets: what the baseline fleets cost over the model lifetime.
	pr := tco.Pricing{Model: cfg.Energy}
	webBudget, hadoopBudget := spec.Budget, spec.Budget
	if spec.Budget == 0 {
		f := baseline.Fleet
		wb, err := tco.Compute(pr.Inputs(baseline, f.Web+f.Cache, tco.WebUtil))
		if err != nil {
			return nil, err
		}
		hb, err := tco.Compute(pr.Inputs(baseline, f.Slaves, tco.HadoopUtil(baseline)))
		if err != nil {
			return nil, err
		}
		webBudget, hadoopBudget = wb.Total(), hb.Total()
	}

	// --- Sizing: pure math, no simulation yet.
	o := &Outcome{}
	sizings := make([]fleetSizing, len(plats))
	for i, p := range plats {
		total, err := pr.Size(p, webBudget, tco.WebUtil)
		if err != nil {
			return nil, err
		}
		if total > cluster.MaxGroupNodes {
			o.Notes = append(o.Notes, fmt.Sprintf("%s: web fleet capped at the %d-node group bound (budget buys %d)",
				p.Label, cluster.MaxGroupNodes, total))
			total = cluster.MaxGroupNodes
		}
		slaves, err := pr.Size(p, hadoopBudget, tco.HadoopUtil(p))
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
			s.webCost = tco.MustCompute(pr.Inputs(p, s.web+s.cache, tco.WebUtil)).Total()
		}
		if s.slaves > 0 {
			s.hadoopCost = tco.MustCompute(pr.Inputs(p, s.slaves, tco.HadoopUtil(p))).Total()
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
		per := tco.MustCompute(pr.Inputs(s.p, 1, tco.WebUtil)).Total()
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
	rungs := len(web.ScaleNames) // Table 6's four rungs, two in quick runs
	if cfg.Quick {
		rungs = 2
	}
	s := Sweep[webCell, web.Result]{Name: name + "/web"}
	for i, sz := range sizings {
		if sz.web == 0 {
			continue
		}
		ladders[i] = web.Ladder(sz.web, sz.cache, rungs)
		for r, rung := range ladders[i] {
			for _, conc := range concs {
				s.Points = append(s.Points, webCell{sizing: i, rung: r, web: rung[0], cache: rung[1], conc: conc})
			}
		}
	}
	s.Point = func(_ int, c webCell, seed int64) web.Result {
		return RunWebPoint(cfg, web.TierOn(sizings[c.sizing].p, c.web, c.cache), web.RunConfig{
			Concurrency: c.conc,
			Duration:    webDuration(cfg),
		}, nil, seed)
	}
	webResults := s.Run(cfg)

	// Regroup the flat results: each rung's concurrency cells are
	// contiguous, so its peak is the best run of its slice. An unfielded
	// fleet keeps a zero peak.
	peaks := make([][]web.Result, len(sizings))
	next := 0
	for i := range sizings {
		peaks[i] = make([]web.Result, max(1, len(ladders[i])))
		for r := range ladders[i] {
			peaks[i][r] = peakOf(webResults[next : next+len(concs)])
			next += len(concs)
		}
	}

	webCols, webColUnits := lensHeaders(
		[]string{"platform", "web", "cache", "fleet 3y $", "peak req/s", "W at peak", "req/s per W", "req/s per TCO-k$"},
		[]string{"", "nodes", "nodes", "$", "req/s", "W", "req/s/W", "req/s/k$"},
		peakLens(cfg, web.Result{}, nil, 0))
	webTab := report.NewTable("Equal-budget web serving — what the same spend buys",
		webCols...).WithUnits(webColUnits...)
	for i, sz := range sizings {
		pk := peaks[i][0]
		webTab.AddRow(lensCells([]any{sz.p.Label, report.Count(int64(sz.web), "nodes"), report.Count(int64(sz.cache), "nodes"),
			report.Num(sz.webCost, "$"), report.Num(pk.Throughput, "req/s"), report.Num(float64(pk.MeanPower), "W"),
			report.Num(pk.PerWatt(), "req/s/W"), report.Num(safeDiv(pk.Throughput, sz.webCost/1000, 0), "req/s/k$")},
			peakLens(cfg, pk, sz.p, sz.web+sz.cache))...)
	}
	o.Tables = append(o.Tables, webTab)

	ladderTab := report.NewTable("Equal-budget web scale ladders (Table 6 shape per platform)",
		"platform", "scale", "web", "cache", "peak req/s", "req/s per W").
		WithUnits("", "", "nodes", "nodes", "req/s", "req/s/W")
	for i, sz := range sizings {
		for r, rung := range ladders[i] {
			pk := peaks[i][r]
			ladderTab.AddRow(sz.p.Label, web.ScaleNames[r],
				report.Count(int64(rung[0]), "nodes"), report.Count(int64(rung[1]), "nodes"),
				report.Num(pk.Throughput, "req/s"), report.Num(pk.PerWatt(), "req/s/W"))
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
			r, err := jobs.Run(job, sz.p, sz.slaves, seed, cfg.Energy, cfg.Interrupt)
			if err != nil {
				panic(fmt.Sprintf("core: %s: %s on %s: %v", name, job, sz.p.Label, err))
			}
			return r
		})

	hCols, hColUnits := lensHeaders(
		[]string{"platform", "slaves", "fleet 3y $", "time s", "energy J", "MB per J", "GB per TCO-$"},
		[]string{"", "nodes", "$", "s", "J", "MB/J", "GB/$"},
		jobRun{}.lens(cfg))
	hTab := report.NewTable(fmt.Sprintf("Equal-budget %s — what the same spend buys", job),
		hCols...).WithUnits(hColUnits...)
	hi := 0
	for _, sz := range sizings {
		// A fleet the budget cannot buy reads as a zero run.
		r := &mapred.JobResult{}
		if sz.slaves > 0 {
			r = hResults[hi]
			hi++
		}
		run := jobRun{input: jobs.InputBytes(job), energy: r.Energy, p: sz.p, n: sz.slaves, util: tco.HadoopUtil(sz.p), cost: sz.hadoopCost}
		mbPerJ, gbPerDollar := run.efficiency()
		hTab.AddRow(lensCells([]any{sz.p.Label, report.Count(int64(sz.slaves), "nodes"), report.Num(sz.hadoopCost, "$"),
			report.Num(r.Duration, "s"), report.Num(float64(r.Energy), "J"), mbPerJ, gbPerDollar},
			run.lens(cfg))...)
	}
	o.Tables = append(o.Tables, hTab)

	o.Notes = append(o.Notes,
		fmt.Sprintf("fleets sized by tco.SizeForBudget to the %s baseline's 3-year TCO (web at %.0f%% utilization; big data pinned at 100%% on micro platforms, 74%% on brawny, as in Table 10)",
			baseline.Label, tco.WebUtil*100))
	o.Notes = append(o.Notes, carbonLensNote(cfg)...)
	return o, nil
}
