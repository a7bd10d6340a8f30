package edisim

import (
	"fmt"
	"math"

	"edisim/internal/carbon"
	"edisim/internal/core"
	"edisim/internal/hw"
	"edisim/internal/jobs"
	"edisim/internal/report"
	"edisim/internal/tco"
	"edisim/internal/web"
)

// --- Paper experiments -----------------------------------------------------

// PaperExperiments runs experiments from the paper registry: every table
// and figure of the source paper, plus the opt-in cross-platform matrices.
// Each experiment becomes its own Artifact.
type PaperExperiments struct {
	// IDs selects experiments by registry ID, run in registration order
	// (see ExperimentIDs). An unknown ID is an error naming the valid set.
	// Empty selects the full default reproduction: every experiment that
	// is not opt-in.
	IDs []string
	// IncludeOptIn adds the opt-in experiments (cross-platform matrices
	// beyond the paper's artifact set) to an empty-IDs selection.
	IncludeOptIn bool
}

// ExperimentIDs lists the registered paper experiment IDs, sorted.
func ExperimentIDs() []string { return core.IDs() }

func (p *PaperExperiments) expand(core.Config) ([]unit, error) {
	// Every selected ID must exist: a typo silently dropping an experiment
	// poisons comparisons downstream.
	wanted := map[string]bool{}
	for _, id := range p.IDs {
		if _, ok := core.Lookup(id); !ok {
			return nil, unknownNameError("experiment", id, core.IDs())
		}
		wanted[id] = true
	}
	var units []unit
	for _, e := range core.Experiments() {
		if len(wanted) > 0 {
			if !wanted[e.ID] {
				continue
			}
		} else if e.OptIn && !p.IncludeOptIn {
			continue
		}
		run := e.Run
		units = append(units, unit{
			id: e.ID, title: e.Title, section: e.Section,
			run: func(cfg core.Config) (*core.Outcome, error) { return run(cfg), nil },
		})
	}
	return units, nil
}

// --- Web sweep -------------------------------------------------------------

// TierSpec sizes one middle-tier role on a platform.
type TierSpec struct {
	Platform PlatformRef
	Nodes    int
}

// WebSweep sweeps the paper's httperf workload over a concurrency axis on
// a web tier and a cache tier that may sit on different platforms — the
// heterogeneous-testbed scenario the platform catalog exists for (e.g. a
// Pi3 web tier in front of a Xeon cache tier).
type WebSweep struct {
	// ID names the artifact (default "web_sweep"). Two web sweeps in one
	// scenario need distinct IDs: the ID namespaces per-point seeds.
	ID string

	// Web is the web-server tier; its platform defaults to the baseline
	// micro server and its size to the platform's fleet web count.
	Web TierSpec
	// Cache is the cache tier; its platform defaults to the web tier's and
	// its size to that platform's fleet cache count.
	Cache TierSpec

	// DBNodes and Clients size the shared infrastructure tier
	// (defaults: the paper's 2 database servers and 8 load generators).
	DBNodes, Clients int

	// Concurrencies is the swept conn/s axis (default: the paper's 8…2048,
	// trimmed in Quick runs).
	Concurrencies []float64
	// ImageFrac is the image-query probability (paper: 0, 0.06, 0.10, 0.20).
	ImageFrac float64
	// CacheHit is the warmed cache hit ratio; 0 means the paper's 0.93,
	// ColdCache means no warm entries.
	CacheHit float64
	// Duration is the simulated seconds per point (default 15, 4 in Quick).
	Duration float64
}

// ColdCache is the CacheHit sentinel for a fully cold cache (the field's
// zero value means "use the paper's 0.93 default").
const ColdCache = web.ColdCache

// resolveTiers applies the shared tier defaults: baseline-micro web tier at
// its fleet size, cache tier on the web platform at its fleet size, the
// paper's 2 DB servers and 8 clients. The resolved tier passes
// web.Tier.Validate, so it builds without panicking.
func resolveTiers(id string, webTier, cacheTier TierSpec, dbNodes, clients int) (web.Tier, error) {
	var ts web.Tier
	webPlat, err := webTier.Platform.resolve()
	if err != nil {
		return ts, err
	}
	if webPlat == nil {
		webPlat, _ = hw.BaselinePair()
	}
	cachePlat, err := cacheTier.Platform.resolve()
	if err != nil {
		return ts, err
	}
	if cachePlat == nil {
		cachePlat = webPlat
	}
	ts = web.Tier{Web: webPlat, Cache: cachePlat, NWeb: webTier.Nodes, NCache: cacheTier.Nodes, DBNodes: dbNodes, Clients: clients}
	if ts.NWeb == 0 {
		ts.NWeb = webPlat.Fleet.Web
	}
	if ts.NCache == 0 {
		ts.NCache = cachePlat.Fleet.Cache
	}
	if ts.DBNodes == 0 {
		ts.DBNodes = 2
	}
	if ts.Clients == 0 {
		ts.Clients = 8
	}
	if err := ts.Validate(); err != nil {
		return ts, fmt.Errorf("edisim: %s: %w", id, err)
	}
	return ts, nil
}

func (ws *WebSweep) expand(cfg core.Config) ([]unit, error) {
	id := ws.ID
	if id == "" {
		id = "web_sweep"
	}
	ts, err := resolveTiers(id, ws.Web, ws.Cache, ws.DBNodes, ws.Clients)
	if err != nil {
		return nil, err
	}
	concs := ws.Concurrencies
	if len(concs) == 0 {
		if cfg.Quick {
			concs = []float64{64, 512, 1024}
		} else {
			concs = []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048}
		}
	}

	title := fmt.Sprintf("Web sweep: %d %s web + %d %s cache", ts.NWeb, ts.Web.Label, ts.NCache, ts.Cache.Label)
	label := fmt.Sprintf("%d %s / %d %s", ts.NWeb, ts.Web.Label, ts.NCache, ts.Cache.Label)

	run := func(cfg core.Config) (*core.Outcome, error) {
		duration := ws.Duration
		if duration == 0 {
			duration = 15
			if cfg.Quick {
				duration = 4
			}
		}
		s := core.Sweep[float64, web.Result]{Name: id, Points: concs}
		s.Point = func(_ int, conc float64, seed int64) web.Result {
			return core.RunWebPoint(cfg, ts, web.RunConfig{
				Concurrency: conc,
				ImageFrac:   ws.ImageFrac,
				CacheHit:    ws.CacheHit,
				Duration:    duration,
			}, nil, seed)
		}
		results := s.Run(cfg)

		o := &core.Outcome{}
		t := report.NewTable(title,
			"conn/s", "req/s", "delay ms", "err rate", "power W", "web cpu %", "cache cpu %").
			WithUnits("conn/s", "req/s", "ms", "", "W", "%", "%")
		var tput, delay, pow []float64
		for i, r := range results {
			t.AddRow(
				report.Num(concs[i], "conn/s"),
				report.Num(r.Throughput, "req/s"),
				report.Num(r.MeanDelay*1e3, "ms"),
				report.Num(r.ErrorRate, ""),
				report.Num(float64(r.MeanPower), "W"),
				report.Num(r.WebCPU*100, "%"),
				report.Num(r.CacheCPU*100, "%"),
			)
			tput = append(tput, r.Throughput)
			delay = append(delay, r.MeanDelay*1e3)
			pow = append(pow, float64(r.MeanPower))
		}
		o.Tables = append(o.Tables, t)
		ft := report.NewFigure(title+" — throughput", "conn/s", "req/s", concs)
		ft.Add(label, tput)
		fd := report.NewFigure(title+" — response delay", "conn/s", "ms", concs)
		fd.Add(label, delay)
		fp := report.NewFigure(title+" — cluster power", "conn/s", "W", concs)
		fp.Add(label, pow)
		o.Figures = append(o.Figures, ft, fd, fp)
		return o, nil
	}
	return []unit{{id: id, title: title, section: "scenario", run: run}}, nil
}

// --- Overload study ----------------------------------------------------------

// OverloadStudy drives a middle tier with an open-loop LoadProfile — the
// traffic the paper's closed-loop httperf sessions cannot produce, where
// arrivals keep coming whether or not the fleet keeps up — and measures how
// it degrades: goodput vs offered load, shed and brownout rates, bounded
// tail quantiles from the streaming digest, retry-budget accounting and the
// SLO controller's window-by-window verdicts. Scenario.Faults, when set, is
// injected into the run (roles "web" and "cache"), so a flash crowd and a
// mid-spike crash compose into one drill.
type OverloadStudy struct {
	// ID names the artifact (default "overload_study") and namespaces the
	// run's seed: two studies in one scenario need distinct IDs.
	ID string

	// Web and Cache size the middle tier exactly like WebSweep: the web
	// platform defaults to the baseline micro server at its fleet size, the
	// cache tier to the web platform at its fleet size.
	Web   TierSpec
	Cache TierSpec
	// DBNodes and Clients size the shared infrastructure tier (defaults:
	// the paper's 2 database servers and 8 load generators).
	DBNodes, Clients int

	// Profile is the open-loop arrival profile (required): SteadyLoad,
	// SpikeLoad, DiurnalLoad, BurstyLoad or ParseLoadProfile's result.
	Profile LoadProfile
	// Duration is the simulated seconds (default 15, 4 in Quick). Profile
	// times are absolute into the run.
	Duration float64
	// ImageFrac and CacheHit mirror WebSweep's workload knobs.
	ImageFrac float64
	CacheHit  float64

	// RequestTimeout is the client timeout in seconds enabling
	// timeout/retry/failover recovery (default 0.5).
	RequestTimeout float64
	// RetryBudget caps client retries at this fraction of first attempts
	// (plus a small burst); 0 leaves retries unbudgeted.
	RetryBudget float64
	// Shed is the server-side admission-control policy; the zero value
	// accepts everything (the paper's behavior).
	Shed ShedPolicy
	// SLO, when non-nil, arms the reactive controller (reserve activation,
	// brownout) and adds the window-by-window time-series figure, drawn
	// from the run's WebResult.Windows.
	SLO *SLO
}

func (ov *OverloadStudy) expand(cfg core.Config) ([]unit, error) {
	id := ov.ID
	if id == "" {
		id = "overload_study"
	}
	ts, err := resolveTiers(id, ov.Web, ov.Cache, ov.DBNodes, ov.Clients)
	if err != nil {
		return nil, err
	}
	if ov.Profile == nil {
		return nil, fmt.Errorf("edisim: %s: an overload study needs a load Profile (e.g. SteadyLoad{Rate: 400})", id)
	}
	rc := web.RunConfig{
		Profile:        ov.Profile,
		Duration:       studyDuration(ov.Duration, cfg, 15, 4),
		ImageFrac:      ov.ImageFrac,
		CacheHit:       ov.CacheHit,
		RequestTimeout: studyTimeout(ov.RequestTimeout),
		RetryBudget:    ov.RetryBudget,
		Shed:           ov.Shed,
		SLO:            ov.SLO,
	}
	if err := rc.Validate(); err != nil {
		return nil, fmt.Errorf("edisim: %s: %w", id, err)
	}

	title := fmt.Sprintf("Overload study: %v on %d %s web + %d %s cache",
		ov.Profile, ts.NWeb, ts.Web.Label, ts.NCache, ts.Cache.Label)

	run := func(cfg core.Config) (*core.Outcome, error) {
		res := core.RunWebPoint(cfg, ts, rc, cfg.Faults, cfg.PointSeed(id, 0))
		window := res.WindowSecs
		o := &core.Outcome{}
		t := report.NewTable(title,
			"offered conn/s", "goodput req/s", "shed /s", "degraded /s", "p50 ms", "p99 ms", "p999 ms", "err rate", "retries", "denied", "power W").
			WithUnits("conn/s", "req/s", "/s", "/s", "ms", "ms", "ms", "", "", "", "W")
		t.AddRow(
			report.Num(float64(res.Offered)/window, "conn/s"),
			report.Num(res.Throughput, "req/s"),
			report.Num(float64(res.Shed)/window, "/s"),
			report.Num(float64(res.Degraded)/window, "/s"),
			report.Num(res.Latency.Quantile(0.5)*1e3, "ms"),
			report.Num(res.Latency.Quantile(0.99)*1e3, "ms"),
			report.Num(res.Latency.Quantile(0.999)*1e3, "ms"),
			report.Num(res.ErrorRate, ""),
			report.Count(res.Retries, ""),
			report.Count(res.RetryDenied, ""),
			report.Num(float64(res.MeanPower), "W"),
		)
		o.Tables = append(o.Tables, t)
		// The controller time series backs the figure.
		if len(res.Windows) > 0 {
			slo := res.Config.SLO
			x, served, shed, active := core.SLOSeries(res)
			f := report.NewFigure(title+" — SLO controller windows", "t (s)", "per second / servers", x)
			f.Add("served ops/s", served)
			f.Add("shed/s", shed)
			f.Add("active web servers", active)
			o.Figures = append(o.Figures, f)
			o.Notes = append(o.Notes, fmt.Sprintf(
				"SLO: p%g of window latency <= %gs, availability >= %g; %d window(s) burned, brownout engaged for %.1fs, routing rotation peaked at %d servers",
				100*slo.Percentile, slo.Latency, slo.Availability,
				res.SLOBreaches, res.BrownoutSecs, res.ActivePeak))
		}
		return o, nil
	}
	return []unit{{id: id, title: title, section: "scenario", run: run}}, nil
}

// studyDuration resolves a study's Duration: set wins, else full or quick
// by the scenario's fidelity.
func studyDuration(set float64, cfg core.Config, full, quick float64) float64 {
	switch {
	case set != 0:
		return set
	case cfg.Quick:
		return quick
	}
	return full
}

// studyTimeout resolves a study's RequestTimeout: open-loop clients must
// time out, so unset means 0.5 s.
func studyTimeout(set float64) float64 {
	if set == 0 {
		return 0.5
	}
	return set
}

// --- MapReduce job ---------------------------------------------------------

// MapReduceJob simulates one Hadoop job end to end on a platform's cluster,
// optionally with the 1 Hz utilization/power trace the paper plots in
// Figures 12–17 (the YARN container lifecycle, HDFS placement and network
// shuffle all run in the simulation). SlaveGroups runs the job on a
// mixed-platform slave set — the heterogeneous cluster the paper's hybrid
// (Dell master over Edison slaves) stops short of.
type MapReduceJob struct {
	// ID names the artifact (default "mapreduce_<job>").
	ID string
	// Job is one of JobNames(): wordcount, wordcount2, logcount,
	// logcount2, pi, terasort.
	Job string
	// Platform defaults to the baseline micro server.
	Platform PlatformRef
	// Slaves defaults to the platform's fleet slave count.
	Slaves int
	// SlaveGroups, when set, replaces Platform/Slaves with a mixed-platform
	// slave set: each entry is one platform's share of the workers, with
	// YARN capacities, container startup and task rates resolved per
	// platform. The first group is primary — cluster-global job tuning
	// (block size, replication, container sizes, reducer scaling) follows
	// it. Every entry needs an explicit platform and a positive node count.
	SlaveGroups []TierSpec
	// Trace adds the utilization/power trace figure.
	Trace bool
}

// groupsLabel renders a mixed slave set for titles: "3 Edison + 1 Dell".
func groupsLabel(groups []jobs.SlaveGroup) string {
	s := ""
	for i, g := range groups {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%d %s", g.Nodes, g.Platform.Label)
	}
	return s
}

func (mj *MapReduceJob) expand(core.Config) ([]unit, error) {
	job := mj.Job
	var groups []jobs.SlaveGroup
	for _, ts := range mj.SlaveGroups {
		p, err := ts.Platform.resolve()
		if err != nil {
			return nil, err
		}
		groups = append(groups, jobs.SlaveGroup{Platform: p, Nodes: ts.Nodes})
	}
	if len(groups) == 0 {
		p, err := mj.Platform.resolve()
		if err != nil {
			return nil, err
		}
		if p == nil {
			p, _ = hw.BaselinePair()
		}
		slaves := mj.Slaves
		if slaves == 0 {
			slaves = p.Fleet.Slaves
		}
		groups = []jobs.SlaveGroup{{Platform: p, Nodes: slaves}}
	}
	if err := jobs.Validate(job, groups); err != nil {
		return nil, fmt.Errorf("edisim: mapreduce %s: %w", job, err)
	}

	id := mj.ID
	if id == "" {
		id = "mapreduce_" + job
	}
	title := fmt.Sprintf("%s on %s slaves", job, groupsLabel(groups))
	platLabel := groups[0].Platform.Label
	if len(groups) > 1 {
		platLabel = "mixed"
	}
	totalSlaves := 0
	for _, g := range groups {
		totalSlaves += g.Nodes
	}

	run := func(cfg core.Config) (*core.Outcome, error) {
		r, err := jobs.RunGroups(job, groups, cfg.Seed, cfg.Energy, cfg.Interrupt)
		if err != nil {
			return nil, err
		}
		o := &core.Outcome{}
		t := report.NewTable(title,
			"job", "platform", "slaves", "time s", "energy J", "maps", "reduces", "local %").
			WithUnits("", "", "nodes", "s", "J", "tasks", "tasks", "%")
		t.AddRow(
			job, platLabel,
			report.Count(int64(totalSlaves), "nodes"),
			report.Num(r.Duration, "s"),
			report.Num(float64(r.Energy), "J"),
			report.Count(int64(r.MapTasks), "tasks"),
			report.Count(int64(r.ReduceTasks), "tasks"),
			report.Num(100*r.LocalityFraction(), "%"),
		)
		o.Tables = append(o.Tables, t)
		if mj.Trace {
			o.Figures = append(o.Figures, core.TraceFigure(title+" — 1 Hz trace", r))
		}
		return o, nil
	}
	return []unit{{id: id, title: title, section: "scenario", run: run}}, nil
}

// JobNames lists the simulatable Hadoop workloads.
func JobNames() []string { return jobs.Names() }

// --- TCO study -------------------------------------------------------------

// TCOStudy prices platform fleets with the paper's 3-year
// total-cost-of-ownership model (Section 6, Equation 1). Fleets are sized
// explicitly (Nodes), from the catalog (the default), or to an equal
// spending cap (Budget) — the paper's comparable-cost framing.
type TCOStudy struct {
	// ID names the artifact (default "tco_study").
	ID string
	// Platforms to price side by side (default: the whole catalog).
	Platforms []PlatformRef
	// Nodes matches Platforms entry for entry (default: each platform's
	// fleet slave count, so a platform without one needs Nodes or Budget).
	// Every count must be positive. Mutually exclusive with Budget.
	Nodes []int
	// Budget, when positive, sizes every platform's fleet to the largest
	// node count whose 3-year TCO fits the budget instead of using Nodes
	// or the catalog fleets. The fleet is sized with the same power model,
	// tariff, PUE and carbon price it is priced with, so its total never
	// exceeds the budget. A platform whose single server exceeds the
	// budget prices as a zero-node row.
	Budget float64
	// Utilization in [0,1] (default 0.5). The zero value means "use the
	// default"; pass ZeroUtilization for a genuinely idle fleet.
	Utilization float64
	// Region prices the fleet at a grid region's electricity tariff instead
	// of the paper's Table 9 US average, with the default facility PUE and
	// the region's carbon intensity applied (see RegionNames). The table
	// gains tCO2e and carbon-cost columns.
	Region string
	// CarbonPricePerTonne prices operational carbon in USD per tCO2e; it
	// implies carbon accounting even without Region (the world-average
	// grid is used then).
	CarbonPricePerTonne float64
	// PUE overrides the facility power overhead multiplier (must be >= 1);
	// 0 keeps the default — DefaultPUE when carbon accounting is on, no
	// overhead otherwise (the paper's Equation 1).
	PUE float64
}

// ZeroUtilization is the TCOStudy.Utilization sentinel for pricing a fully
// idle fleet (equipment plus idle electricity only) — the field's zero
// value selects the 50% default instead.
const ZeroUtilization = -1

// resolvePlatforms resolves a study's platform list: every ref must name a
// platform, and an empty list selects def.
func resolvePlatforms(id string, refs []PlatformRef, def []*hw.Platform) ([]*hw.Platform, error) {
	if len(refs) == 0 {
		return def, nil
	}
	plats := make([]*hw.Platform, len(refs))
	for i, r := range refs {
		p, err := r.resolve()
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("edisim: %s: empty platform ref", id)
		}
		plats[i] = p
	}
	return plats, nil
}

// fleetSizes resolves a study's fleet sizes, one per platform: Nodes entry
// for entry when set, each count positive, else each platform's catalog
// slave fleet, which must then be positive.
func fleetSizes(id string, nodes []int, plats []*hw.Platform) ([]int, error) {
	if nodes != nil && len(nodes) != len(plats) {
		return nil, fmt.Errorf("edisim: %s: %d node counts for %d platforms", id, len(nodes), len(plats))
	}
	sizes := make([]int, len(plats))
	for i, p := range plats {
		switch {
		case nodes != nil && nodes[i] <= 0:
			return nil, fmt.Errorf("edisim: %s: bad node count %d for %s", id, nodes[i], p.Label)
		case nodes != nil:
			sizes[i] = nodes[i]
		case p.Fleet.Slaves <= 0:
			return nil, fmt.Errorf("edisim: %s: %s has no catalog fleet to price — set Nodes", id, p.Label)
		default:
			sizes[i] = p.Fleet.Slaves
		}
	}
	return sizes, nil
}

// resolveUtilization applies a study's Utilization default: 0 means 50%,
// a negative value (ZeroUtilization) an idle fleet, and a value above 1 is
// an error.
func resolveUtilization(id string, u float64) (float64, error) {
	switch {
	case u == 0:
		return 0.5, nil
	case u < 0:
		return 0, nil
	case u > 1 || math.IsNaN(u):
		return 0, fmt.Errorf("edisim: %s: utilization %v outside [0,1]", id, u)
	}
	return u, nil
}

func (ts *TCOStudy) expand(cfg core.Config) ([]unit, error) {
	id := ts.ID
	if id == "" {
		id = "tco_study"
	}
	plats, err := resolvePlatforms(id, ts.Platforms, hw.Platforms())
	if err != nil {
		return nil, err
	}
	if ts.Budget < 0 || math.IsNaN(ts.Budget) || math.IsInf(ts.Budget, 0) {
		return nil, fmt.Errorf("edisim: %s: budget $%v must be positive and finite", id, ts.Budget)
	}
	if ts.Budget > 0 && ts.Nodes != nil {
		return nil, fmt.Errorf("edisim: %s: Budget and Nodes are mutually exclusive", id)
	}
	var sizes []int
	if ts.Budget == 0 {
		if sizes, err = fleetSizes(id, ts.Nodes, plats); err != nil {
			return nil, err
		}
	}
	util, err := resolveUtilization(id, ts.Utilization)
	if err != nil {
		return nil, err
	}
	pr, err := tco.NewPricing(cfg.Energy, ts.Region, ts.PUE, ts.CarbonPricePerTonne)
	if err != nil {
		return nil, fmt.Errorf("edisim: %s: %w", id, err)
	}
	// Carbon accounting is on when a region or a carbon price is set.
	region := pr.Grid.Region
	carbonOn := region != ""
	title := fmt.Sprintf("3-year TCO at %.0f%% utilization", util*100)
	if ts.Budget > 0 {
		title = fmt.Sprintf("3-year TCO at %.0f%% utilization, fleets sized to $%.0f", util*100, ts.Budget)
	}
	if carbonOn {
		title += fmt.Sprintf(" (%s grid)", region)
	}

	run := func(core.Config) (*core.Outcome, error) {
		o := &core.Outcome{}
		cols := []string{"platform", "nodes", "equipment $", "electricity $", "total $", "$ per node"}
		colUnits := []string{"", "nodes", "$", "$", "$", "$"}
		if carbonOn {
			cols = append(cols, "tCO2e (3y)", "carbon $")
			colUnits = append(colUnits, "t", "$")
		}
		t := report.NewTable(title, cols...).WithUnits(colUnits...)
		for i, p := range plats {
			var n int
			var err error
			if ts.Budget == 0 {
				n = sizes[i]
			} else if n, err = pr.Size(p, ts.Budget, util); err != nil {
				return nil, err
			}
			var r tco.Result // a fleet the budget cannot buy prices as zeros
			perNode := 0.0
			if n > 0 {
				if r, err = tco.Compute(pr.Inputs(p, n, util)); err != nil {
					return nil, err
				}
				perNode = r.Total() / float64(n)
			} else {
				o.Notes = append(o.Notes, fmt.Sprintf(
					"%s: one server already exceeds the $%.0f budget", p.Label, ts.Budget))
			}
			row := []any{
				p.Label,
				report.Count(int64(n), "nodes"),
				report.Num(r.Equipment, "$"),
				report.Num(r.Electricity, "$"),
				report.Num(r.Total(), "$"),
				report.Num(perNode, "$"),
			}
			if carbonOn {
				row = append(row, report.Num(r.CarbonGrams/1e6, "t"), report.Num(r.Carbon, "$"))
			}
			t.AddRow(row...)
		}
		o.Tables = append(o.Tables, t)
		if carbonOn {
			o.Notes = append(o.Notes, fmt.Sprintf(
				"regional pricing: %s electricity tariff, facility PUE %.2f, grid carbon intensity applied to lifetime wall energy; carbon priced at $%g/tCO2e",
				region, carbon.DefaultPUE, ts.CarbonPricePerTonne))
		}
		return o, nil
	}
	return []unit{{id: id, title: title, section: "scenario", run: run}}, nil
}

// --- Fleet comparison --------------------------------------------------------

// FleetComparison is the paper's §6 economic question asked of any platform
// set: price a baseline fleet with the 3-year TCO model, size every
// compared platform's web and Hadoop fleets to that same spend
// (SizeFleetForBudget), then measure what each equal-budget fleet actually
// delivers — peak web throughput across a Table-6-style scale ladder and
// one Hadoop job — reporting throughput-per-watt and throughput-per-dollar
// matrices. The equal_budget registry experiment is this workload over the
// whole catalog.
type FleetComparison struct {
	// ID names the artifact (default "fleet_comparison") and namespaces
	// per-point seeds: two comparisons in one scenario need distinct IDs.
	ID string
	// Baseline sets the budget: its catalog web (Fleet.Web+Fleet.Cache)
	// and Hadoop (Fleet.Slaves) fleets priced over 3 years. Defaults to
	// the scenario's brawny platform (Scenario.Brawny, itself the Dell
	// R620 by default). Without a Budget the baseline needs positive
	// catalog fleet sizes.
	Baseline PlatformRef
	// Platforms is the compared set (default: the whole catalog).
	Platforms []PlatformRef
	// Job is the Hadoop workload the sized slave fleets run, one of
	// JobNames() (default "terasort").
	Job string
	// Budget, when positive, replaces both derived budgets with an
	// explicit 3-year spend in USD.
	Budget float64
}

func (fc *FleetComparison) expand(cfg core.Config) ([]unit, error) {
	id := fc.ID
	if id == "" {
		id = "fleet_comparison"
	}
	baseline, err := fc.Baseline.resolve()
	if err != nil {
		return nil, err
	}
	plats, err := resolvePlatforms(id, fc.Platforms, nil)
	if err != nil {
		return nil, err
	}
	spec := core.EqualBudgetSpec{
		SweepName: id,
		Baseline:  baseline,
		Platforms: plats,
		Job:       fc.Job,
		Budget:    fc.Budget,
	}
	if _, err := spec.Resolve(cfg); err != nil {
		return nil, fmt.Errorf("edisim: %s: %w", id, err)
	}
	title := "Equal-budget fleet comparison"

	run := func(cfg core.Config) (*core.Outcome, error) {
		return core.EqualBudget(cfg, spec)
	}
	return []unit{{id: id, title: title, section: "scenario", run: run}}, nil
}
