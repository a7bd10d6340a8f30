package core

import (
	"fmt"

	"edisim/internal/hw"
	"edisim/internal/jobs"
	"edisim/internal/mapred"
	"edisim/internal/report"
	"edisim/internal/runner"
)

func init() {
	register(Experiment{ID: "fig12_fig15", Title: "Wordcount traces", Section: "5.2.1", Run: traceExperiment("wordcount")})
	register(Experiment{ID: "fig13_fig16", Title: "Wordcount2 traces", Section: "5.2.1", Run: traceExperiment("wordcount2")})
	register(Experiment{ID: "sec522_logcount", Title: "Logcount & logcount2", Section: "5.2.2", Run: runLogcount})
	register(Experiment{ID: "fig14_fig17", Title: "Pi estimation traces", Section: "5.2.3", Run: traceExperiment("pi")})
	register(Experiment{ID: "sec524_terasort", Title: "Terasort", Section: "5.2.4", Run: runTerasort})
	register(Experiment{ID: "fig18_fig19_table8", Title: "Scalability: time & energy across cluster sizes", Section: "5.3", Run: runScalability})
}

// PaperTable8 holds the published Table 8: (seconds, joules) per job and
// cluster label. Exported for cmd/mapreduce and perfbench.
var PaperTable8 = map[string]map[string][2]float64{
	"wordcount":  {"35E": {310, 17670}, "17E": {1065, 29485}, "8E": {1817, 23673}, "4E": {3283, 21386}, "2D": {213, 40214}, "1D": {310, 30552}},
	"wordcount2": {"35E": {182, 10370}, "17E": {270, 7475}, "8E": {450, 5862}, "4E": {1192, 7765}, "2D": {66, 11695}, "1D": {93, 8124}},
	"logcount":   {"35E": {279, 15903}, "17E": {601, 16860}, "8E": {990, 12898}, "4E": {2233, 14546}, "2D": {206, 40803}, "1D": {516, 53303}},
	"logcount2":  {"35E": {115, 6555}, "17E": {118, 3267}, "8E": {125, 1629}, "4E": {162, 1055}, "2D": {59, 9486}, "1D": {88, 6905}},
	"pi":         {"35E": {200, 11445}, "17E": {334, 9247}, "8E": {577, 7517}, "4E": {1076, 7009}, "2D": {50, 9285}, "1D": {77, 6878}},
	"terasort":   {"35E": {750, 43440}, "17E": {1364, 37763}, "8E": {3736, 48675}, "4E": {8220, 53547}, "2D": {331, 64210}, "1D": {1336, 111422}},
}

// clusterConfig is one Table 8 cluster configuration.
type clusterConfig struct {
	Label    string
	Platform *hw.Platform
	Slaves   int
	// Pair marks the paper-scale clusters (35 micro, 2 brawny slaves) that
	// the per-job experiments run; they own these rungs' Table 8 rows.
	Pair bool
}

// clusterConfigs lists the Table 8 cluster configurations over the pair.
// The micro pair rung (35E) comes before the brawny one (2D): runPairJobs
// keeps this order, and its callers read results as micro, brawny.
func clusterConfigs(micro, brawny *hw.Platform) []clusterConfig {
	return []clusterConfig{
		{"35E", micro, 35, true},
		{"17E", micro, 17, false},
		{"8E", micro, 8, false},
		{"4E", micro, 4, false},
		{"2D", brawny, 2, true},
		{"1D", brawny, 1, false},
	}
}

// runPairJobs executes the same job list on both paper-scale clusters (35
// micro slaves, 2 brawny slaves) and records their Table 8 rows, fanning
// the independent simulations across the worker pool. Every run keeps the
// experiment's root seed — the same seed each run used when they were
// serial — so results are bit-identical to the serial path, just computed
// concurrently. Results are ordered [job0-micro, job0-brawny, job1-micro,
// ...].
func runPairJobs(o *Outcome, cfg Config, jobNames []string) []*mapred.JobResult {
	var pair []clusterConfig
	for _, l := range clusterConfigs(cfg.Pair()) {
		if l.Pair {
			pair = append(pair, l)
		}
	}
	results := runner.Map(cfg.Workers, len(jobNames)*len(pair), func(i int) *mapred.JobResult {
		job, l := jobNames[i/len(pair)], pair[i%len(pair)]
		r, err := jobs.Run(job, l.Platform, l.Slaves, cfg.Seed, cfg.Energy, cfg.Interrupt)
		if err != nil {
			panic(fmt.Sprintf("core: %s on %s: %v", job, l.Platform.Label, err))
		}
		return r
	})
	for i, r := range results {
		addTable8Comparisons(o, jobNames[i/len(pair)], pair[i%len(pair)].Label, r)
	}
	return results
}

// TraceFigure converts a JobResult's sampled series (CPU/memory/progress/
// power at the 1 Hz power sample times) into a report figure — the Figure
// 12–17 shape. Exported for the public scenario package's trace workload.
func TraceFigure(name string, r *mapred.JobResult) *report.Figure {
	pts := r.Power.Points()
	x := make([]float64, len(pts))
	power := make([]float64, len(pts))
	cpu := make([]float64, len(pts))
	mem := make([]float64, len(pts))
	mp := make([]float64, len(pts))
	rp := make([]float64, len(pts))
	for i, p := range pts {
		x[i] = p.T
		power[i] = p.V
		cpu[i] = r.CPU.At(p.T)
		mem[i] = r.Mem.At(p.T)
		mp[i] = r.MapProgress.At(p.T)
		rp[i] = r.ReduceProgress.At(p.T)
	}
	fig := report.NewFigure(name, "time (s)", "% / W", x)
	fig.Add("CPU %", cpu)
	fig.Add("Mem %", mem)
	fig.Add("Map %", mp)
	fig.Add("Reduce %", rp)
	fig.Add("Power W", power)
	return fig
}

// reduceStartFraction reports when the reduce phase first progresses, as a
// fraction of total runtime (the paper: 61% on Edison vs 28% on Dell for
// wordcount).
func reduceStartFraction(r *mapred.JobResult) float64 {
	for _, p := range r.ReduceProgress.Points() {
		if p.V > 0 {
			return p.T / r.Duration
		}
	}
	return 1
}

func traceExperiment(job string) func(cfg Config) *Outcome {
	figNames := map[string][2]string{
		"wordcount":  {"Figure 12 — wordcount on %s cluster", "Figure 15 — wordcount on %s cluster"},
		"wordcount2": {"Figure 13 — wordcount2 on %s cluster", "Figure 16 — wordcount2 on %s cluster"},
		"pi":         {"Figure 14 — pi on %s cluster", "Figure 17 — pi on %s cluster"},
	}
	return func(cfg Config) *Outcome {
		o := &Outcome{}
		micro, brawny := cfg.Pair()
		names := figNames[job]
		results := runPairJobs(o, cfg, []string{job})
		re, rd := results[0], results[1]
		o.Figures = append(o.Figures,
			TraceFigure(fmt.Sprintf(names[0], micro.Label), re),
			TraceFigure(fmt.Sprintf(names[1], brawny.Label), rd))
		if job == "wordcount" {
			o.AddComparison("Figure 12", fmt.Sprintf("%s reduce start (fraction of runtime)", micro.Label), 0.61, reduceStartFraction(re))
			o.AddComparison("Figure 15", fmt.Sprintf("%s reduce start (fraction of runtime)", brawny.Label), 0.28, reduceStartFraction(rd))
		}
		return o
	}
}

func addTable8Comparisons(o *Outcome, job, label string, r *mapred.JobResult) {
	p := PaperTable8[job][label]
	o.AddComparison(fmt.Sprintf("Table 8 / %s / %s", job, label), "time s", p[0], r.Duration)
	o.AddComparison(fmt.Sprintf("Table 8 / %s / %s", job, label), "energy J", p[1], float64(r.Energy))
}

func runLogcount(cfg Config) *Outcome {
	o := &Outcome{}
	runPairJobs(o, cfg, []string{"logcount", "logcount2"})
	micro, _ := cfg.Pair()
	o.Notes = append(o.Notes, fmt.Sprintf(
		"logcount: %s reaches ≈2.6× work-done-per-joule; logcount2 shrinks the gap to ≈1.4× (container-allocation overhead removed)",
		micro.Label))
	return o
}

func runTerasort(cfg Config) *Outcome {
	o := &Outcome{}
	results := runPairJobs(o, cfg, []string{"terasort"})
	re, rd := results[0], results[1]
	eff := (float64(rd.Energy) / float64(re.Energy))
	o.AddComparison("§5.2.4", "terasort energy-efficiency gain (x)", 1.48, eff)
	return o
}

func runScalability(cfg Config) *Outcome {
	o := &Outcome{}
	names := jobs.Names()
	labels := clusterConfigs(cfg.Pair())
	if cfg.Quick {
		// The 1D rung: the cheapest cell (one slave), and one no other
		// quick experiment simulates.
		names = []string{"wordcount2", "pi"}
		labels = labels[len(labels)-1:]
	}
	timeTab := report.NewTable("Figure 18 / Table 8 — job finish time (s)",
		append([]string{"job"}, labelNames(labels)...)...).
		WithUnits(uniformUnits("s", len(labels))...)
	energyTab := report.NewTable("Figure 19 / Table 8 — energy (J)",
		append([]string{"job"}, labelNames(labels)...)...).
		WithUnits(uniformUnits("J", len(labels))...)
	// The (job × cluster) grid is one flat sweep: every cell simulates a
	// whole Hadoop run on its own testbed, so cells parallelize perfectly.
	results := RunSweep(cfg, "fig18_fig19_table8", len(names)*len(labels),
		func(i int, seed int64) *mapred.JobResult {
			job, l := names[i/len(labels)], labels[i%len(labels)]
			// The pair rungs keep the root seed the pair experiments run
			// with, so their cells show the ledger's 35E and 2D values.
			if l.Pair {
				seed = cfg.Seed
			}
			r, err := jobs.Run(job, l.Platform, l.Slaves, seed, cfg.Energy, cfg.Interrupt)
			if err != nil {
				panic(err)
			}
			return r
		})
	for ji, job := range names {
		trow := []any{job}
		erow := []any{job}
		for li, l := range labels {
			r := results[ji*len(labels)+li]
			trow = append(trow, report.Num(r.Duration, "s"))
			erow = append(erow, report.Num(float64(r.Energy), "J"))
			// The pair experiments own the 35E and 2D ledger rows.
			if !l.Pair {
				addTable8Comparisons(o, job, l.Label, r)
			}
		}
		timeTab.AddRow(trow...)
		energyTab.AddRow(erow...)
	}
	o.Tables = append(o.Tables, timeTab, energyTab)
	return o
}

// uniformUnits tags a label column followed by n columns of one unit.
func uniformUnits(unit string, n int) []string {
	out := make([]string, n+1)
	for i := 1; i <= n; i++ {
		out[i] = unit
	}
	return out
}

func labelNames(labels []clusterConfig) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = l.Label
	}
	return out
}
