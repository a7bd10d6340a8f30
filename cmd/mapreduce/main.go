// Command mapreduce reproduces the paper's Hadoop experiments (§5.2–5.3):
// the six workloads on the 35-Edison/2-Dell clusters (Table 8, Figures
// 12–17) and the scalability sweep (Figures 18–19).
//
// Usage:
//
//	mapreduce                 # Table 8 at full scale
//	mapreduce -scaling        # all cluster sizes (Figs 18–19)
//	mapreduce -job wordcount -trace   # 1 Hz utilization/power trace
//	mapreduce -format json    # Table 8 as the documented schema
package main

import (
	"flag"
	"fmt"
	"os"

	"edisim"
	"edisim/internal/core"
)

func main() {
	var (
		scaling = flag.Bool("scaling", false, "run every cluster size (Figures 18-19)")
		job     = flag.String("job", "", "run a single job (default: all)")
		trace   = flag.Bool("trace", false, "print the 1 Hz utilization/power trace")
		seed    = flag.Int64("seed", 1, "root random seed")
		format  = flag.String("format", "text", "output format: text, json or csv")
	)
	flag.Parse()
	if !edisim.ValidOutputFormat(*format) {
		fmt.Fprintf(os.Stderr, "mapreduce: unknown format %q (want text, json or csv)\n", *format)
		os.Exit(2)
	}

	names := edisim.JobNames()
	if *job != "" {
		names = []string{*job}
	}

	micro, brawny := edisim.BaselinePair()
	type config struct {
		label    string
		platform *edisim.Platform
		slaves   int
	}
	configs := []config{
		{"35E", micro, 35},
		{"2D", brawny, 2},
	}
	if *scaling {
		configs = []config{
			{"35E", micro, 35}, {"17E", micro, 17},
			{"8E", micro, 8}, {"4E", micro, 4},
			{"2D", brawny, 2}, {"1D", brawny, 1},
		}
	}

	tab := edisim.NewTable("Table 8 — execution time and energy",
		"job", "cluster", "time(s)", "paper(s)", "energy(J)", "paper(J)", "local%").
		WithUnits("", "", "s", "s", "J", "J", "%")
	var traces []*edisim.Figure
	for _, name := range names {
		for _, cfg := range configs {
			r, err := edisim.RunJob(name, cfg.platform, cfg.slaves, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mapreduce: %s on %s: %v\n", name, cfg.label, err)
				os.Exit(1)
			}
			paper := core.PaperTable8[name][cfg.label]
			tab.AddRow(name, cfg.label,
				edisim.Num(r.Duration, "s"), edisim.Num(paper[0], "s"),
				edisim.Num(float64(r.Energy), "J"), edisim.Num(paper[1], "J"),
				edisim.Num(100*r.LocalityFraction(), "%"))
			if *trace && *format != "text" {
				traces = append(traces, edisim.TraceFigure(fmt.Sprintf("%s on %s — 1 Hz trace", name, cfg.label), r))
			}
			if *format == "text" {
				fmt.Printf("%-11s %-4s time=%6.0fs (paper %5.0f)  energy=%7.0fJ (paper %6.0f)  maps=%d reduces=%d local=%.0f%%\n",
					name, cfg.label, r.Duration, paper[0], float64(r.Energy), paper[1],
					r.MapTasks, r.ReduceTasks, 100*r.LocalityFraction())
				if *trace {
					printTrace(r)
				}
			}
		}
	}

	if *format != "text" {
		a := &edisim.Artifact{ID: "mapreduce", Title: tab.Title, Section: "5.2", Tables: []*edisim.Table{tab}, Figures: traces}
		if err := edisim.WriteDocument(*format, os.Stdout, []*edisim.Artifact{a}); err != nil {
			fmt.Fprintf(os.Stderr, "mapreduce: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Println()
	fmt.Println(tab)
}

// printTrace renders the Figure 12–17 style 1 Hz trace: CPU%, memory%,
// map/reduce progress and cluster power.
func printTrace(r *edisim.JobResult) {
	fmt.Printf("  %6s %6s %6s %6s %6s %8s\n", "t(s)", "cpu%", "mem%", "map%", "red%", "power(W)")
	pts := r.Power.Points()
	step := 1
	if len(pts) > 40 {
		step = len(pts) / 40
	}
	for i := 0; i < len(pts); i += step {
		t := pts[i].T
		fmt.Printf("  %6.0f %6.1f %6.1f %6.1f %6.1f %8.1f\n",
			t, r.CPU.At(t), r.Mem.At(t), r.MapProgress.At(t), r.ReduceProgress.At(t), pts[i].V)
	}
}
