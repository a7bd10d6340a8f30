// Command paper runs the complete reproduction: every registered
// experiment, printing each artifact and a final paper-vs-measured ledger.
// With -experiments it writes the EXPERIMENTS.md comparison section to
// stdout in markdown.
//
// The command is a thin shell over the public edisim package: it builds a
// Scenario of paper experiments and streams the artifacts through a sink.
// Experiments and their sweep points are independent simulations, so -j
// fans them across CPUs (default: GOMAXPROCS). Output is bit-identical for
// any -j: every sweep point derives its seed from its identity, and results
// are printed in registration order.
//
// Usage:
//
//	paper               # full fidelity, all paper artifacts (minutes)
//	paper -quick        # reduced sweeps for a fast smoke run
//	paper -j 1          # serial (same output, slower)
//	paper -only fig4_fig7
//	paper -only fig4_fig7 -format json   # the documented JSON schema
//	paper -only platform_matrix -platforms pi3,xeon-modern
//	paper -only platform_matrix -energy tdp-curve -region eu-north
//	paper -only fault_tolerance -platforms edison,r620 \
//	      -faults 'node_crash@30+120:slave[1];straggler@10+60x0.25:web'
//	paper -experiments > comparisons.md
//
// Experiments marked opt-in (cross-platform matrices beyond the paper's
// artifact set) run only when named with -only or when -platforms is
// given, keeping the default output exactly the paper reproduction.
// -platforms selects which hw catalog platforms those matrices cover
// (default: the whole catalog).
//
// -energy selects the node power model (linear is the paper-calibrated
// default; tdp-curve arms the component model) and -region attributes
// energy to an electricity grid for carbon and price accounting; either
// flag makes the matrix experiments report their gCO2e and per-region
// columns. The default run with neither flag is byte-identical to the
// paper reproduction.
//
// -faults overrides the built-in fault schedules of the fault-injecting
// experiments (fault_tolerance) with the API.md schedule grammar; the
// default paper reproduction never injects faults, so the flag changes
// nothing unless such an experiment is selected.
//
// -cpuprofile and -memprofile write pprof CPU and heap profiles of the
// run, for `go tool pprof`; stdout is unchanged. Both are off by default.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"edisim"
	"edisim/internal/runner"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "short sweeps (smoke run)")
		only      = flag.String("only", "", "comma-separated experiment IDs (default: all paper artifacts)")
		seed      = flag.Int64("seed", 1, "root random seed")
		jobs      = flag.Int("j", runner.DefaultWorkers(), "parallel workers for experiments and sweep points")
		markdown  = flag.Bool("experiments", false, "emit the EXPERIMENTS.md comparison ledger as markdown")
		platforms = flag.String("platforms", "", "comma-separated hw catalog platforms for matrix experiments (default: whole catalog)")
		format    = flag.String("format", "text", "output format: text, json or csv")
		faultSpec = flag.String("faults", "", "fault schedule for fault-injecting experiments, e.g. 'node_crash@30+120:slave[1];straggler@10+60x0.25:web' (see API.md)")
		jitter    = flag.Float64("fault-jitter", 0, "uniform seed-derived jitter bound in seconds added to every fault time")
		energy    = flag.String("energy", "", "node power model: linear (default, paper-calibrated) or tdp-curve (component model; see API.md)")
		region    = flag.String("region", "", "grid region for carbon/price accounting (see API.md; arms the matrix experiments' gCO2e columns)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file after the run")
	)
	flag.Parse()

	if !edisim.ValidOutputFormat(*format) {
		fmt.Fprintf(os.Stderr, "paper: unknown format %q (want text, json or csv)\n", *format)
		os.Exit(2)
	}
	if *markdown && *format != "text" {
		fmt.Fprintf(os.Stderr, "paper: -experiments emits markdown; it cannot combine with -format %s\n", *format)
		os.Exit(2)
	}

	scn := edisim.Scenario{Name: "paper", Seed: *seed, Quick: *quick, Workers: *jobs,
		EnergyModel: *energy, Region: *region}
	if *faultSpec != "" || *jitter != 0 {
		plan, err := edisim.ParseFaultPlan(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paper: %v\n", err)
			os.Exit(2)
		}
		if plan == nil {
			fmt.Fprintln(os.Stderr, "paper: -fault-jitter without -faults schedules nothing")
			os.Exit(2)
		}
		plan.Jitter = *jitter
		scn.Faults = plan
	}
	if *platforms != "" {
		// Shared -platforms parsing: whitespace-trimmed, duplicates (and
		// alias respellings) collapsed so no fleet is simulated twice.
		scn.Matrix = edisim.ParsePlatformRefs(*platforms)
		if len(scn.Matrix) == 0 {
			fmt.Fprintf(os.Stderr, "paper: no platforms in %q (have %v)\n", *platforms, edisim.PlatformNames())
			os.Exit(2)
		}
	}
	exps := &edisim.PaperExperiments{IncludeOptIn: *platforms != ""}
	if *only != "" {
		// Unknown IDs are a hard error (listing the valid set), not a
		// silent drop — edisim.Run validates the whole list up front.
		for _, id := range strings.Split(*only, ",") {
			if id = strings.TrimSpace(id); id != "" {
				exps.IDs = append(exps.IDs, id)
			}
		}
		if len(exps.IDs) == 0 {
			fmt.Fprintf(os.Stderr, "paper: no experiments match %q (have %v)\n", *only, edisim.ExperimentIDs())
			os.Exit(2)
		}
	}
	scn.Workloads = []edisim.Workload{exps}

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paper: %v\n", err)
		os.Exit(2)
	}
	code := report(scn, *markdown, *format)
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "paper: %v\n", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

// report runs the scenario, streaming its artifacts to stdout, and returns
// the exit code.
func report(scn edisim.Scenario, markdown bool, format string) int {
	// Stream as artifacts complete (text blocks, or markdown ledger rows
	// with -experiments); collect everything for the final ledger and the
	// document formats.
	var col edisim.Collector
	sink := edisim.Sink(&col)
	switch {
	case markdown:
		fmt.Println("| artifact | metric | paper | simulated | ratio |")
		fmt.Println("|---|---|---:|---:|---:|")
		sink = edisim.SinkFunc(func(a *edisim.Artifact) error {
			for _, c := range a.Comparisons {
				fmt.Printf("| %s | %s | %.4g | %.4g | %.2f |\n",
					c.Artifact, c.Metric, c.Paper, c.Measured, c.RatioError())
			}
			return nil
		})
	case format == "text":
		sink = edisim.MultiSink(edisim.NewTextSink(os.Stdout), &col)
	}

	if err := edisim.Run(context.Background(), scn, sink); err != nil {
		fmt.Fprintf(os.Stderr, "paper: %v\n", err)
		return 2
	}
	if markdown {
		return 0
	}

	var err error
	if format == "text" {
		err = edisim.WriteLedger(os.Stdout, col.Artifacts)
	} else {
		err = edisim.WriteDocument(format, os.Stdout, col.Artifacts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "paper: %v\n", err)
		return 1
	}
	return 0
}

// startProfiles starts a CPU profile to cpuFile and returns the func that
// stops it and writes a heap profile to memFile. An empty name turns that
// profile off. Both files are created up front, so a bad path fails before
// the run rather than after it.
func startProfiles(cpuFile, memFile string) (stop func() error, err error) {
	var cpu, mem *os.File
	if memFile != "" {
		if mem, err = os.Create(memFile); err != nil {
			return nil, err
		}
	}
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if mem == nil {
			return nil
		}
		runtime.GC() // bring the heap statistics up to date
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return err
		}
		return mem.Close()
	}, nil
}
