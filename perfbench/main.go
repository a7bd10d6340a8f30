// Command perfbench is the repository benchmark. It runs one named workload
// repeatedly for a fixed host-time budget and prints the workload's metrics,
// ending with one JSON line:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics and writes a spans file. Every
// time reported is host time; simulated quantities appear only as counts or
// as ledger error against the paper. README.md lists the workloads, the
// metrics and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// outDir, relative to the working directory, receives run records and
// spans files.
var outDir = filepath.Join(".bench_build", "runs")

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "host seconds to measure for")
		trace   = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	)
	if seed, ok := probeSeed(); ok {
		setupProbe(config{seed: seed, workers: runtime.NumCPU()})
		return
	}
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	cfg := config{seed: *seed, workers: runtime.NumCPU()}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, *seed))

	var (
		r   *runReport
		err error
	)
	if *trace == 1 {
		r, err = runTraced(w, cfg, *seconds, base+".spans.json")
	} else {
		r, err = runPlain(w, cfg, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := r.result()
	if err := writeRecord(fmt.Sprintf("%s-trace%d.json", base, *trace), w.name, *seed, r, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printHuman(os.Stdout, w.name, r, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printHuman prints every metric by name with its unit, the failure
// fraction, the fingerprint and the first few failed checks.
func printHuman(w io.Writer, name string, r *runReport, res result) {
	fmt.Fprintf(w, "workload %s: %d passes, %d ops attempted, %d failed\n", name, r.passes, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-24s %14.6g frac\n", "failed_frac", float64(res.Failed)/float64(res.Attempted))
	fmt.Fprintf(w, "  fingerprint %s\n", r.fingerprint)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  check failed: %s\n", p)
	}
}

// writeRecord stores the run's result beside its fingerprint, so two runs of
// the same seed can be compared for identical simulated outputs.
func writeRecord(path, name string, seed int64, r *runReport, res result) error {
	rec := struct {
		Workload    string    `json:"workload"`
		Seed        int64     `json:"seed"`
		Passes      int       `json:"passes"`
		Fingerprint string    `json:"fingerprint"`
		Problems    []string  `json:"problems,omitempty"`
		Ledger      []string  `json:"ledger,omitempty"`
		PassWalls   []float64 `json:"pass_walls_s"`
		PassCPU     []float64 `json:"pass_cpu_s"`
		Result      result    `json:"result"`
	}{name, seed, r.passes, r.fingerprint, r.problems, r.ledger, r.walls, r.cpus, res}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
