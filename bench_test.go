// The root benchmarks regenerate every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment from the
// internal/core registry and reports domain metrics (req/s, joules,
// seconds) alongside the usual ns/op. Run all of them with:
//
//	go test -bench=. -benchmem
//
// Benchmarks use Quick mode under -short; full fidelity otherwise.
package edisim

import (
	"os"
	"strconv"
	"testing"

	"edisim/internal/core"
	"edisim/internal/hw"
	"edisim/internal/jobs"
	"edisim/internal/runner"
)

// benchCfg picks fidelity. Sweep-style experiments default to Quick so the
// whole suite finishes in minutes; set EDISIM_FULL=1 for the full-fidelity
// sweeps behind the ledger `cmd/paper -experiments` prints (cmd/paper runs
// those by default).
// MapReduce job benches always run at the paper's full cluster scale.
//
// Sweep points fan across GOMAXPROCS workers (so `go test -bench -cpu 1,4`
// compares serial vs parallel wall-clock); override with EDISIM_J=n.
// Results are bit-identical either way.
func benchCfg() core.Config {
	workers := runner.DefaultWorkers()
	if j, err := strconv.Atoi(os.Getenv("EDISIM_J")); err == nil && j > 0 {
		workers = j
	}
	return core.Config{Seed: 1, Quick: os.Getenv("EDISIM_FULL") == "", Workers: workers}
}

// runExperiment executes one registered experiment b.N times.
func runExperiment(b *testing.B, id string) {
	e, ok := core.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := e.Run(cfg)
		if len(o.Tables)+len(o.Figures)+len(o.Comparisons) == 0 {
			b.Fatalf("%s produced no artifacts", id)
		}
	}
}

// --- Section 3: testbed ------------------------------------------------------

func BenchmarkTable2_Replacement(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3_PowerStates(b *testing.B) { runExperiment(b, "table3") }

// --- Section 4: individual server tests --------------------------------------

func BenchmarkSec41_Dhrystone(b *testing.B)       { runExperiment(b, "sec41_dhrystone") }
func BenchmarkFig2_Fig3_SysbenchCPU(b *testing.B) { runExperiment(b, "fig2_fig3") }
func BenchmarkSec42_Memory(b *testing.B)          { runExperiment(b, "sec42_memory") }
func BenchmarkTable5_Storage(b *testing.B)        { runExperiment(b, "table5") }
func BenchmarkSec44_Network(b *testing.B)         { runExperiment(b, "sec44_network") }

// --- Section 5.1: web service workloads --------------------------------------

func BenchmarkFig4_Fig7_WebLight(b *testing.B)        { runExperiment(b, "fig4_fig7") }
func BenchmarkFig5_Fig8_WebMixes(b *testing.B)        { runExperiment(b, "fig5_fig8") }
func BenchmarkFig6_Fig9_WebHeavy(b *testing.B)        { runExperiment(b, "fig6_fig9") }
func BenchmarkFig10_Fig11_DelayDist(b *testing.B)     { runExperiment(b, "fig10_fig11") }
func BenchmarkTable7_DelayDecomposition(b *testing.B) { runExperiment(b, "table7") }

// --- Section 5.2: MapReduce workloads -----------------------------------------

// benchJob runs one job on one cluster configuration, reporting simulated
// seconds and joules as benchmark metrics.
func benchJob(b *testing.B, job string, platform *hw.Platform, slaves int) {
	var secs, joules float64
	for i := 0; i < b.N; i++ {
		r, err := jobs.Run(job, platform, slaves, 1, hw.PowerLinear, nil)
		if err != nil {
			b.Fatal(err)
		}
		secs = r.Duration
		joules = float64(r.Energy)
	}
	b.ReportMetric(secs, "sim-s")
	b.ReportMetric(joules, "sim-J")
}

func benchPair() (micro, brawny *hw.Platform) { return hw.BaselinePair() }

func BenchmarkFig12_Wordcount_Micro(b *testing.B) {
	m, _ := benchPair()
	benchJob(b, "wordcount", m, 35)
}
func BenchmarkFig15_Wordcount_Brawny(b *testing.B) {
	_, br := benchPair()
	benchJob(b, "wordcount", br, 2)
}
func BenchmarkFig13_Wordcount2_Micro(b *testing.B) {
	m, _ := benchPair()
	benchJob(b, "wordcount2", m, 35)
}
func BenchmarkFig16_Wordcount2_Brawny(b *testing.B) {
	_, br := benchPair()
	benchJob(b, "wordcount2", br, 2)
}
func BenchmarkSec522_Logcount_Micro(b *testing.B) {
	m, _ := benchPair()
	benchJob(b, "logcount", m, 35)
}
func BenchmarkSec522_Logcount_Brawny(b *testing.B) {
	_, br := benchPair()
	benchJob(b, "logcount", br, 2)
}
func BenchmarkSec522_Logcount2_Micro(b *testing.B) {
	m, _ := benchPair()
	benchJob(b, "logcount2", m, 35)
}
func BenchmarkFig14_Pi_Micro(b *testing.B) {
	m, _ := benchPair()
	benchJob(b, "pi", m, 35)
}
func BenchmarkFig17_Pi_Brawny(b *testing.B) {
	_, br := benchPair()
	benchJob(b, "pi", br, 2)
}
func BenchmarkSec524_Terasort_Micro(b *testing.B) {
	m, _ := benchPair()
	benchJob(b, "terasort", m, 35)
}
func BenchmarkSec524_Terasort_Brawny(b *testing.B) {
	_, br := benchPair()
	benchJob(b, "terasort", br, 2)
}

// BenchmarkPlatformMatrix exercises the cross-platform matrix experiment
// over the whole catalog (quick fidelity under -short).
func BenchmarkPlatformMatrix(b *testing.B) { runExperiment(b, "platform_matrix") }

// --- Section 5.3: scalability --------------------------------------------------

func BenchmarkFig18_Fig19_Table8_Scalability(b *testing.B) {
	runExperiment(b, "fig18_fig19_table8")
}

// --- Section 6: TCO ------------------------------------------------------------

func BenchmarkTable10_TCO(b *testing.B) { runExperiment(b, "table10") }

// --- Ablations (design choices called out in DESIGN.md) ------------------------

// BenchmarkAblation_DelayScheduling quantifies what delay scheduling buys:
// data-locality and runtime of wordcount with the scheduler as configured.
func BenchmarkAblation_DelayScheduling(b *testing.B) {
	m, _ := benchPair()
	var locality float64
	for i := 0; i < b.N; i++ {
		r, err := jobs.Run("wordcount", m, 17, 1, hw.PowerLinear, nil)
		if err != nil {
			b.Fatal(err)
		}
		locality = r.LocalityFraction()
	}
	b.ReportMetric(100*locality, "local%")
}
