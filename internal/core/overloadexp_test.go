package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"edisim/internal/hw"
	"edisim/internal/report"
)

func TestSafeDiv(t *testing.T) {
	if got := safeDiv(6, 3, -1); got != 2 {
		t.Fatalf("safeDiv(6,3) = %g, want 2", got)
	}
	if got := safeDiv(6, 0, -1); got != -1 {
		t.Fatalf("safeDiv(6,0) = %g, want the whenZero value -1", got)
	}
	if got := safeDiv(0, 0, 0); got != 0 {
		t.Fatalf("safeDiv(0,0) = %g, want 0", got)
	}
}

// overloadPairConfig keeps the experiment to the baseline pair so tests
// stay fast; the full catalog runs via TestEveryExperimentQuickSmoke.
func overloadPairConfig(seed int64, workers int) Config {
	micro, brawny := hw.BaselinePair()
	return Config{Seed: seed, Quick: true, Workers: workers,
		Matrix: []*hw.Platform{micro, brawny}}
}

// column returns the index of the header named name in tab.
func column(t *testing.T, tab *report.Table, name string) int {
	t.Helper()
	for i, h := range tab.Headers {
		if h == name {
			return i
		}
	}
	t.Fatalf("table %q has no %q column: %v", tab.Title, name, tab.Headers)
	return -1
}

// requireFiniteCells fails t on every numeric table cell of o that is NaN
// or ±Inf: beyond-paper metrics live only in the tables, so the tables are
// where their arithmetic is checked.
func requireFiniteCells(t *testing.T, o *Outcome) {
	t.Helper()
	for _, tab := range o.Tables {
		for _, row := range tab.Rows {
			for i, v := range row {
				if v.Kind == report.KindFloat && (math.IsNaN(v.Num) || math.IsInf(v.Num, 0)) {
					t.Errorf("%s: %s / %s = %v is not finite", tab.Title, row[0].Str, tab.Headers[i], v.Num)
				}
			}
		}
	}
}

// TestOverloadExperimentQuick checks the overload experiment's artifact
// shape: ladder + drill tables, the two offered-load figures, no ledger
// rows (it is beyond the paper), finite table cells, and a drill that
// degrades and recovers on every platform.
func TestOverloadExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment in -short mode")
	}
	e, ok := Lookup("overload")
	if !ok {
		t.Fatal("overload experiment not registered")
	}
	if !e.OptIn {
		t.Fatal("overload must be opt-in: it is beyond the paper's artifact set")
	}
	o := e.Run(overloadPairConfig(1, runtime.GOMAXPROCS(0)))
	if len(o.Tables) != 2 {
		t.Fatalf("got %d tables, want 2 (ladder + drill)", len(o.Tables))
	}
	if len(o.Figures) != 2 {
		t.Fatalf("got %d figures, want 2 (p99 + goodput vs offered load)", len(o.Figures))
	}
	if len(o.Comparisons) != 0 {
		t.Fatalf("recorded %d comparisons; beyond-paper metrics belong in the tables", len(o.Comparisons))
	}
	requireFiniteCells(t, o)
	// Every platform must meet the SLO at least at the 0.5x point, so each
	// ladder has an ok verdict row whose req/s/W is read at the SLO.
	ladder := o.Tables[0]
	verdict := column(t, ladder, "SLO")
	for _, p := range overloadPairConfig(1, 1).Matrix {
		met := false
		for _, row := range ladder.Rows {
			if row[0].Str == p.Label && row[verdict].Str == "ok" {
				met = true
			}
		}
		if !met {
			t.Errorf("%s: no ladder point met the SLO:\n%s", p.Label, ladder)
		}
	}
	// The drill's verdict column must never read COLLAPSED: goodput during
	// the spike+crash and after recovery holds >= 80% of pre-spike.
	drill := o.Tables[1].String()
	if strings.Contains(drill, "COLLAPSED") {
		t.Errorf("overload drill collapsed:\n%s", drill)
	}
	if !strings.Contains(drill, "degrades+recovers") {
		t.Errorf("overload drill verdicts missing:\n%s", drill)
	}
}

// TestOverloadParallelMatchesSerial pins the -j guarantee for the overload
// experiment: open-loop arrivals, shedding, retry budgets and the SLO
// controller must all be deterministic per point, so Workers 1 and 4
// produce byte-identical outcomes.
func TestOverloadParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment in -short mode")
	}
	e, ok := Lookup("overload")
	if !ok {
		t.Fatal("overload experiment not registered")
	}
	serial := renderOutcome(e.Run(overloadPairConfig(3, 1)))
	parallel := renderOutcome(e.Run(overloadPairConfig(3, 4)))
	if serial != parallel {
		t.Errorf("parallel outcome differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestFaultToleranceNoNaN: recovery-metric arithmetic must produce finite
// values even on degenerate inputs (satellite of the overload PR — the amp
// and slowdown divisions are now guarded by safeDiv).
func TestFaultToleranceNoNaN(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment in -short mode")
	}
	e, ok := Lookup("fault_tolerance")
	if !ok {
		t.Fatal("fault_tolerance experiment not registered")
	}
	o := e.Run(overloadPairConfig(1, runtime.GOMAXPROCS(0)))
	if len(o.Comparisons) != 0 {
		t.Fatalf("recorded %d comparisons; beyond-paper metrics belong in the tables", len(o.Comparisons))
	}
	requireFiniteCells(t, o)
}
