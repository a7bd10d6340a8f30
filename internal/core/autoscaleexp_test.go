package core

import (
	"runtime"
	"strings"
	"testing"

	"edisim/internal/report"
)

// TestAutoscaleExperimentQuick checks the autoscale experiment's artifact
// shape: the elasticity ladder table, the fleet-size trace figure, no
// ledger rows (it is beyond the paper), finite table cells, and the
// headline pin — on the micro fleet some elastic policy beats the static
// fleet on energy at SLO parity.
func TestAutoscaleExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment in -short mode")
	}
	e, ok := Lookup("autoscale")
	if !ok {
		t.Fatal("autoscale experiment not registered")
	}
	if !e.OptIn {
		t.Fatal("autoscale must be opt-in: it is beyond the paper's artifact set")
	}
	o := e.Run(overloadPairConfig(1, runtime.GOMAXPROCS(0)))
	if len(o.Tables) != 1 {
		t.Fatalf("got %d tables, want 1 (elasticity ladder)", len(o.Tables))
	}
	if len(o.Figures) != 1 {
		t.Fatalf("got %d figures, want 1 (fleet-size trace)", len(o.Figures))
	}
	if len(o.Comparisons) != 0 {
		t.Fatalf("recorded %d comparisons; beyond-paper metrics belong in the tables", len(o.Comparisons))
	}
	requireFiniteCells(t, o)
	tab := o.Tables[0]
	ladder := tab.String()
	for _, want := range []string{"static", "target-util", "queue-depth", "predictive", "diurnal", "spike"} {
		if !strings.Contains(ladder, want) {
			t.Errorf("ladder table missing %q:\n%s", want, ladder)
		}
	}
	if strings.Contains(ladder, "NaN") {
		t.Errorf("ladder table contains NaN:\n%s", ladder)
	}

	// The headline pin: on the baseline micro fleet (24 × ~1.5 W servers,
	// 2 s boots) at least one elastic policy must, over the diurnal cycle
	// and within 5 points of static SLO attainment, use less energy than
	// the static fleet and raise both req/s/W and the energy-
	// proportionality score. Every point shares one measurement window, so
	// the power ratio is the energy ratio. The brawny fleet (2 servers,
	// 10 s boots) is allowed to lose — that asymmetry is the experiment's
	// point — so only the micro side is pinned.
	const sloParity = 0.05
	sloMet, power, perW, ep := column(t, tab, "SLO met"), column(t, tab, "power W"), column(t, tab, "req/s/W"), column(t, tab, "EP score")
	var static []report.Value
	var elastic [][]report.Value
	for _, row := range tab.Rows {
		if row[0].Str != "Edison" || row[1].Str != "diurnal" {
			continue
		}
		if row[2].Str == "static" {
			static = row
		} else {
			elastic = append(elastic, row)
		}
	}
	if static == nil || len(elastic) == 0 {
		t.Fatalf("ladder has no Edison diurnal static/elastic rows:\n%s", ladder)
	}
	won := false
	for _, row := range elastic {
		if row[sloMet].Num >= static[sloMet].Num-sloParity &&
			row[power].Num < static[power].Num &&
			row[perW].Num > static[perW].Num &&
			row[ep].Num > static[ep].Num {
			won = true
		}
	}
	if !won {
		t.Errorf("no elastic policy beat the static Edison fleet at SLO parity on energy, req/s/W and EP score:\n%s", ladder)
	}
}

// TestAutoscaleParallelMatchesSerial pins the -j guarantee for the
// autoscale experiment: boot timers, drain polls, warm-up penalties and the
// policy ticks must be deterministic per point, so Workers 1 and 4 produce
// byte-identical outcomes — at more than one seed, since fleet trajectories
// are seed-dependent.
func TestAutoscaleParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment in -short mode")
	}
	e, ok := Lookup("autoscale")
	if !ok {
		t.Fatal("autoscale experiment not registered")
	}
	for _, seed := range []int64{1, 7} {
		serial := renderOutcome(e.Run(overloadPairConfig(seed, 1)))
		parallel := renderOutcome(e.Run(overloadPairConfig(seed, 4)))
		if serial != parallel {
			t.Errorf("seed %d: parallel outcome differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				seed, serial, parallel)
		}
	}
}
