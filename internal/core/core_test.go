package core

import (
	"strings"
	"testing"

	"edisim/internal/hw"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	required := []string{
		"table2", "table3", "sec41_dhrystone", "fig2_fig3", "sec42_memory",
		"table5", "sec44_network", "fig4_fig7", "fig5_fig8", "fig6_fig9",
		"fig10_fig11", "table7", "fig12_fig15", "fig13_fig16", "sec522_logcount",
		"fig14_fig17", "sec524_terasort", "fig18_fig19_table8", "table10",
	}
	for _, id := range required {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q missing from registry (have %v)", id, IDs())
		}
	}
	if len(Experiments()) < len(required) {
		t.Fatalf("registry has %d experiments, want >= %d", len(Experiments()), len(required))
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("nope"); ok {
		t.Fatal("found nonexistent experiment")
	}
}

// runQuick executes an experiment in Quick mode and does generic sanity
// checks on its outcome.
func runQuick(t *testing.T, id string) *Outcome {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	o := e.Run(Config{Seed: 1, Quick: true})
	if o == nil {
		t.Fatalf("%s returned nil outcome", id)
	}
	if len(o.Tables)+len(o.Figures)+len(o.Comparisons) == 0 {
		t.Fatalf("%s produced no artifacts", id)
	}
	return o
}

func TestMicroExperiments(t *testing.T) {
	for _, id := range []string{"table2", "table3", "sec41_dhrystone", "fig2_fig3",
		"sec42_memory", "table5", "sec44_network", "table10"} {
		o := runQuick(t, id)
		for _, c := range o.Comparisons {
			if c.Paper == 0 {
				continue
			}
			if r := c.RatioError(); r < 0.5 || r > 2.0 {
				t.Errorf("%s: %s %s off by %.2fx (paper %.4g, sim %.4g)",
					id, c.Artifact, c.Metric, r, c.Paper, c.Measured)
			}
		}
	}
}

func TestTable2ExactMatch(t *testing.T) {
	o := runQuick(t, "table2")
	for _, c := range o.Comparisons {
		if c.Paper != c.Measured {
			t.Errorf("Table 2 %s: %g != %g", c.Metric, c.Measured, c.Paper)
		}
	}
}

func TestWebExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("web sweep in -short mode")
	}
	o := runQuick(t, "fig4_fig7")
	if len(o.Figures) < 3 {
		t.Fatalf("fig4_fig7 produced %d figures", len(o.Figures))
	}
	// Peak throughput and the 3.5x efficiency headline within band.
	for _, c := range o.Comparisons {
		switch {
		case strings.Contains(c.Metric, "energy-efficiency"):
			if c.Measured < 2.5 || c.Measured > 5.0 {
				t.Errorf("efficiency ratio %.2f, paper says 3.5x", c.Measured)
			}
		case strings.Contains(c.Metric, "peak"):
			if c.Measured < 5000 || c.Measured > 10000 {
				t.Errorf("%s: %.0f req/s, want ≈7500", c.Metric, c.Measured)
			}
		}
	}
}

func TestMapReduceExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation in -short mode")
	}
	o := runQuick(t, "fig13_fig16")
	for _, c := range o.Comparisons {
		if r := c.RatioError(); r < 0.6 || r > 1.7 {
			t.Errorf("%s %s off by %.2fx", c.Artifact, c.Metric, r)
		}
	}
	if len(o.Figures) != 2 {
		t.Fatalf("trace experiment produced %d figures, want 2", len(o.Figures))
	}
}

func TestQuickDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism check in -short mode")
	}
	e, _ := Lookup("fig13_fig16")
	a := e.Run(Config{Seed: 7, Quick: true})
	b := e.Run(Config{Seed: 7, Quick: true})
	if len(a.Comparisons) != len(b.Comparisons) {
		t.Fatal("different comparison counts")
	}
	for i := range a.Comparisons {
		if a.Comparisons[i].Measured != b.Comparisons[i].Measured {
			t.Fatalf("seeded rerun diverged: %v vs %v", a.Comparisons[i], b.Comparisons[i])
		}
	}
}

// TestTable10PricesConfiguredPair: Table 10 prices the configured pair at
// the paper's fleet sizes (35 vs 3 web, 35 vs 2 big data), so a Pi 3 /
// modern Xeon pair's cells hold Pi 3 and Xeon fleets, not Edison and Dell.
func TestTable10PricesConfiguredPair(t *testing.T) {
	pi3, _ := hw.LookupPlatform("pi3")
	xeon, _ := hw.LookupPlatform("xeon-modern")
	o := runTCO(Config{Seed: 1, Quick: true, Micro: pi3, Brawny: xeon})
	tab := o.Tables[0]
	if tab.Headers[1] != xeon.Label || tab.Headers[2] != pi3.Label {
		t.Fatalf("headers %v, want the pair's labels", tab.Headers)
	}
	for i, row := range tab.Rows {
		brawnyN := 3.0
		if i >= 2 {
			brawnyN = 2
		}
		// Equipment alone bounds each cell: electricity adds under 25% on
		// these fleets.
		brawny, micro := row[1].Num, row[2].Num
		if lo := brawnyN * xeon.UnitCost; brawny < lo || brawny > 1.25*lo {
			t.Errorf("%s: brawny $%v, want %g Xeons' $%v plus electricity", row[0].Str, brawny, brawnyN, lo)
		}
		if lo := 35 * pi3.UnitCost; micro < lo || micro > 1.25*lo {
			t.Errorf("%s: micro $%v, want 35 Pi 3s' $%v plus electricity", row[0].Str, micro, lo)
		}
	}
}
