package core

import (
	"fmt"
	"strings"
	"testing"

	"edisim/internal/hw"
	"edisim/internal/report"
	"edisim/internal/tco"
)

// TestEqualBudgetPricesArmedPowerModel: under -energy tdp-curve the
// equal-budget fleets are sized and priced with the curve, so Edison's
// "fleet 3y $" in the web and terasort tables equals the curve-priced TCO
// of the fleet the row reports, and the budgets are the curve-priced
// baseline fleets.
func TestEqualBudgetPricesArmedPowerModel(t *testing.T) {
	micro, brawny := hw.BaselinePair()
	cfg := Config{Seed: 1, Quick: true, Energy: hw.PowerTDPCurve}
	o, err := EqualBudget(cfg, EqualBudgetSpec{Platforms: []*hw.Platform{micro}})
	if err != nil {
		t.Fatal(err)
	}
	price := func(p *hw.Platform, n int, u float64) float64 {
		return tco.MustCompute(tco.Pricing{Model: hw.PowerTDPCurve}.Inputs(p, n, u)).Total()
	}
	f := brawny.Fleet
	webBudget := price(brawny, f.Web+f.Cache, tco.WebUtil)
	for _, tc := range []struct {
		title  string
		nodes  []string
		util   float64
		budget float64
	}{
		{"Equal-budget web serving", []string{"web", "cache"}, tco.WebUtil, webBudget},
		{"Equal-budget terasort", []string{"slaves"}, tco.HadoopUtil(micro), price(brawny, f.Slaves, tco.HadoopUtil(brawny))},
	} {
		var tab *report.Table
		for _, tb := range o.Tables {
			if strings.HasPrefix(tb.Title, tc.title) {
				tab = tb
			}
		}
		if tab == nil || len(tab.Rows) != 1 || tab.Rows[0][0].Str != micro.Label {
			t.Fatalf("no %q table with one %s row", tc.title, micro.Label)
		}
		row := tab.Rows[0]
		n := 0
		for _, h := range tc.nodes {
			n += int(row[column(t, tab, h)].Int)
		}
		got := row[column(t, tab, "fleet 3y $")].Num
		if want := price(micro, n, tc.util); n == 0 || got != want {
			t.Fatalf("%s: %d-node fleet 3y $ = %v, want the curve price %v", tc.title, n, got, want)
		}
		if over := price(micro, n+1, tc.util); got > tc.budget || over <= tc.budget {
			t.Fatalf("%s: %d nodes at $%v (one more $%v) do not fill the curve-priced budget $%v",
				tc.title, n, got, over, tc.budget)
		}
	}
	if !strings.Contains(o.Tables[0].Title, fmt.Sprintf("web $%.0f", webBudget)) {
		t.Fatalf("sizing title %q does not state the curve-priced web budget $%.0f", o.Tables[0].Title, webBudget)
	}
}
