package core

import (
	"math"
	"slices"
	"testing"

	"edisim/internal/hw"
	"edisim/internal/report"
	"edisim/internal/tco"
	"edisim/internal/units"
	"edisim/internal/web"
)

// euNorth arms the lens on the eu-north grid: 29 gCO2e/kWh, $0.09/kWh, at
// the default PUE of 1.15.
var euNorth = Config{Region: "eu-north", Energy: hw.PowerTDPCurve}

// checkLens compares a helper's columns with hand-computed headers, units
// and values.
func checkLens(t *testing.T, got []lensCol, want ...lensCol) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d columns %v, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.header != w.header || g.cell.Unit != w.cell.Unit {
			t.Errorf("column %d: %q [%s], want %q [%s]", i, g.header, g.cell.Unit, w.header, w.cell.Unit)
		}
		if math.Abs(g.cell.Num-w.cell.Num) > 1e-12*math.Abs(w.cell.Num) {
			t.Errorf("column %d (%s): %v, want %v", i, w.header, g.cell.Num, w.cell.Num)
		}
	}
}

func TestDrawLens(t *testing.T) {
	r := web.Result{Throughput: 50, MeanPower: 100}
	// 100 W is 0.1 kW at the wall, 0.115 kW with the facility: 3.335 g/h.
	// 50 req/s is 180,000 req/h.
	checkLens(t, drawLens(euNorth, r, " at peak"),
		lensCol{"gCO2e/h at peak", report.Num(3.335, "g/h")},
		lensCol{"req per gCO2e", report.Num(180000/3.335, "req/g")})
	checkLens(t, drawLens(euNorth, web.Result{}, ""),
		lensCol{"gCO2e/h", report.Num(0, "g/h")},
		lensCol{"req per gCO2e", report.Num(0, "req/g")})
}

func TestEnergyPriceLens(t *testing.T) {
	// 0.115 kW from the grid at $0.09/kWh.
	checkLens(t, energyPriceLens(euNorth, web.Result{MeanPower: 100}),
		lensCol{"energy $/h (eu-north)", report.Num(0.01035, "$/h")})
}

func TestJobLens(t *testing.T) {
	// 1 kWh metered is 1.15 kWh from the grid: 33.35 g for 10 GB = 10240 MB.
	checkLens(t, jobLens(euNorth, 3.6e6, 10*units.GB),
		lensCol{"gCO2e per run", report.Num(33.35, "g")},
		lensCol{"MB per gCO2e", report.Num(10240/33.35, "MB/g")})
	checkLens(t, jobLens(euNorth, 0, 10*units.GB),
		lensCol{"gCO2e per run", report.Num(0, "g")},
		lensCol{"MB per gCO2e", report.Num(0, "MB/g")})
}

func TestFleetCostLens(t *testing.T) {
	micro, _ := hw.BaselinePair()
	checkLens(t, fleetCostLens(euNorth, nil, 0, tco.WebUtil), lensCol{"3y TCO $ (eu-north)", report.Num(0, "$")})
	cheap := fleetCostLens(euNorth, micro, 35, tco.WebUtil)[0].cell.Num
	dear := fleetCostLens(Config{Region: "ap-south", Energy: hw.PowerTDPCurve}, micro, 35, tco.WebUtil)[0].cell.Num
	if cheap <= 0 || cheap >= dear {
		t.Fatalf("35 nodes cost $%v at eu-north's tariff and $%v at ap-south's; want 0 < eu-north < ap-south", cheap, dear)
	}
}

// TestLensUnarmed: with the paper's power model and no region, no helper
// grows a column and no note is added.
func TestLensUnarmed(t *testing.T) {
	var cfg Config
	r := web.Result{Throughput: 50, MeanPower: 100}
	if n := len(drawLens(cfg, r, "")) + len(energyPriceLens(cfg, r)) + len(jobLens(cfg, 1, 1)) +
		len(fleetCostLens(cfg, nil, 0, 0)) + len(carbonLensNote(cfg)); n != 0 {
		t.Fatalf("unarmed lens grew %d columns or notes", n)
	}
}

func TestLensHeadersAndCells(t *testing.T) {
	lens := drawLens(euNorth, web.Result{Throughput: 50, MeanPower: 100}, "")
	cols, colUnits := lensHeaders([]string{"platform"}, []string{""}, lens)
	if want := []string{"platform", "gCO2e/h", "req per gCO2e"}; !slices.Equal(cols, want) {
		t.Fatalf("headers %v, want %v", cols, want)
	}
	if want := []string{"", "g/h", "req/g"}; !slices.Equal(colUnits, want) {
		t.Fatalf("units %v, want %v", colUnits, want)
	}
	if row := lensCells([]any{"edison"}, lens); len(row) != 3 || row[1] != lens[0].cell || row[2] != lens[1].cell {
		t.Fatalf("row %v does not end in the lens cells", row)
	}
}
