package core

import (
	"cmp"
	"fmt"

	"edisim/internal/carbon"
	"edisim/internal/hw"
	"edisim/internal/report"
	"edisim/internal/tco"
	"edisim/internal/units"
	"edisim/internal/web"
)

// The carbon lens: when Config arms the energy/carbon layers (a non-default
// power model or a region), the matrix experiments attribute metered joules
// and steady wall draws to the configured grid at the default facility PUE,
// and price fleets at the region's electricity tariff, all through one
// tco.Pricing (lensPricing). Each helper here owns
// a group of armed columns and returns them (none when the lens is not
// armed); an experiment appends them to its headers and rows. Calling a
// helper on a zero run names its columns, and gives the zero cells of a row
// with nothing measured.

// lensCol is one armed column of a table: its header and a row's cell, whose
// unit tags the column.
type lensCol struct {
	header string
	cell   report.Value
}

// lensHeaders appends the columns' headers and units to a table's.
func lensHeaders(cols, colUnits []string, lens []lensCol) ([]string, []string) {
	for _, l := range lens {
		cols = append(cols, l.header)
		colUnits = append(colUnits, l.cell.Unit)
	}
	return cols, colUnits
}

// lensCells appends the columns' cells to a row.
func lensCells(row []any, lens []lensCol) []any {
	for _, l := range lens {
		row = append(row, l.cell)
	}
	return row
}

// lensPricing is the armed lens's pricing: the armed power model on the
// configured region's grid (pre-validated), or the world average's when
// only the power model is armed.
func lensPricing(cfg Config) tco.Pricing {
	return tco.Pricing{Model: cfg.Energy, Grid: carbon.MustLookup(cmp.Or(cfg.Region, "global"))}
}

// drawLens attributes a web run's steady wall draw to the grid: gCO2e/h and
// requests served per gram. at names the operating point the draw was read
// at in the first header (" at peak"), "" for the run itself.
func drawLens(cfg Config, r web.Result, at string) []lensCol {
	if !cfg.CarbonArmed() {
		return nil
	}
	_, gph := lensPricing(cfg).Hourly(r.MeanPower)
	return []lensCol{
		{"gCO2e/h" + at, report.Num(gph, "g/h")},
		{"req per gCO2e", report.Num(safeDiv(r.Throughput*3600, gph, 0), "req/g")},
	}
}

// energyPriceLens prices a web run's wall draw, facility overhead included,
// at the region's electricity tariff.
func energyPriceLens(cfg Config, r web.Result) []lensCol {
	if !cfg.CarbonArmed() {
		return nil
	}
	pr := lensPricing(cfg)
	usd, _ := pr.Hourly(r.MeanPower)
	return []lensCol{{fmt.Sprintf("energy $/h (%s)", pr.Grid.Region), report.Num(usd, "$/h")}}
}

// servingLens is a web run's armed columns: its draw's emissions and price.
func servingLens(cfg Config, r web.Result) []lensCol {
	return append(drawLens(cfg, r, ""), energyPriceLens(cfg, r)...)
}

// peakLens is the armed columns of a sweep's peak run r on a fleet of n
// nodes of p: the draw's emissions at peak and the fleet's regional TCO at
// the web utilization point.
func peakLens(cfg Config, r web.Result, p *hw.Platform, n int) []lensCol {
	return append(drawLens(cfg, r, " at peak"), fleetCostLens(cfg, p, n, tco.WebUtil)...)
}

// jobLens attributes a job run's metered joules to the grid: grams per run
// and MB of input per gram.
func jobLens(cfg Config, e units.Joules, input units.Bytes) []lensCol {
	if !cfg.CarbonArmed() {
		return nil
	}
	pr := lensPricing(cfg)
	grams := carbon.Operational(e, pr.FacilityPUE(), pr.Grid)
	return []lensCol{
		{"gCO2e per run", report.Num(grams, "g")},
		{"MB per gCO2e", report.Num(safeDiv(float64(input)/float64(units.MB), grams, 0), "MB/g")},
	}
}

// fleetCostLens prices n nodes of p at utilization u in the configured
// region with the armed power model: the per-region TCO column. Zero nodes
// price to zero (budget-sized fleets can be empty).
func fleetCostLens(cfg Config, p *hw.Platform, n int, u float64) []lensCol {
	if !cfg.CarbonArmed() {
		return nil
	}
	pr := lensPricing(cfg)
	cost := 0.0
	if n > 0 {
		cost = tco.MustCompute(pr.Inputs(p, n, u)).Total()
	}
	return []lensCol{{fmt.Sprintf("3y TCO $ (%s)", pr.Grid.Region), report.Num(cost, "$")}}
}

// carbonLensNote documents the armed lens at the bottom of an experiment
// (no note when the lens is not armed).
func carbonLensNote(cfg Config) []string {
	if !cfg.CarbonArmed() {
		return nil
	}
	pr := lensPricing(cfg)
	g := pr.Grid
	model := "calibrated linear power model"
	if cfg.Energy == hw.PowerTDPCurve {
		model = "component TDP-curve power model"
	}
	return []string{fmt.Sprintf("carbon lens armed: %s; grid %s (%s, %.0f gCO2e/kWh) at PUE %.2f; per-region TCO uses that grid's electricity tariff",
		model, g.Region, g.Label, float64(g.Grams), pr.FacilityPUE())}
}
