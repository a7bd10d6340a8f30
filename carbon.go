package edisim

import (
	"fmt"

	"edisim/internal/carbon"
	"edisim/internal/core"
	"edisim/internal/hw"
	"edisim/internal/report"
	"edisim/internal/tco"
)

// This file is the public face of the energy/carbon/price layers: the grid
// region catalog, the carbon accounting helpers, and the CarbonStudy
// workload that prices platform fleets across regions (see API.md's
// "Energy, carbon and price" section).

// Grid is one electricity-grid region: a region key (the grammar Scenario.
// Region and CarbonStudy.Regions accept), a human label, an average
// carbon intensity in gCO2e per kWh and an industrial electricity tariff
// in USD per kWh.
type Grid = carbon.Grid

// EnergyProfile is a platform's component-level energy catalog data (CPU
// TDP, memory and disk draw, PSU overhead, embodied carbon); platforms with
// a zero profile only support the calibrated linear power model.
type EnergyProfile = hw.EnergyProfile

// PowerModel maps CPU utilization to wall draw; PowerModelKind names one
// (see EnergyModelNames and Platform.PowerModelFor).
type (
	PowerModel     = hw.PowerModel
	PowerModelKind = hw.PowerModelKind
)

// The named power models: the paper-calibrated linear interpolation (the
// default) and the component-level TDP curve.
const (
	PowerLinear   = hw.PowerLinear
	PowerTDPCurve = hw.PowerTDPCurve
)

// DefaultPUE is the facility power-usage-effectiveness the carbon layer
// assumes when a region is selected (a modern, efficient facility).
const DefaultPUE = carbon.DefaultPUE

// Regions returns the grid-region catalog in registration order.
func Regions() []Grid { return carbon.Regions() }

// RegionNames lists the valid region keys in registration order.
func RegionNames() []string { return carbon.RegionNames() }

// LookupRegion resolves a region key (case/whitespace tolerant).
func LookupRegion(name string) (Grid, bool) { return carbon.Lookup(name) }

// RegionElectricityPrice reports a region's industrial electricity price in
// USD/kWh (its Grid's Price).
func RegionElectricityPrice(region string) (float64, bool) {
	g, ok := carbon.Lookup(region)
	return g.Price, ok
}

// EnergyModelNames lists the valid Scenario.EnergyModel spellings.
func EnergyModelNames() []string { return []string{"linear", "tdp-curve"} }

// OperationalCarbon converts IT energy to operational gCO2e: joules to kWh,
// scaled by the facility PUE (values below 1 are treated as 1) and the
// grid's intensity.
func OperationalCarbon(energy Joules, pue float64, g Grid) float64 {
	return carbon.Operational(energy, pue, g)
}

// EmbodiedCarbon amortizes manufacturing carbon (kgCO2e per server over a
// service life in years) across a fleet for a time window, in grams.
func EmbodiedCarbon(kgCO2ePerServer, serviceLifeYears float64, servers int, seconds float64) float64 {
	return carbon.Embodied(kgCO2ePerServer, serviceLifeYears, servers, seconds)
}

// CarbonStudy prices platform fleets across grid regions: 3-year wall
// energy (facility PUE included), operational and embodied carbon, and the
// cost split at each region's electricity tariff — the closed-form
// companion of TCOStudy for the question "where should this fleet run".
// The power endpoints follow Scenario.EnergyModel, so the same study
// re-prices under the component TDP-curve model by flipping one knob.
type CarbonStudy struct {
	// ID names the artifact (default "carbon_study").
	ID string
	// Platforms to price (default: the whole catalog).
	Platforms []PlatformRef
	// Nodes matches Platforms entry for entry (default: each platform's
	// fleet slave count, so a platform without one needs Nodes). Every
	// count must be positive.
	Nodes []int
	// Regions selects the compared grid regions by key (see RegionNames);
	// empty compares all of them.
	Regions []string
	// Utilization in [0,1] (default 0.5; ZeroUtilization for idle).
	Utilization float64
	// CarbonPricePerTonne prices operational carbon in USD per tCO2e
	// (a carbon tax or internal fee); 0 adds no cost column weight.
	CarbonPricePerTonne float64
}

func (cs *CarbonStudy) expand(cfg core.Config) ([]unit, error) {
	id := cs.ID
	if id == "" {
		id = "carbon_study"
	}
	plats, err := resolvePlatforms(id, cs.Platforms, hw.Platforms())
	if err != nil {
		return nil, err
	}
	sizes, err := fleetSizes(id, cs.Nodes, plats)
	if err != nil {
		return nil, err
	}
	names := cs.Regions
	if len(names) == 0 {
		names = carbon.RegionNames()
	}
	var pricings []tco.Pricing
	seen := map[string]bool{}
	for _, name := range names {
		pr, err := tco.NewPricing(cfg.Energy, name, 0, cs.CarbonPricePerTonne)
		if err != nil {
			return nil, fmt.Errorf("edisim: %s: %w", id, err)
		}
		if !seen[pr.Grid.Region] {
			seen[pr.Grid.Region] = true
			pricings = append(pricings, pr)
		}
	}
	util, err := resolveUtilization(id, cs.Utilization)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("3-year energy, carbon and cost by region at %.0f%% utilization", util*100)

	run := func(core.Config) (*core.Outcome, error) {
		o := &core.Outcome{}
		t := report.NewTable(title,
			"platform", "region", "nodes", "MWh (3y)", "op tCO2e", "embodied tCO2e", "total tCO2e",
			"electricity $", "carbon $", "total 3y $").
			WithUnits("", "", "nodes", "MWh", "t", "t", "t", "$", "$", "$")
		lifeSeconds := tco.LifeYears * 365 * 24 * 3600
		for pi, p := range plats {
			n := sizes[pi]
			for _, pr := range pricings {
				r, err := tco.Compute(pr.Inputs(p, n, util))
				if err != nil {
					return nil, err
				}
				embodied := carbon.Embodied(p.Energy.EmbodiedKgCO2e, p.Energy.ServiceLifeYears, n, lifeSeconds)
				t.AddRow(p.Label, pr.Grid.Region,
					report.Count(int64(n), "nodes"),
					report.Num(r.KWh/1000, "MWh"),
					report.Num(r.CarbonGrams/1e6, "t"),
					report.Num(embodied/1e6, "t"),
					report.Num((r.CarbonGrams+embodied)/1e6, "t"),
					report.Num(r.Electricity, "$"),
					report.Num(r.Carbon, "$"),
					report.Num(r.Total(), "$"))
			}
			if !p.Energy.Modeled() {
				o.Notes = append(o.Notes, fmt.Sprintf(
					"%s has no energy catalog data: embodied carbon is unreported and the TDP-curve model falls back to the calibrated linear endpoints", p.Label))
			}
		}
		o.Tables = append(o.Tables, t)
		o.Notes = append(o.Notes, fmt.Sprintf(
			"wall energy includes the default facility PUE of %.2f; operational carbon uses each region's average grid intensity; embodied carbon amortizes manufacturing over each platform's service life (catalog data, PLATFORMS.md)",
			carbon.DefaultPUE))
		return o, nil
	}
	return []unit{{id: id, title: title, section: "scenario", run: run}}, nil
}
