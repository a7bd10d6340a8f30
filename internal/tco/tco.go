// Package tco implements the paper's total-cost-of-ownership model
// (Section 6): equipment cost plus electricity over a server lifetime,
// C = Cs + Ts·Ceph·(U·Pp + (1−U)·Pi), with the Table 9 constants and the
// Table 10 scenarios. Per-platform unit costs and power endpoints come from
// the hw platform catalog, so any catalog entry can be priced. One Pricing
// value (power model, grid region, PUE, carbon price; the zero value is
// Table 9) prices a fleet at a fixed size (Pricing.Inputs, then Compute)
// or sizes it to a spending cap (Pricing.Size), which is how the paper's
// "35 Edisons vs 3 Dells at comparable cost" comparison generalizes to
// arbitrary platforms. A region's tariff and carbon intensity are one row
// of the carbon package's grid table.
package tco

import (
	"fmt"
	"math"

	"edisim/internal/carbon"
	"edisim/internal/hw"
	"edisim/internal/units"
)

// Inputs is the parameter set of Equation (1) for one cluster, extended with
// the facility and carbon knobs of the layered model. All extensions default
// to zero values that reproduce the paper's Equation (1) exactly.
type Inputs struct {
	Servers     int
	CostPerUnit float64     // Cs per server, USD
	Peak        units.Watts // Pp per server
	Idle        units.Watts // Pi per server
	Utilization float64     // U in [0,1]
	LifeYears   float64     // Ts
	PricePerKWh float64     // Ceph

	// PUE multiplies IT energy by the facility overhead; 0 (and 1) mean no
	// overhead, values in (0,1) are invalid — a facility cannot return power.
	PUE float64
	// GramsPerKWh is the grid carbon intensity; 0 leaves carbon unmodeled.
	GramsPerKWh float64
	// CarbonPricePerTonne prices operational carbon in USD per tCO2e
	// (a carbon tax or internal carbon fee); 0 adds no cost.
	CarbonPricePerTonne float64
}

// Validate reports the first invalid field, if any. Every Compute input is
// user-reachable through cmd/tcocalc and the public edisim package, so
// out-of-range values must surface as errors, not panics or negative costs.
func (in Inputs) Validate() error {
	pueErr := checkPUE(in.PUE)
	switch {
	case in.Servers <= 0:
		return fmt.Errorf("tco: server count %d must be positive", in.Servers)
	case math.IsNaN(in.Utilization) || in.Utilization < 0 || in.Utilization > 1:
		return fmt.Errorf("tco: utilization %v outside [0,1]", in.Utilization)
	case in.CostPerUnit < 0:
		return fmt.Errorf("tco: negative unit cost %v", in.CostPerUnit)
	case in.LifeYears < 0:
		return fmt.Errorf("tco: negative lifetime %v years", in.LifeYears)
	case in.PricePerKWh < 0:
		return fmt.Errorf("tco: negative electricity price %v", in.PricePerKWh)
	case pueErr != nil:
		return fmt.Errorf("tco: %w", pueErr)
	case math.IsNaN(in.GramsPerKWh) || in.GramsPerKWh < 0:
		return fmt.Errorf("tco: negative grid intensity %v gCO2e/kWh", in.GramsPerKWh)
	case math.IsNaN(in.CarbonPricePerTonne) || in.CarbonPricePerTonne < 0:
		return fmt.Errorf("tco: negative carbon price %v $/tCO2e", in.CarbonPricePerTonne)
	}
	return nil
}

// checkPUE reports a facility PUE that is neither 0 (unmodeled) nor at
// least 1.
func checkPUE(pue float64) error {
	if math.IsNaN(pue) || pue < 0 || pue > 0 && pue < 1 {
		return fmt.Errorf("PUE %v must be 0 (unmodeled) or >= 1", pue)
	}
	return nil
}

// Defaults from Table 9.
const (
	PricePerKWh = 0.10 // US average
	LifeYears   = 3.0
)

// Result is the cost breakdown in USD, plus the energy and carbon totals
// the costs were derived from (zero when the corresponding knob is off).
type Result struct {
	Equipment   float64
	Electricity float64
	// Carbon is the carbon-price cost in USD (0 without a carbon price).
	Carbon float64

	// KWh is lifetime wall energy (PUE included); CarbonGrams is lifetime
	// operational carbon at the configured grid intensity.
	KWh         float64
	CarbonGrams float64
}

// Total reports equipment plus electricity plus carbon cost.
func (r Result) Total() float64 { return r.Equipment + r.Electricity + r.Carbon }

// Compute evaluates Equation (1) — extended by the facility (PUE) and
// carbon-price layers when those knobs are set — rejecting invalid inputs
// (non-positive server counts, utilization outside [0,1], negative costs)
// with an error. With the zero-valued knobs the arithmetic is exactly the
// paper's Equation (1).
func Compute(in Inputs) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	hours := in.LifeYears * 365 * 24
	meanWatts := in.Utilization*float64(in.Peak) + (1-in.Utilization)*float64(in.Idle)
	kwh := meanWatts / 1000 * hours * float64(in.Servers)
	if in.PUE > 1 {
		kwh *= in.PUE
	}
	grams := kwh * in.GramsPerKWh
	return Result{
		Equipment:   float64(in.Servers) * in.CostPerUnit,
		Electricity: kwh * in.PricePerKWh,
		Carbon:      grams / 1e6 * in.CarbonPricePerTonne,
		KWh:         kwh,
		CarbonGrams: grams,
	}, nil
}

// MustCompute is Compute for inputs known valid by construction (catalog
// platforms at fixed utilization points); it panics on invalid inputs.
func MustCompute(in Inputs) Result {
	r, err := Compute(in)
	if err != nil {
		panic(err)
	}
	return r
}

// Pricing is how a fleet is priced: the power model whose idle and busy
// draw it pays for, the grid region whose tariff and carbon intensity
// apply, a facility PUE override and a carbon price in USD per tCO2e. The
// zero value is the paper's Table 9: linear endpoints at $0.10/kWh, no
// facility overhead and no carbon. A fleet sized by Size costs at most its
// budget when priced by Inputs of the same Pricing.
type Pricing struct {
	Model hw.PowerModelKind
	// Grid is the region priced at (see NewPricing); zero keeps Table 9.
	Grid carbon.Grid
	// PUE overrides the facility overhead; 0 keeps the default:
	// carbon.DefaultPUE in a region, none at Table 9.
	PUE         float64
	CarbonPrice float64
}

// NewPricing resolves a pricing's region and checks its knobs. A carbon
// price without a region attributes to the world-average ("global") grid;
// an empty region with no carbon price keeps Table 9's tariff. The errors
// name the bad knob without a package prefix, for callers to wrap.
func NewPricing(model hw.PowerModelKind, region string, pue, carbonPrice float64) (Pricing, error) {
	pr := Pricing{Model: model, PUE: pue, CarbonPrice: carbonPrice}
	if math.IsNaN(carbonPrice) || carbonPrice < 0 {
		return pr, fmt.Errorf("negative carbon price %v $/tCO2e", carbonPrice)
	}
	if err := checkPUE(pue); err != nil {
		return pr, err
	}
	if region == "" && carbonPrice > 0 {
		region = "global"
	}
	if region != "" {
		g, ok := carbon.Lookup(region)
		if !ok {
			return pr, fmt.Errorf("unknown region %q (valid: %v)", region, carbon.RegionNames())
		}
		pr.Grid = g
	}
	return pr, nil
}

// FacilityPUE is the facility overhead the pricing applies: the override,
// else carbon.DefaultPUE in a region; 0 means none.
func (pr Pricing) FacilityPUE() float64 {
	if pr.PUE == 0 && pr.Grid.Region != "" {
		return carbon.DefaultPUE
	}
	return pr.PUE
}

// Inputs builds the Equation (1) inputs for n nodes of platform p at
// utilization u: its unit cost and power endpoints (with Ethernet adapter
// where applicable, Table 3) under the pricing.
func (pr Pricing) Inputs(p *hw.Platform, n int, u float64) Inputs {
	// Concrete model types, not the PowerModel interface: boxing would
	// allocate, and budget sizing runs this per sweep point under the
	// allocation-free pin.
	var peak, idle units.Watts
	if pr.Model == hw.PowerTDPCurve && p.Energy.Modeled() {
		c := hw.NewTDPCurve(p.Energy, p.Spec.Mem.Capacity)
		peak, idle = c.BusyDraw(), c.IdleDraw()
	} else {
		peak, idle = p.Spec.Power.BusyDraw(), p.Spec.Power.IdleDraw()
	}
	return Inputs{
		Servers:             n,
		CostPerUnit:         p.UnitCost,
		Peak:                peak,
		Idle:                idle,
		Utilization:         u,
		LifeYears:           LifeYears,
		PricePerKWh:         pr.tariff(),
		PUE:                 pr.FacilityPUE(),
		GramsPerKWh:         pr.Grid.Grams,
		CarbonPricePerTonne: pr.CarbonPrice,
	}
}

// tariff is the electricity price in USD/kWh: the region's, else Table 9's.
func (pr Pricing) tariff() float64 {
	if pr.Grid.Region != "" {
		return pr.Grid.Price
	}
	return PricePerKWh
}

// Hourly prices one hour of a steady IT draw w, facility overhead
// included: its cost at the tariff and its gCO2e on the grid.
func (pr Pricing) Hourly(w units.Watts) (usd, grams float64) {
	kw := float64(w) / 1000 * max(pr.FacilityPUE(), 1)
	return kw * pr.tariff(), kw * pr.Grid.Grams
}

// sizeSlack absorbs float rounding when a budget is an exact multiple of
// the per-server cost: budgets are dollars, so a relative 1e-9 never admits
// a genuinely unaffordable server.
const sizeSlack = 1 + 1e-9

// MaxFleet caps Size's answer: absurd budgets size to this bound
// instead of overflowing the int conversion. It sits far beyond anything
// the simulator (or the planet) deploys; callers with tighter bounds
// (cluster.MaxGroupNodes) clamp further.
const MaxFleet = math.MaxInt32

// Size reports the largest fleet of platform p whose 3-year TCO at
// utilization u, under this pricing, fits within budgetUSD — the
// equal-spend sizing behind the paper's 35-Edisons-vs-3-Dells framing
// (§6). The TCO is linear in the server count, so the answer is budget
// divided by one server's lifetime cost, rounded down (capped at
// MaxFleet); 0 means a single server already exceeds the budget.
func (pr Pricing) Size(p *hw.Platform, budgetUSD, u float64) (int, error) {
	if math.IsNaN(budgetUSD) || math.IsInf(budgetUSD, 0) || budgetUSD <= 0 {
		return 0, fmt.Errorf("tco: budget $%v must be positive and finite", budgetUSD)
	}
	one, err := Compute(pr.Inputs(p, 1, u))
	if err != nil {
		return 0, err
	}
	per := one.Total()
	if per <= 0 {
		return 0, fmt.Errorf("tco: platform %s has non-positive per-server cost $%v", p.Name, per)
	}
	q := budgetUSD / per * sizeSlack
	if q > MaxFleet {
		return MaxFleet, nil
	}
	return int(q), nil
}

// Scenario is one Table 10 row comparing a micro fleet to a brawny fleet.
type Scenario struct {
	Name          string
	Brawny, Micro Result
}

// Savings reports the fractional saving of the micro cluster vs brawny.
func (s Scenario) Savings() float64 {
	if s.Brawny.Total() == 0 {
		return 0
	}
	return 1 - s.Micro.Total()/s.Brawny.Total()
}

// Table 10's high-utilization points, which every fleet priced beside a
// measured run uses too: web fleets at 75%; big-data micro fleets pinned at
// 100% (their jobs run 1.35–4× longer), brawny fleets at 74%.
const WebUtil = 0.75

// HadoopUtil is the big-data utilization point of platform p.
func HadoopUtil(p *hw.Platform) float64 {
	if p.Micro {
		return 1.0
	}
	return 0.74
}

// Table10 reproduces the paper's four scenarios over a compared pair at
// Table 9's pricing: web service compares the micro fleet to the brawny
// one at U ∈ {10%, WebUtil}; big data compares the micro fleet at
// HadoopUtil to the brawny one at U ∈ {25%, HadoopUtil}. The fleet sizes
// are the paper's, read from the baseline pair's catalog fleets (35 vs 3
// web and cache servers, 35 vs 2 slaves) whatever pair is priced.
func Table10(micro, brawny *hw.Platform) []Scenario {
	bm, bb := hw.BaselinePair()
	mWeb, bWeb := bm.Fleet.Web+bm.Fleet.Cache, bb.Fleet.Web+bb.Fleet.Cache
	mData, bData := bm.Fleet.Slaves, bb.Fleet.Slaves
	row := func(name string, nb, nm int, ub, um float64) Scenario {
		return Scenario{Name: name,
			Brawny: MustCompute(Pricing{}.Inputs(brawny, nb, ub)),
			Micro:  MustCompute(Pricing{}.Inputs(micro, nm, um))}
	}
	return []Scenario{
		row("Web service, low utilization", bWeb, mWeb, 0.10, 0.10),
		row("Web service, high utilization", bWeb, mWeb, WebUtil, WebUtil),
		row("Big data, low utilization", bData, mData, 0.25, HadoopUtil(micro)),
		row("Big data, high utilization", bData, mData, HadoopUtil(brawny), HadoopUtil(micro)),
	}
}
