// Package tco implements the paper's total-cost-of-ownership model
// (Section 6): equipment cost plus electricity over a server lifetime,
// C = Cs + Ts·Ceph·(U·Pp + (1−U)·Pi), with the Table 9 constants and the
// Table 10 scenarios. Per-platform unit costs and power endpoints come from
// the hw platform catalog, so any catalog entry can be priced — either at a
// fixed fleet size (Compute) or sized to a spending cap (SizeForBudget),
// which is how the paper's "35 Edisons vs 3 Dells at comparable cost"
// comparison generalizes to arbitrary platforms.
package tco

import (
	"fmt"
	"math"
	"strings"

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
	pueErr := CheckPUE(in.PUE)
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

// CheckPUE reports a facility PUE that is neither 0 (unmodeled) nor at
// least 1.
func CheckPUE(pue float64) error {
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

// ForPlatform builds Inputs for n nodes of a catalog platform at
// utilization u, using the platform's unit cost and measured per-node
// power endpoints (with Ethernet adapter where applicable, Table 3).
func ForPlatform(p *hw.Platform, n int, u float64) Inputs {
	return ForPlatformModel(p, n, u, hw.PowerLinear)
}

// ForPlatformModel is ForPlatform with the power endpoints taken from the
// named power model — armed with hw.PowerTDPCurve, the TCO prices the
// component-level curve's idle/busy wall draw instead of the calibrated
// linear endpoints.
func ForPlatformModel(p *hw.Platform, n int, u float64, kind hw.PowerModelKind) Inputs {
	// Concrete model types, not the PowerModel interface: boxing would
	// allocate, and budget sizing runs this per sweep point under the
	// allocation-free pin.
	var peak, idle units.Watts
	if kind == hw.PowerTDPCurve && p.Energy.Modeled() {
		c := hw.NewTDPCurve(p.Energy, p.Spec.Mem.Capacity)
		peak, idle = c.BusyDraw(), c.IdleDraw()
	} else {
		peak, idle = p.Spec.Power.BusyDraw(), p.Spec.Power.IdleDraw()
	}
	return Inputs{
		Servers:     n,
		CostPerUnit: p.UnitCost,
		Peak:        peak,
		Idle:        idle,
		Utilization: u,
		LifeYears:   LifeYears,
		PricePerKWh: PricePerKWh,
	}
}

// regionPrices maps the carbon package's region grammar to industrial
// electricity prices in USD/kWh (rounded recent annual averages; PLATFORMS.md
// cites the sources alongside the grid intensities). Cheap hydro in eu-north
// and the US Northwest, expensive post-2022 grids in Central Europe.
var regionPrices = map[string]float64{
	"us-east":      0.083,
	"us-west":      0.095,
	"eu-west":      0.17,
	"eu-north":     0.09,
	"eu-central":   0.20,
	"ap-south":     0.10,
	"ap-southeast": 0.13,
	"global":       PricePerKWh,
}

// RegionPrice reports the region's electricity price in USD/kWh. The region
// grammar is the carbon package's (case/whitespace tolerant).
func RegionPrice(region string) (float64, bool) {
	p, ok := regionPrices[strings.ToLower(strings.TrimSpace(region))]
	return p, ok
}

// ForPlatformInRegion builds regional Inputs: the region's electricity
// price and grid intensity, the default facility PUE, and power endpoints
// from the named model. carbonPricePerTonne prices the resulting
// operational carbon (0 = no carbon price).
func ForPlatformInRegion(p *hw.Platform, n int, u float64, kind hw.PowerModelKind,
	region string, carbonPricePerTonne float64) (Inputs, error) {
	price, ok := RegionPrice(region)
	grid, gok := carbon.Lookup(region)
	if !ok || !gok {
		return Inputs{}, fmt.Errorf("tco: unknown region %q (want one of %s)",
			region, strings.Join(carbon.RegionNames(), ", "))
	}
	in := ForPlatformModel(p, n, u, kind)
	in.PricePerKWh = price
	in.PUE = carbon.DefaultPUE
	in.GramsPerKWh = grid.Grams
	in.CarbonPricePerTonne = carbonPricePerTonne
	return in, nil
}

// sizeSlack absorbs float rounding when a budget is an exact multiple of
// the per-server cost: budgets are dollars, so a relative 1e-9 never admits
// a genuinely unaffordable server.
const sizeSlack = 1 + 1e-9

// MaxFleet caps SizeForBudget's answer: absurd budgets size to this bound
// instead of overflowing the int conversion. It sits far beyond anything
// the simulator (or the planet) deploys; callers with tighter bounds
// (cluster.MaxGroupNodes) clamp further.
const MaxFleet = math.MaxInt32

// SizeForBudget reports the largest fleet of platform p whose 3-year TCO at
// utilization u, priced with the named power model (see ForPlatformModel),
// fits within budgetUSD — the equal-spend sizing behind the paper's
// 35-Edisons-vs-3-Dells framing (§6). The TCO is linear in the server
// count, so the answer is budget divided by one server's lifetime cost,
// rounded down (capped at MaxFleet); 0 means a single server already
// exceeds the budget.
func SizeForBudget(p *hw.Platform, budgetUSD, u float64, kind hw.PowerModelKind) (int, error) {
	if math.IsNaN(budgetUSD) || math.IsInf(budgetUSD, 0) || budgetUSD <= 0 {
		return 0, fmt.Errorf("tco: budget $%v must be positive and finite", budgetUSD)
	}
	one, err := Compute(ForPlatformModel(p, 1, u, kind))
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

// Table10 reproduces the paper's four scenarios over the baseline pair:
// web service compares 35 Edisons to 3 Dells at U ∈ {10%, 75%}; big data
// compares 35 Edisons (pinned at 100% utilization, since jobs run 1.35–4×
// longer) to 2 Dells at U ∈ {25%, 74%}.
func Table10() []Scenario {
	micro, brawny := hw.BaselinePair()
	return []Scenario{
		{
			Name:   "Web service, low utilization",
			Brawny: MustCompute(ForPlatform(brawny, 3, 0.10)),
			Micro:  MustCompute(ForPlatform(micro, 35, 0.10)),
		},
		{
			Name:   "Web service, high utilization",
			Brawny: MustCompute(ForPlatform(brawny, 3, 0.75)),
			Micro:  MustCompute(ForPlatform(micro, 35, 0.75)),
		},
		{
			Name:   "Big data, low utilization",
			Brawny: MustCompute(ForPlatform(brawny, 2, 0.25)),
			Micro:  MustCompute(ForPlatform(micro, 35, 1.0)),
		},
		{
			Name:   "Big data, high utilization",
			Brawny: MustCompute(ForPlatform(brawny, 2, 0.74)),
			Micro:  MustCompute(ForPlatform(micro, 35, 1.0)),
		},
	}
}
