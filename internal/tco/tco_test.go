package tco

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"edisim/internal/carbon"
	"edisim/internal/hw"
)

func basePair() (micro, brawny *hw.Platform) { return hw.BaselinePair() }

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTable10MatchesPaper(t *testing.T) {
	paper := map[string][2]float64{
		"Web service, low utilization":  {7948.7, 4329.5},
		"Web service, high utilization": {8236.8, 4346.1},
		"Big data, low utilization":     {5348.2, 4352.4},
		"Big data, high utilization":    {5495.0, 4352.4},
	}
	for _, s := range Table10(basePair()) {
		p := paper[s.Name]
		if !almost(s.Brawny.Total(), p[0], p[0]*0.01) {
			t.Errorf("%s: brawny %.1f, paper %.1f", s.Name, s.Brawny.Total(), p[0])
		}
		if !almost(s.Micro.Total(), p[1], p[1]*0.01) {
			t.Errorf("%s: micro %.1f, paper %.1f", s.Name, s.Micro.Total(), p[1])
		}
	}
}

func TestSavingsUpTo47Percent(t *testing.T) {
	best := 0.0
	for _, s := range Table10(basePair()) {
		if s.Savings() > best {
			best = s.Savings()
		}
	}
	if best < 0.45 || best > 0.50 {
		t.Fatalf("best savings %.0f%%, paper says up to 47%%", 100*best)
	}
}

func TestEquipmentDominatesMicroCost(t *testing.T) {
	micro, _ := basePair()
	r := MustCompute(Pricing{}.Inputs(micro, 35, 1.0))
	if r.Equipment != 35*micro.UnitCost {
		t.Fatalf("equipment %.0f", r.Equipment)
	}
	if r.Electricity > r.Equipment*0.1 {
		t.Fatalf("micro electricity %.1f should be tiny next to equipment %.0f",
			r.Electricity, r.Equipment)
	}
}

// TestInvalidInputsRejected pins the bugfix: out-of-range utilization and
// non-positive server counts are errors, never panics or negative costs —
// both are user-reachable through cmd/tcocalc and edisim.ComputeTCO.
func TestInvalidInputsRejected(t *testing.T) {
	micro, brawny := basePair()
	cases := []struct {
		name string
		in   Inputs
		want string // substring of the error
	}{
		{"utilization above 1", Pricing{}.Inputs(brawny, 1, 1.5), "outside [0,1]"},
		{"negative utilization", Pricing{}.Inputs(brawny, 3, -0.25), "outside [0,1]"},
		{"NaN utilization", Pricing{}.Inputs(brawny, 3, math.NaN()), "outside [0,1]"},
		{"negative servers", Pricing{}.Inputs(micro, -5, 0.5), "must be positive"},
		{"zero servers", Pricing{}.Inputs(micro, 0, 0.5), "must be positive"},
		{"negative unit cost", Inputs{Servers: 1, CostPerUnit: -120, Utilization: 0.5, LifeYears: 3, PricePerKWh: 0.1}, "unit cost"},
		{"negative lifetime", Inputs{Servers: 1, CostPerUnit: 120, Utilization: 0.5, LifeYears: -3, PricePerKWh: 0.1}, "lifetime"},
		{"negative price", Inputs{Servers: 1, CostPerUnit: 120, Utilization: 0.5, LifeYears: 3, PricePerKWh: -0.1}, "electricity price"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Compute(tc.in)
			if err == nil {
				t.Fatalf("Compute(%+v) accepted invalid input: %+v", tc.in, r)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if r.Total() != 0 {
				t.Fatalf("invalid input still priced: %+v", r)
			}
		})
	}
}

func TestMustComputePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompute accepted invalid utilization")
		}
	}()
	_, brawny := basePair()
	MustCompute(Pricing{}.Inputs(brawny, 1, 1.5))
}

// TestSizeForBudget pins the equal-spend sizing math: floor(budget / one
// server's 3-year cost), exact multiples included, with errors for
// non-positive budgets and invalid utilization.
func TestSizeForBudget(t *testing.T) {
	micro, brawny := basePair()
	perMicro := MustCompute(Pricing{}.Inputs(micro, 1, 0.75)).Total()
	perBrawny := MustCompute(Pricing{}.Inputs(brawny, 1, 0.75)).Total()
	cases := []struct {
		name    string
		p       *hw.Platform
		budget  float64
		util    float64
		want    int
		wantErr string
	}{
		{name: "under one server", p: brawny, budget: perBrawny * 0.99, util: 0.75, want: 0},
		{name: "exactly one server", p: brawny, budget: perBrawny, util: 0.75, want: 1},
		{name: "exact multiple", p: micro, budget: 7 * perMicro, util: 0.75, want: 7},
		{name: "just under a multiple", p: micro, budget: 7*perMicro - 1, util: 0.75, want: 6},
		{name: "paper web budget", p: micro, budget: MustCompute(Pricing{}.Inputs(brawny, 3, 0.75)).Total(), util: 0.75},
		{name: "zero budget", p: micro, budget: 0, util: 0.5, wantErr: "must be positive"},
		{name: "negative budget", p: micro, budget: -100, util: 0.5, wantErr: "must be positive"},
		{name: "NaN budget", p: micro, budget: math.NaN(), util: 0.5, wantErr: "must be positive"},
		{name: "infinite budget", p: micro, budget: math.Inf(1), util: 0.5, wantErr: "finite"},
		{name: "bad utilization", p: micro, budget: 1000, util: 2, wantErr: "outside [0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Pricing{}.Size(tc.p, tc.budget, tc.util)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error containing %q, got n=%d err=%v", tc.wantErr, n, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Size: %v", err)
			}
			if tc.want > 0 && n != tc.want {
				t.Fatalf("got %d servers, want %d", n, tc.want)
			}
			// The sized fleet must fit the budget, and one more must not.
			if n > 0 {
				if got := MustCompute(Pricing{}.Inputs(tc.p, n, tc.util)).Total(); got > tc.budget*1.000001 {
					t.Fatalf("sized fleet $%.2f exceeds budget $%.2f", got, tc.budget)
				}
			}
			if over := MustCompute(Pricing{}.Inputs(tc.p, n+1, tc.util)).Total(); over <= tc.budget*0.999999 {
				t.Fatalf("fleet of %d (+1) at $%.2f still fits budget $%.2f — not maximal", n+1, over, tc.budget)
			}
		})
	}
}

// TestSizeForBudgetOverflowClamped: a finite but absurd budget must clamp
// to MaxFleet, never wrap the int conversion into a negative fleet.
func TestSizeForBudgetOverflowClamped(t *testing.T) {
	micro, _ := basePair()
	n, err := Pricing{}.Size(micro, 1e30, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != MaxFleet {
		t.Fatalf("absurd budget sized to %d, want the MaxFleet clamp %d", n, MaxFleet)
	}
}

// TestSizeForBudgetMatchesPaperScale: at the paper's high-utilization web
// point, the brawny 3-server budget buys a micro fleet in the tens of
// nodes — the §6 "comparable cost" framing (the paper deploys 35).
func TestSizeForBudgetMatchesPaperScale(t *testing.T) {
	micro, brawny := basePair()
	budget := MustCompute(Pricing{}.Inputs(brawny, 3, 0.75)).Total()
	n, err := Pricing{}.Size(micro, budget, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if n < 30 || n > 80 {
		t.Fatalf("budget $%.0f buys %d micro nodes; expected the paper's tens-of-nodes scale", budget, n)
	}
}

// TestSizingStaysAllocationFree pins that the budget-sizing path is pure
// math: it must never allocate, so experiments can size fleets per sweep
// point without touching the allocation-free request path's budget (the CI
// alloc-regression step runs this).
func TestSizingStaysAllocationFree(t *testing.T) {
	micro, brawny := basePair()
	budget := MustCompute(Pricing{}.Inputs(brawny, 3, 0.75)).Total()
	regional, err := NewPricing(hw.PowerTDPCurve, "eu-central", 0, 80)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, pr := range []Pricing{{}, {Model: hw.PowerTDPCurve}, regional} {
			if _, err := pr.Size(micro, budget, 0.75); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Pricing.Size allocates %.1f times per call, want 0", allocs)
	}
}

// TestSizeForBudgetPricesTheNamedModel: under the TDP-curve power model
// the sizing divides by the curve-priced server, so the sized fleet's
// curve-priced TCO fits the budget and one more server's does not.
func TestSizeForBudgetPricesTheNamedModel(t *testing.T) {
	micro, brawny := basePair()
	budget := MustCompute(Pricing{Model: hw.PowerTDPCurve}.Inputs(brawny, 3, 0.75)).Total()
	n, err := Pricing{Model: hw.PowerTDPCurve}.Size(micro, budget, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if got := MustCompute(Pricing{Model: hw.PowerTDPCurve}.Inputs(micro, n, 0.75)).Total(); got > budget*(1+1e-9) {
		t.Fatalf("%d-node fleet costs $%.2f under the curve, over the $%.2f budget", n, got, budget)
	}
	if over := MustCompute(Pricing{Model: hw.PowerTDPCurve}.Inputs(micro, n+1, 0.75)).Total(); over <= budget {
		t.Fatalf("%d nodes at $%.2f still fit the $%.2f budget — not maximal", n+1, over, budget)
	}
	linear, err := Pricing{}.Size(micro, budget, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if linear == n {
		t.Fatalf("both power models size %d nodes; the budget does not tell them apart", n)
	}
}

func BenchmarkSizeForBudget(b *testing.B) {
	micro, brawny := basePair()
	budget := MustCompute(Pricing{}.Inputs(brawny, 3, 0.75)).Total()
	regional, err := NewPricing(hw.PowerTDPCurve, "eu-central", 0, 80)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name string
		pr   Pricing
	}{{"linear", Pricing{}}, {"tdp-curve", Pricing{Model: hw.PowerTDPCurve}}, {"regional", regional}} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.pr.Size(micro, budget, 0.75); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Property: TCO is monotone in utilization (peak power > idle power).
func TestTCOMonotoneInUtilization(t *testing.T) {
	f := func(u1, u2 float64) bool {
		u1 = math.Abs(math.Mod(u1, 1))
		u2 = math.Abs(math.Mod(u2, 1))
		if math.IsNaN(u1) || math.IsNaN(u2) {
			return true
		}
		lo, hi := math.Min(u1, u2), math.Max(u1, u2)
		_, brawny := basePair()
		return MustCompute(Pricing{}.Inputs(brawny, 2, lo)).Total() <= MustCompute(Pricing{}.Inputs(brawny, 2, hi)).Total()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

// Property: cost scales linearly with server count.
func TestTCOLinearInServers(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		micro, _ := basePair()
		one := MustCompute(Pricing{}.Inputs(micro, 1, 0.5)).Total()
		many := MustCompute(Pricing{}.Inputs(micro, n, 0.5)).Total()
		return almost(many, float64(n)*one, 1e-6*many+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroKnobsMatchEquationOne pins the layering contract: with the PUE,
// intensity and carbon-price knobs at their zero values, the extended
// Compute is arithmetically the paper's Equation (1) — same electricity to
// the last bit, zero carbon cost.
func TestZeroKnobsMatchEquationOne(t *testing.T) {
	micro, _ := basePair()
	in := Pricing{}.Inputs(micro, 35, 0.75)
	r := MustCompute(in)
	hours := in.LifeYears * 365 * 24
	meanWatts := in.Utilization*float64(in.Peak) + (1-in.Utilization)*float64(in.Idle)
	kwh := meanWatts / 1000 * hours * float64(in.Servers)
	if r.Electricity != kwh*in.PricePerKWh {
		t.Fatalf("electricity drifted from Equation (1): %v vs %v", r.Electricity, kwh*in.PricePerKWh)
	}
	if r.Carbon != 0 || r.CarbonGrams != 0 {
		t.Fatalf("zero knobs produced carbon: %+v", r)
	}
	if r.Total() != r.Equipment+r.Electricity {
		t.Fatal("carbon term leaked into the zero-knob total")
	}
}

// TestFacilityAndCarbonKnobs: PUE scales energy, intensity fills grams,
// the carbon price adds a cost term.
func TestFacilityAndCarbonKnobs(t *testing.T) {
	micro, _ := basePair()
	base := MustCompute(Pricing{}.Inputs(micro, 10, 0.5))

	in := Pricing{}.Inputs(micro, 10, 0.5)
	in.PUE = 1.5
	r := MustCompute(in)
	if !almost(r.KWh, 1.5*base.KWh, 1e-9*r.KWh) || !almost(r.Electricity, 1.5*base.Electricity, 1e-9) {
		t.Fatalf("PUE 1.5 did not scale energy: %+v vs %+v", r, base)
	}

	in.GramsPerKWh = 400
	in.CarbonPricePerTonne = 100
	r = MustCompute(in)
	if wantG := r.KWh * 400; !almost(r.CarbonGrams, wantG, 1e-6) {
		t.Fatalf("grams %v, want %v", r.CarbonGrams, wantG)
	}
	if wantC := r.CarbonGrams / 1e6 * 100; !almost(r.Carbon, wantC, 1e-9) {
		t.Fatalf("carbon cost %v, want %v", r.Carbon, wantC)
	}
	if !almost(r.Total(), r.Equipment+r.Electricity+r.Carbon, 1e-9) {
		t.Fatal("total does not include the carbon term")
	}

	// Invalid knobs are rejected like every other input.
	for _, bad := range []Inputs{
		func() Inputs { i := Pricing{}.Inputs(micro, 1, 0.5); i.PUE = 0.8; return i }(),
		func() Inputs { i := Pricing{}.Inputs(micro, 1, 0.5); i.PUE = math.NaN(); return i }(),
		func() Inputs { i := Pricing{}.Inputs(micro, 1, 0.5); i.GramsPerKWh = -1; return i }(),
		func() Inputs { i := Pricing{}.Inputs(micro, 1, 0.5); i.CarbonPricePerTonne = -5; return i }(),
	} {
		if _, err := Compute(bad); err == nil {
			t.Fatalf("invalid knob accepted: %+v", bad)
		}
	}
}

// TestRegionTariffs: the carbon package's grid table is the one region
// table, each row holding its tariff and its intensity: every tariff is
// positive, and the world average prices at Table 9's US average.
func TestRegionTariffs(t *testing.T) {
	if len(carbon.Regions()) == 0 {
		t.Fatal("no regions")
	}
	for _, g := range carbon.Regions() {
		if g.Price <= 0 {
			t.Errorf("region %q has no positive tariff (got %v)", g.Region, g.Price)
		}
	}
	if g := carbon.MustLookup("global"); g.Price != PricePerKWh {
		t.Errorf("global tariff $%v/kWh, want Table 9's $%v", g.Price, PricePerKWh)
	}
}

// TestNewPricing: a region resolves to its grid row and defaults the PUE,
// an override replaces it, a bare carbon price attributes to the global
// grid, and the zero pricing is Table 9. Bad knobs are errors.
func TestNewPricing(t *testing.T) {
	micro, _ := basePair()
	pr, err := NewPricing(hw.PowerLinear, " EU-North ", 0, 80)
	if err != nil {
		t.Fatal(err)
	}
	in := pr.Inputs(micro, 5, 0.5)
	grid := carbon.MustLookup("eu-north")
	if pr.Grid != grid || in.PricePerKWh != grid.Price || in.GramsPerKWh != grid.Grams ||
		in.PUE != carbon.DefaultPUE || in.CarbonPricePerTonne != 80 {
		t.Fatalf("regional inputs wrong: %+v", in)
	}
	if pr, _ := NewPricing(hw.PowerLinear, "eu-north", 1.3, 0); pr.Inputs(micro, 5, 0.5).PUE != 1.3 {
		t.Fatal("PUE override ignored in a region")
	}
	if pr, _ := NewPricing(hw.PowerLinear, "", 0, 80); pr.Grid.Region != "global" {
		t.Fatalf("bare carbon price priced on %q, want the global grid", pr.Grid.Region)
	}
	table9, err := NewPricing(hw.PowerLinear, "", 0, 0)
	if err != nil || table9 != (Pricing{}) {
		t.Fatalf("no knobs resolved to %+v, %v; want the zero pricing", table9, err)
	}
	if in := table9.Inputs(micro, 5, 0.5); in.PricePerKWh != PricePerKWh || in.PUE != 0 || in.GramsPerKWh != 0 {
		t.Fatalf("zero pricing is not Table 9: %+v", in)
	}
	for _, bad := range []struct {
		region           string
		pue, carbonPrice float64
		want             string
	}{
		{"atlantis", 0, 0, `unknown region "atlantis"`},
		{"", 0.8, 0, "PUE 0.8"},
		{"", 0, -5, "negative carbon price -5"},
		{"", 0, math.NaN(), "negative carbon price NaN"},
	} {
		if _, err := NewPricing(hw.PowerLinear, bad.region, bad.pue, bad.carbonPrice); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("NewPricing(%q, %v, %v) = %v, want an error containing %q", bad.region, bad.pue, bad.carbonPrice, err, bad.want)
		}
	}

	curved := Pricing{Model: hw.PowerTDPCurve}.Inputs(micro, 5, 0.5)
	pm := micro.PowerModelFor(hw.PowerTDPCurve)
	if curved.Peak != pm.BusyDraw() || curved.Idle != pm.IdleDraw() {
		t.Fatalf("curve endpoints not used: %+v", curved)
	}
	if curved.Peak == table9.Inputs(micro, 5, 0.5).Peak {
		t.Fatal("curve endpoints identical to linear — model not threaded")
	}
}
