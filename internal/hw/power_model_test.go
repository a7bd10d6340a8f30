package hw

import (
	"math"
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// testCurve is a bare-CPU curve (no components, ideal PSU) so anchor checks
// read directly in fractions of TDP.
func testCurve(tdp float64) TDPCurve {
	return NewTDPCurve(EnergyProfile{TDPWatts: tdp}, 0)
}

// TestTDPCurveAnchors pins the Boavizta/Snippet-1 mapping: 0/10/50/100% CPU
// → 12/32/75/102% of TDP, and the component/PSU arithmetic around it.
func TestTDPCurveAnchors(t *testing.T) {
	c := testCurve(100)
	for _, tc := range []struct{ util, want float64 }{
		{0, 12}, {0.10, 32}, {0.50, 75}, {1.0, 102},
	} {
		if got := float64(c.Draw(tc.util)); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Draw(%v) = %v W, want %v W", tc.util, got, tc.want)
		}
	}
	if c.IdleDraw() != c.Draw(0) || c.BusyDraw() != c.Draw(1) {
		t.Error("Idle/BusyDraw disagree with Draw endpoints")
	}

	// Components add before the PSU multiplier: 1 GB at 0.38 W, two 3 W
	// SSDs, 5 W board draw, 10% PSU loss.
	full := NewTDPCurve(EnergyProfile{
		TDPWatts: 100, MemWattsPerGB: 0.38, Disks: 2, DiskWatts: 3,
		FixedWatts: 5, PSUOverhead: 0.10,
	}, 1*units.GB)
	want := (12 + 0.38 + 6 + 5) * 1.10
	if got := float64(full.Draw(0)); math.Abs(got-want) > 1e-9 {
		t.Errorf("component idle draw = %v W, want %v W", got, want)
	}

	// Out-of-range utilization clamps to the endpoints.
	if full.Draw(-3) != full.IdleDraw() || full.Draw(7) != full.BusyDraw() {
		t.Error("out-of-range utilization not clamped")
	}
	// A degenerate PSU overhead never discounts the wall draw.
	neg := NewTDPCurve(EnergyProfile{TDPWatts: 100, PSUOverhead: -0.5}, 0)
	if neg.Draw(1) != testCurve(100).Draw(1) {
		t.Error("negative PSU overhead not clamped to 1.0")
	}
}

// TestTDPCurveMonotoneContinuous is the property test pinning the curve
// model: over a dense utilization grid the draw must be non-decreasing, and
// adjacent samples must differ by no more than the steepest published
// segment's slope times the step (continuity — no jumps at the 10% and 50%
// knees).
func TestTDPCurveMonotoneContinuous(t *testing.T) {
	curves := map[string]TDPCurve{"bare": testCurve(205)}
	for _, p := range Platforms() {
		if p.Energy.Modeled() {
			curves[p.Name] = NewTDPCurve(p.Energy, p.Spec.Mem.Capacity)
		}
	}
	const steps = 100000
	for name, c := range curves {
		// Steepest segment is 0→10%: (0.32-0.12)×TDP over 0.10 utilization.
		maxSlope := c.TDP * (0.32 - 0.12) / 0.10 * c.PSU
		step := 1.0 / steps
		prev := float64(c.Draw(0))
		for i := 1; i <= steps; i++ {
			u := float64(i) * step
			cur := float64(c.Draw(u))
			if cur < prev {
				t.Fatalf("%s: draw decreases at u=%v: %v -> %v", name, u, prev, cur)
			}
			if cur-prev > maxSlope*step*(1+1e-9) {
				t.Fatalf("%s: jump at u=%v: %v -> %v exceeds max slope %v",
					name, u, prev, cur, maxSlope)
			}
			prev = cur
		}
		if idle, busy := float64(c.Draw(0)), float64(c.Draw(1)); busy <= idle {
			t.Errorf("%s: busy %v not above idle %v", name, busy, idle)
		}
	}
}

// TestTDPCurveDrawSteadyStateNoAlloc pins the curve Draw hot path at zero
// allocations through the PowerModel interface — the exact shape of the
// node's updatePower call. Runs under the CI alloc gate.
func TestTDPCurveDrawSteadyStateNoAlloc(t *testing.T) {
	var pm PowerModel = NewTDPCurve(EnergyProfile{
		TDPWatts: 205, MemWattsPerGB: 0.38, Disks: 1, DiskWatts: 3,
		FixedWatts: 35, PSUOverhead: 0.10,
	}, 128*units.GB)
	var sink units.Watts
	allocs := testing.AllocsPerRun(1000, func() {
		sink += pm.Draw(0.3) + pm.Draw(0.7) + pm.IdleDraw() + pm.BusyDraw()
	})
	if allocs != 0 {
		t.Fatalf("TDPCurve draw path allocates %v/op, want 0 (sink %v)", allocs, sink)
	}
}

// TestPowerModelForSelection: kinds resolve per platform, and platforms
// without catalog energy data keep the linear model for any kind.
func TestPowerModelForSelection(t *testing.T) {
	micro, _ := BaselinePair()
	if pm := micro.PowerModelFor(PowerLinear); pm != PowerModel(micro.Spec.Power) {
		t.Error("linear kind did not resolve to the spec's PowerSpec")
	}
	if _, ok := micro.PowerModelFor(PowerTDPCurve).(TDPCurve); !ok {
		t.Error("tdp-curve kind did not resolve to a TDPCurve")
	}
	bare := &Platform{Name: "adhoc", Spec: NodeSpec{Power: PowerSpec{Idle: 1, Busy: 2}}}
	if pm := bare.PowerModelFor(PowerTDPCurve); pm != PowerModel(bare.Spec.Power) {
		t.Error("platform without energy data did not fall back to linear")
	}
}

func TestParsePowerModelKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want PowerModelKind
		ok   bool
	}{
		{"", PowerLinear, true},
		{"linear", PowerLinear, true},
		{"paper", PowerLinear, true},
		{"tdp-curve", PowerTDPCurve, true},
		{"tdp", PowerTDPCurve, true},
		{"curve", PowerTDPCurve, true},
		{"quadratic", PowerLinear, false},
	} {
		got, err := ParsePowerModelKind(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePowerModelKind(%q) = %v, %v; want %v, ok=%v",
				tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestNodeSetPowerModel: arming a curve changes draw and future energy
// segments; nil restores the linear default.
func TestNodeSetPowerModel(t *testing.T) {
	eng := sim.NewEngine()
	spec := EdisonSpec()
	n := NewNode(eng, &Platform{Spec: spec}, "n0")
	if n.Power() != spec.Power.IdleDraw() {
		t.Fatalf("default idle draw %v, want %v", n.Power(), spec.Power.IdleDraw())
	}
	curve := NewTDPCurve(EnergyProfile{TDPWatts: 10}, 0)
	n.SetPowerModel(curve)
	if n.Power() != curve.IdleDraw() {
		t.Fatalf("armed idle draw %v, want %v", n.Power(), curve.IdleDraw())
	}
	// One idle second under the curve model integrates the curve's idle draw.
	before := float64(n.Energy())
	eng.After(1, func() {})
	eng.Run()
	got := float64(n.Energy()) - before
	if want := float64(curve.IdleDraw()); math.Abs(got-want) > 1e-9 {
		t.Fatalf("1 s idle energy under curve = %v J, want %v J", got, want)
	}
	n.SetPowerModel(nil)
	if n.Power() != spec.Power.IdleDraw() {
		t.Fatal("nil did not restore the linear default")
	}
}

// BenchmarkTDPCurveDraw is the CI-pinned hot path benchmark: Draw through
// the PowerModel interface must stay allocation-free.
func BenchmarkTDPCurveDraw(b *testing.B) {
	var pm PowerModel = NewTDPCurve(EnergyProfile{
		TDPWatts: 205, MemWattsPerGB: 0.38, Disks: 1, DiskWatts: 3,
		FixedWatts: 35, PSUOverhead: 0.10,
	}, 128*units.GB)
	var sink units.Watts
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += pm.Draw(float64(i&127) / 127)
	}
	benchSink = float64(sink)
}

var benchSink float64
