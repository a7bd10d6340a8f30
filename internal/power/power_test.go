package power

import (
	"math"
	"testing"

	"edisim/internal/hw"
	"edisim/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func twoNodes() (*sim.Engine, []*hw.Node) {
	eng := sim.NewEngine()
	return eng, []*hw.Node{
		hw.NewNode(eng, &hw.Platform{Spec: hw.EdisonSpec()}, "e0"),
		hw.NewNode(eng, &hw.Platform{Spec: hw.EdisonSpec()}, "e1"),
	}
}

func TestMeterPowerSumsNodes(t *testing.T) {
	_, nodes := twoNodes()
	m := NewMeter("supply", nodes)
	if got := float64(m.Power()); !almost(got, 2*1.40, 1e-9) {
		t.Fatalf("idle meter power %g, want 2.80", got)
	}
}

func TestMeterEnergyAccumulates(t *testing.T) {
	eng, nodes := twoNodes()
	m := NewMeter("supply", nodes)
	eng.RunUntil(100)
	// 2 idle Edisons × 1.40 W × 100 s = 280 J.
	if got := float64(m.Energy()); !almost(got, 280, 1e-6) {
		t.Fatalf("idle energy %g, want 280", got)
	}
}

func TestMeterReset(t *testing.T) {
	eng, nodes := twoNodes()
	m := NewMeter("supply", nodes)
	eng.RunUntil(50)
	m.Reset()
	eng.RunUntil(100)
	if got := float64(m.Energy()); !almost(got, 140, 1e-6) {
		t.Fatalf("post-reset energy %g, want 140", got)
	}
}

func TestMeterBusyEnergyHigher(t *testing.T) {
	eng, nodes := twoNodes()
	m := NewMeter("supply", nodes)
	// Saturate both cores of node 0 for 100 s.
	nodes[0].ComputeSeconds(100, nil)
	nodes[0].ComputeSeconds(100, nil)
	eng.Run()
	got := float64(m.Energy())
	// Node0 busy (1.68 W) + node1 idle (1.40 W), 100 s each = 308 J.
	if !almost(got, 308, 1) {
		t.Fatalf("energy %g, want ≈308", got)
	}
}

func TestSamplerRecordsSeries(t *testing.T) {
	eng, nodes := twoNodes()
	m := NewMeter("supply", nodes)
	s := NewSampler(eng, m, 1.0)
	util := s.AddGauge("cpu", MeanUtilization(nodes))
	nodes[0].ComputeSeconds(5, nil) // one of four cores busy for ~5s
	eng.RunUntil(10)
	s.Stop()
	eng.Run()
	if s.Power.Len() < 10 {
		t.Fatalf("power series has %d samples, want >=10", s.Power.Len())
	}
	// CPU gauge at t=2 should show 25% (1 of 2 cores on 1 of 2 nodes).
	if got := util.At(2); !almost(got, 25, 1e-6) {
		t.Fatalf("cpu gauge %g%%, want 25%%", got)
	}
	// Power while busy should exceed idle power.
	if s.Power.At(2) <= s.Power.At(9) {
		t.Fatalf("busy power %g not above idle %g", s.Power.At(2), s.Power.At(9))
	}
}

func TestMeanMemUtilizationGauge(t *testing.T) {
	_, nodes := twoNodes()
	if err := nodes[0].AllocMem(nodes[0].Spec.Mem.Capacity / 2); err != nil {
		t.Fatal(err)
	}
	got := MeanMemUtilization(nodes)()
	if !almost(got, 25, 1e-6) {
		t.Fatalf("mem gauge %g%%, want 25%%", got)
	}
}

func TestGaugesEmptyNodeList(t *testing.T) {
	if MeanUtilization(nil)() != 0 || MeanMemUtilization(nil)() != 0 {
		t.Fatal("empty node list gauges should read 0")
	}
}

func TestSamplerRejectsBadInterval(t *testing.T) {
	for _, tc := range []struct {
		name     string
		interval float64
	}{
		{"zero", 0},
		{"negative", -1},
		{"nan", math.NaN()},
		{"+inf", math.Inf(1)},
		{"-inf", math.Inf(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, nodes := twoNodes()
			m := NewMeter("supply", nodes)
			defer func() {
				if recover() == nil {
					t.Fatalf("NewSampler(%v) did not panic", tc.interval)
				}
			}()
			NewSampler(eng, m, tc.interval)
		})
	}
}

func TestMeterEmptyNodeSet(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter("empty", nil)
	eng.RunUntil(100)
	if m.Power() != 0 || m.Energy() != 0 {
		t.Fatalf("empty meter reads %v W / %v J, want zeros", m.Power(), m.Energy())
	}
	m.Reset() // must not panic on a node-less meter
	s := NewSampler(eng, m, 1.0)
	eng.RunUntil(110)
	s.Stop()
	eng.Run()
	if got := s.Power.At(105); got != 0 {
		t.Fatalf("empty meter sampled %g W, want 0", got)
	}
}

func TestSamplerResetMidRun(t *testing.T) {
	eng, nodes := twoNodes()
	m := NewMeter("supply", nodes)
	s := NewSampler(eng, m, 1.0)
	eng.RunUntil(50)
	t0 := float64(eng.Now())
	m.Reset()
	eng.RunUntil(100)
	s.Stop()
	eng.Run()
	// Resetting the meter zeroes the energy baseline but must not disturb
	// the power trace: idle draw reads the same either side of the reset.
	want := 2 * 1.40 * (float64(eng.Now()) - t0)
	if got := float64(m.Energy()); !almost(got, want, 1e-6) {
		t.Fatalf("post-reset energy %g, want %g", got, want)
	}
	if before, after := s.Power.At(49), s.Power.At(51); before != after {
		t.Fatalf("power trace disturbed by Reset: %g before vs %g after", before, after)
	}
}

func TestGaugeAddedAfterStopStaysEmpty(t *testing.T) {
	eng, nodes := twoNodes()
	m := NewMeter("supply", nodes)
	s := NewSampler(eng, m, 1.0)
	eng.RunUntil(5)
	s.Stop()
	late := s.AddGauge("late", MeanUtilization(nodes))
	eng.RunUntil(20)
	eng.Run()
	if late.Len() != 0 {
		t.Fatalf("gauge added after Stop collected %d samples, want 0", late.Len())
	}
}

func TestMeterOverParkedNode(t *testing.T) {
	eng, nodes := twoNodes()
	m := NewMeter("supply", nodes)
	nodes[1].PowerDown()
	if got := float64(m.Power()); !almost(got, 1.40, 1e-9) {
		t.Fatalf("meter with one parked node reads %g W, want 1.40", got)
	}
	eng.RunUntil(100)
	// Only the live node accrues energy: 1.40 W × 100 s.
	if got := float64(m.Energy()); !almost(got, 140, 1e-6) {
		t.Fatalf("energy with one parked node %g, want 140", got)
	}
	nodes[1].PowerUp()
	if got := float64(m.Power()); !almost(got, 2*1.40, 1e-9) {
		t.Fatalf("meter after PowerUp reads %g W, want 2.80", got)
	}
}
