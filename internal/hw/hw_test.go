package hw

import (
	"math"
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSpecsMatchPaperTable3(t *testing.T) {
	e := EdisonSpec().Power
	if !almost(float64(e.IdleDraw()), 1.40, 1e-9) || !almost(float64(e.BusyDraw()), 1.68, 1e-9) {
		t.Fatalf("Edison with adapter: idle %v busy %v, want 1.40/1.68", e.IdleDraw(), e.BusyDraw())
	}
	bare := PowerSpec{Idle: e.Idle, Busy: e.Busy}
	if !almost(float64(bare.IdleDraw()), 0.36, 1e-9) || !almost(float64(bare.BusyDraw()), 0.75, 1e-9) {
		t.Fatalf("bare Edison: idle %v busy %v, want 0.36/0.75", bare.IdleDraw(), bare.BusyDraw())
	}
	// Cluster of 35: 49.0 W idle, 58.8 W busy.
	if !almost(35*float64(e.IdleDraw()), 49.0, 1e-6) || !almost(35*float64(e.BusyDraw()), 58.8, 1e-6) {
		t.Fatal("35-node cluster power does not match Table 3")
	}
	d := DellR620Spec().Power
	if d.IdleDraw() != 52 || d.BusyDraw() != 109 {
		t.Fatalf("Dell: idle %v busy %v, want 52/109", d.IdleDraw(), d.BusyDraw())
	}
}

func TestPowerDrawClampsUtilization(t *testing.T) {
	p := DellR620Spec().Power
	if p.Draw(-1) != p.Draw(0) || p.Draw(2) != p.Draw(1) {
		t.Fatal("Draw does not clamp utilization")
	}
	mid := p.Draw(0.5)
	if !almost(float64(mid), (52+109)/2.0, 1e-9) {
		t.Fatalf("Draw(0.5)=%v", mid)
	}
}

func TestEstimateReplacementMatchesTable2(t *testing.T) {
	r := EstimateReplacement(EdisonSpec(), DellR620Spec())
	if r.ByCPU != 12 {
		t.Errorf("CPU replacement %d, want 12", r.ByCPU)
	}
	if r.ByRAM != 16 {
		t.Errorf("RAM replacement %d, want 16", r.ByRAM)
	}
	if r.ByNIC != 10 {
		t.Errorf("NIC replacement %d, want 10", r.ByNIC)
	}
	if r.Required != 16 {
		t.Errorf("required %d, want 16", r.Required)
	}
}

func TestCPUGapMatchesSection41(t *testing.T) {
	e, d := EdisonSpec().CPU, DellR620Spec().CPU
	perCore := float64(d.DMIPS) / float64(e.DMIPS)
	if perCore < 15 || perCore > 19 {
		t.Fatalf("per-core gap %.1f, want 15-18x (§4.1)", perCore)
	}
	whole := float64(d.TotalDMIPS()) / float64(e.TotalDMIPS())
	if whole < 90 || whole > 110 {
		t.Fatalf("whole-node gap %.1f, want 90-108x (§4.1)", whole)
	}
}

func TestNodeComputeTiming(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, &Platform{Spec: EdisonSpec()}, "e0")
	var doneAt sim.Time
	// One second of single-core Edison work.
	n.ComputeSeconds(1.0, func() { doneAt = eng.Now() })
	eng.Run()
	if !almost(float64(doneAt), 1.0, 1e-9) {
		t.Fatalf("compute finished at %v, want 1.0", doneAt)
	}
}

func TestNodeCrossPlatformSpeedRatio(t *testing.T) {
	eng := sim.NewEngine()
	ed := NewNode(eng, &Platform{Spec: EdisonSpec()}, "e0")
	dl := NewNode(eng, &Platform{Spec: DellR620Spec()}, "d0")
	const work = 11383.0 // one Dell-core-second of DMIPS-seconds
	var edDone, dlDone sim.Time
	ed.Compute(work, func() { edDone = eng.Now() })
	dl.Compute(work, func() { dlDone = eng.Now() })
	eng.Run()
	ratio := float64(edDone) / float64(dlDone)
	if ratio < 15 || ratio > 19 {
		t.Fatalf("same work ratio %.1f, want ≈18 (per-core gap)", ratio)
	}
}

func TestNodeEnergyIdleVsBusy(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, &Platform{Spec: DellR620Spec()}, "d0")
	eng.RunUntil(10) // 10 idle seconds
	idle := float64(n.Energy())
	if !almost(idle, 520, 1e-6) {
		t.Fatalf("idle energy %g J, want 520", idle)
	}
	// Saturate all effective cores for ~10s of single-core work each.
	cores := int(n.Spec.CPU.EffectiveCores())
	for i := 0; i < cores; i++ {
		n.ComputeSeconds(10, nil)
	}
	eng.Run()
	total := float64(n.Energy())
	busyPortion := total - idle
	if !almost(busyPortion, 1090, 60) { // ≈109 W × 10 s (HT rounding tolerance)
		t.Fatalf("busy energy %g J, want ≈1090", busyPortion)
	}
}

func TestNodeMemAccounting(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, &Platform{Spec: EdisonSpec()}, "e0")
	if err := n.AllocMem(900 * units.MB); err != nil {
		t.Fatalf("alloc within capacity failed: %v", err)
	}
	if err := n.AllocMem(200 * units.MB); err == nil {
		t.Fatal("over-capacity alloc succeeded")
	}
	n.FreeMem(900 * units.MB)
	if n.MemUsed() != 0 {
		t.Fatalf("mem used %v after free", n.MemUsed())
	}
}

func TestNodeFreeTooMuchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-free did not panic")
		}
	}()
	eng := sim.NewEngine()
	n := NewNode(eng, &Platform{Spec: EdisonSpec()}, "e0")
	n.FreeMem(1)
}

func TestBusyFloorRaisesPower(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, &Platform{Spec: EdisonSpec()}, "e0")
	base := float64(n.Power())
	n.SetBusyFloor(0.5)
	if float64(n.Power()) <= base {
		t.Fatal("busy floor did not raise power")
	}
}

func TestDiskTiming(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, EdisonSpec().Disk)
	var doneAt sim.Time
	// Direct write of 4.5 MB at 4.5 MB/s + 18 ms latency ≈ 1.018 s.
	d.Write(units.Bytes(4.5*float64(units.MB)), false, func() { doneAt = eng.Now() })
	eng.Run()
	if !almost(float64(doneAt), 1.018, 1e-3) {
		t.Fatalf("write finished at %v, want ≈1.018", doneAt)
	}
}

func TestDiskFIFOOrdering(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, DellR620Spec().Disk)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		d.Read(10*units.MB, false, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("disk completion order %v", order)
		}
	}
	if d.Ops() != 3 || d.BytesRead() != 30*units.MB {
		t.Fatalf("ops=%d read=%v", d.Ops(), d.BytesRead())
	}
}

func TestDiskBufferedFasterThanDirect(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, EdisonSpec().Disk)
	var directAt, bufAt sim.Time
	d.Write(units.MB, false, func() { directAt = eng.Now() })
	eng.Run()
	eng2 := sim.NewEngine()
	d2 := NewDisk(eng2, EdisonSpec().Disk)
	d2.Write(units.MB, true, func() { bufAt = eng2.Now() })
	eng2.Run()
	if bufAt >= directAt {
		t.Fatalf("buffered write (%v) not faster than direct (%v)", bufAt, directAt)
	}
}

func TestSubscribeUtilCancelSafety(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, &Platform{Spec: EdisonSpec()}, "n")

	var aCount, bCount int
	cancelA := n.SubscribeUtil(func(float64) { aCount++ })
	cancelA()
	cancelA() // double cancel: no-op

	// B reuses A's compacted slot; a stale cancelA must not touch it.
	cancelB := n.SubscribeUtil(func(float64) { bCount++ })
	cancelA()
	n.ComputeSeconds(0.1, nil)
	eng.Run()
	if bCount == 0 {
		t.Fatal("stale cancel silenced a later subscriber")
	}
	if aCount != 0 {
		t.Fatal("cancelled subscriber still notified")
	}

	// Stale cancel with an out-of-range captured index must not panic.
	c1 := n.SubscribeUtil(func(float64) {})
	cancelB()
	c1() // count hits 0, list compacts, generation bumps
	c2 := n.SubscribeUtil(func(float64) {})
	c1() // stale: index 1 of a len-1 list — must be a no-op, not a panic
	n.ComputeSeconds(0.1, nil)
	eng.Run()
	c2()
}
