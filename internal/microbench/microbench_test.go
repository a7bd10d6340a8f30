package microbench

import (
	"math"
	"testing"

	"edisim/internal/hw"
	"edisim/internal/units"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDhrystoneReportsSpecDMIPS(t *testing.T) {
	e := Dhrystone(hw.EdisonSpec())
	d := Dhrystone(hw.DellR620Spec())
	if float64(e.DMIPS) != 632.3 || float64(d.DMIPS) != 11383 {
		t.Fatalf("DMIPS %v / %v, want 632.3 / 11383 (§4.1)", e.DMIPS, d.DMIPS)
	}
	if e.RunTime <= d.RunTime {
		t.Fatal("micro Dhrystone should take longer than brawny")
	}
	// Ratio should be the per-core gap, ≈18×.
	if r := e.RunTime / d.RunTime; r < 17 || r > 19 {
		t.Fatalf("run time ratio %.1f, want ≈18", r)
	}
}

func TestSysbenchCPUSingleThreadGap(t *testing.T) {
	th := []int{1}
	e := SysbenchCPU(&hw.Platform{Spec: hw.EdisonSpec()}, th)[0]
	d := SysbenchCPU(&hw.Platform{Spec: hw.DellR620Spec()}, th)[0]
	gap := e.TotalTime / d.TotalTime
	// §4.1: "a Dell server is 15-18 times faster" single-threaded.
	if gap < 15 || gap > 18 {
		t.Fatalf("1-thread Sysbench gap %.1f, want 15–18", gap)
	}
	// Figure 3: Dell 1-thread completes in ≈40 s.
	if !almost(d.TotalTime, 40, 2) {
		t.Fatalf("Dell 1-thread time %.1fs, want ≈40s", d.TotalTime)
	}
	// Figure 2: Edison 1-thread in the 550–700 s band.
	if e.TotalTime < 550 || e.TotalTime > 700 {
		t.Fatalf("micro 1-thread time %.1fs, want 550–700s", e.TotalTime)
	}
}

func TestSysbenchCPUThreadScaling(t *testing.T) {
	pts := SysbenchCPU(&hw.Platform{Spec: hw.EdisonSpec()}, []int{1, 2, 4, 8})
	// Two physical cores: halving from 1→2 threads, flat afterwards (Fig 2).
	if !almost(pts[1].TotalTime, pts[0].TotalTime/2, 1) {
		t.Fatalf("2 threads %.1fs, want half of %.1fs", pts[1].TotalTime, pts[0].TotalTime)
	}
	if !almost(pts[2].TotalTime, pts[1].TotalTime, 1) || !almost(pts[3].TotalTime, pts[1].TotalTime, 1) {
		t.Fatalf("4/8 threads should stay flat: %v", pts)
	}
	// Response time rises once threads exceed cores (Fig 2 secondary axis).
	if pts[3].AvgResponse <= pts[1].AvgResponse {
		t.Fatal("8-thread response should exceed 2-thread response")
	}
}

func TestSysbenchCPUDellResponseBand(t *testing.T) {
	pts := SysbenchCPU(&hw.Platform{Spec: hw.DellR620Spec()}, []int{1, 2, 4, 8})
	// Figure 3 secondary axis: 3–5 ms per event throughout.
	for _, p := range pts {
		if p.AvgResponse < 3e-3 || p.AvgResponse > 5e-3 {
			t.Fatalf("Dell response %.2fms at %d threads, want 3–5ms",
				p.AvgResponse*1e3, p.Threads)
		}
	}
}

func TestMemoryBandwidthMatchesSection42(t *testing.T) {
	e := float64(PeakMemoryBandwidth(hw.EdisonSpec())) / float64(units.GBps)
	d := float64(PeakMemoryBandwidth(hw.DellR620Spec())) / float64(units.GBps)
	if !almost(e, 2.2, 0.15) {
		t.Fatalf("micro peak bandwidth %.2f GB/s, want ≈2.2", e)
	}
	if !almost(d, 36, 2) {
		t.Fatalf("Dell peak bandwidth %.1f GB/s, want ≈36", d)
	}
}

func TestMemorySaturationCurve(t *testing.T) {
	blocks := []units.Bytes{4 * units.KB, 64 * units.KB, 256 * units.KB, units.MB}
	pts := SysbenchMemory(hw.EdisonSpec(), blocks, []int{2})
	// Monotone non-decreasing in block size.
	for i := 1; i < len(pts); i++ {
		if pts[i].Rate < pts[i-1].Rate {
			t.Fatalf("rate not monotone in block size: %v", pts)
		}
	}
	// Saturation: 256KB within 15% of 1MB rate (paper: saturates 256KB–1MB).
	r256, r1m := float64(pts[2].Rate), float64(pts[3].Rate)
	if r256 < 0.85*r1m {
		t.Fatalf("256KB rate %.2g not near-saturated vs 1MB rate %.2g", r256, r1m)
	}
	// 4KB distinctly slower.
	if float64(pts[0].Rate) > 0.7*r1m {
		t.Fatalf("4KB rate should be well below saturation")
	}
}

func TestMemoryThreadSaturation(t *testing.T) {
	blocks := []units.Bytes{units.MB}
	one := SysbenchMemory(hw.EdisonSpec(), blocks, []int{1})[0].Rate
	two := SysbenchMemory(hw.EdisonSpec(), blocks, []int{2})[0].Rate
	four := SysbenchMemory(hw.EdisonSpec(), blocks, []int{4})[0].Rate
	if two <= one {
		t.Fatal("2 threads should beat 1 on the micro server")
	}
	if four > two {
		t.Fatal("beyond 2 threads the micro memory rate should not increase (§4.2)")
	}
	dEleven := SysbenchMemory(hw.DellR620Spec(), blocks, []int{12})[0].Rate
	dSixteen := SysbenchMemory(hw.DellR620Spec(), blocks, []int{16})[0].Rate
	if dSixteen > dEleven {
		t.Fatal("beyond 12 threads Dell memory rate should not increase (§4.2)")
	}
}

func TestStorageMatchesTable5(t *testing.T) {
	e := Storage(hw.EdisonSpec())
	d := Storage(hw.DellR620Spec())
	checks := []struct {
		name      string
		got, want float64
		tolerance float64
	}{
		{"edison write", float64(e.Write) / float64(units.MBps), 4.5, 0.5},
		{"edison buf write", float64(e.BufWrite) / float64(units.MBps), 9.3, 1},
		{"edison read", float64(e.Read) / float64(units.MBps), 19.5, 2.5},
		{"dell write", float64(d.Write) / float64(units.MBps), 24.0, 3},
		{"dell read", float64(d.Read) / float64(units.MBps), 86.1, 9},
		{"edison write latency", e.WriteLatency, 18.0e-3, 1e-3},
		{"edison read latency", e.ReadLatency, 7.0e-3, 1e-3},
		{"dell write latency", d.WriteLatency, 5.04e-3, 0.5e-3},
		{"dell read latency", d.ReadLatency, 0.829e-3, 0.1e-3},
	}
	for _, c := range checks {
		if !almost(c.got, c.want, c.tolerance) {
			t.Errorf("%s: %.3g, want ≈%.3g", c.name, c.got, c.want)
		}
	}
	// Ratios the paper calls out: direct write 5.3×, buffered write 8.9×.
	if r := float64(d.Write) / float64(e.Write); r < 4.5 || r > 6 {
		t.Errorf("direct write ratio %.1f, want ≈5.3", r)
	}
	if r := float64(d.BufWrite) / float64(e.BufWrite); r < 8 || r > 10 {
		t.Errorf("buffered write ratio %.1f, want ≈8.9", r)
	}
}

func TestNetworkMatchesSection44(t *testing.T) {
	micro, brawny := hw.BaselinePair()
	res := MeasureNetwork(micro, brawny)
	if len(res) != 3 {
		t.Fatalf("got %d pairs", len(res))
	}
	byName := map[string]NetworkResult{}
	for _, r := range res {
		byName[r.Pair] = r
	}
	dd := byName[brawny.Label+" to "+brawny.Label]
	if got := float64(dd.TCP) * 8 / 1e6; !almost(got, 942, 10) {
		t.Errorf("D-D TCP %.0f Mbit/s, want ≈942", got)
	}
	if got := dd.RTT * 1e3; !almost(got, 0.24, 0.05) {
		t.Errorf("D-D RTT %.2fms, want ≈0.24", got)
	}
	de := byName[brawny.Label+" to "+micro.Label]
	if got := float64(de.TCP) * 8 / 1e6; !almost(got, 93.9, 2) {
		t.Errorf("D-E TCP %.1f Mbit/s, want ≈93.9", got)
	}
	ee := byName[micro.Label+" to "+micro.Label]
	if got := float64(ee.TCP) * 8 / 1e6; !almost(got, 93.9, 2) {
		t.Errorf("E-E TCP %.1f Mbit/s, want ≈93.9", got)
	}
	if got := ee.RTT * 1e3; got < 1.0 || got > 1.5 {
		t.Errorf("E-E RTT %.2fms, want ≈1.3", got)
	}
	if got := float64(ee.UDP) * 8 / 1e6; !almost(got, 94.8, 1) {
		t.Errorf("E-E UDP %.1f Mbit/s, want 94.8", got)
	}
}
