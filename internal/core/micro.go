package core

import (
	"fmt"

	"edisim/internal/hw"
	"edisim/internal/microbench"
	"edisim/internal/report"
	"edisim/internal/tco"
	"edisim/internal/units"
)

func init() {
	micro, brawny := hw.BaselinePair()
	register(Experiment{ID: "table2", Title: "Replacement estimate", Section: "3.1", Run: runTable2})
	register(Experiment{ID: "table3", Title: "Power states", Section: "3.2", Run: runTable3})
	register(Experiment{ID: "sec41_dhrystone", Title: "Dhrystone DMIPS", Section: "4.1", Run: runDhrystone})
	register(Experiment{ID: "fig2_fig3", Title: fmt.Sprintf("Sysbench CPU (%s & %s)", micro.Label, brawny.Label), Section: "4.1", Run: runSysbenchCPU})
	register(Experiment{ID: "sec42_memory", Title: "Memory bandwidth sweep", Section: "4.2", Run: runMemory})
	register(Experiment{ID: "table5", Title: "Storage I/O", Section: "4.3", Run: runStorage})
	register(Experiment{ID: "sec44_network", Title: "iperf3/ping matrix", Section: "4.4", Run: runNetwork})
	register(Experiment{ID: "table10", Title: "TCO comparison", Section: "6", Run: runTCO})
}

func runTable2(cfg Config) *Outcome {
	o := &Outcome{}
	micro, brawny := cfg.Pair()
	r := hw.EstimateReplacement(micro.Spec, brawny.Spec)
	t := report.NewTable(fmt.Sprintf("Table 2 — %s servers needed to replace one %s", micro.Label, brawny.FullName),
		"resource", "replacement")
	t.AddRow("CPU", r.ByCPU)
	t.AddRow("RAM", r.ByRAM)
	t.AddRow("NIC", r.ByNIC)
	t.AddRow("max", r.Required)
	o.Tables = append(o.Tables, t)
	pair := func(res string) string { return fmt.Sprintf("%s per %s (%s)", micro.Label, brawny.Label, res) }
	o.AddComparison("Table 2", pair("CPU"), 12, float64(r.ByCPU))
	o.AddComparison("Table 2", pair("RAM"), 16, float64(r.ByRAM))
	o.AddComparison("Table 2", pair("NIC"), 10, float64(r.ByNIC))
	o.AddComparison("Table 2", pair("required"), 16, float64(r.Required))
	return o
}

func runTable3(cfg Config) *Outcome {
	o := &Outcome{}
	micro, brawny := cfg.Pair()
	e, d := micro.Spec.Power, brawny.Spec.Power
	t := report.NewTable("Table 3 — power states", "server state", "idle (W)", "busy (W)").
		WithUnits("", "W", "W")
	rows := []struct {
		label        string
		idle, busy   units.Watts
		pIdle, pBusy float64
	}{
		{fmt.Sprintf("1 %s without Ethernet adaptor", micro.Label), e.Idle, e.Busy, 0.36, 0.75},
		{fmt.Sprintf("1 %s with Ethernet adaptor", micro.Label), e.IdleDraw(), e.BusyDraw(), 1.40, 1.68},
		{fmt.Sprintf("%s cluster of 35 nodes", micro.Label), 35 * e.IdleDraw(), 35 * e.BusyDraw(), 49.0, 58.8},
		{fmt.Sprintf("1 %s server", brawny.Label), d.IdleDraw(), d.BusyDraw(), 52, 109},
		{fmt.Sprintf("%s cluster of 3 nodes", brawny.Label), 3 * d.IdleDraw(), 3 * d.BusyDraw(), 156, 327},
	}
	for _, r := range rows {
		t.AddRow(r.label, report.Num(float64(r.idle), "W"), report.Num(float64(r.busy), "W"))
		o.AddComparison("Table 3 / "+r.label, "idle W", r.pIdle, float64(r.idle))
		o.AddComparison("Table 3 / "+r.label, "busy W", r.pBusy, float64(r.busy))
	}
	o.Tables = append(o.Tables, t)
	return o
}

func runDhrystone(cfg Config) *Outcome {
	o := &Outcome{}
	micro, brawny := cfg.Pair()
	e := microbench.Dhrystone(micro.Spec)
	d := microbench.Dhrystone(brawny.Spec)
	t := report.NewTable("§4.1 — Dhrystone", "platform", "DMIPS", "time for 100M runs (s)").
		WithUnits("", "DMIPS", "s")
	t.AddRow(e.Platform, report.Num(float64(e.DMIPS), "DMIPS"), report.Num(e.RunTime, "s"))
	t.AddRow(d.Platform, report.Num(float64(d.DMIPS), "DMIPS"), report.Num(d.RunTime, "s"))
	o.Tables = append(o.Tables, t)
	o.AddComparison("§4.1 Dhrystone", micro.Label+" DMIPS", 632.3, float64(e.DMIPS))
	o.AddComparison("§4.1 Dhrystone", brawny.Label+" DMIPS", 11383, float64(d.DMIPS))
	return o
}

func runSysbenchCPU(cfg Config) *Outcome {
	o := &Outcome{}
	micro, brawny := cfg.Pair()
	threads := []int{1, 2, 4, 8}
	x := []float64{1, 2, 4, 8}
	plats := []*hw.Platform{micro, brawny}

	// One sweep cell per (platform, thread count), each on its own engine.
	type cpuCell struct {
		p  *hw.Platform
		th int
	}
	s := Sweep[cpuCell, microbench.CPUPoint]{Name: "fig2_fig3"}
	for _, p := range plats {
		for _, th := range threads {
			s.Points = append(s.Points, cpuCell{p: p, th: th})
		}
	}
	s.Point = func(_ int, c cpuCell, _ int64) microbench.CPUPoint {
		return microbench.SysbenchCPU(c.p, []int{c.th})[0]
	}
	pts := s.Run(cfg)

	for si, plat := range plats {
		name := "Figure 2"
		if si != 0 {
			name = "Figure 3"
		}
		fig := report.NewFigure(fmt.Sprintf("%s — Sysbench CPU on %s", name, plat.Spec.Name),
			"threads", "seconds / ms", x)
		var total, resp []float64
		for _, p := range pts[si*len(threads) : (si+1)*len(threads)] {
			total = append(total, p.TotalTime)
			resp = append(resp, p.AvgResponse*1e3)
		}
		fig.Add("total time (s)", total)
		fig.Add("avg response (ms)", resp)
		o.Figures = append(o.Figures, fig)
	}
	micro1, brawny1 := pts[0], pts[len(threads)]
	gap := micro1.TotalTime / brawny1.TotalTime
	o.AddComparison("Figures 2–3", "1-thread gap (x)", 16.5, gap)
	o.AddComparison("Figure 3", brawny.Label+" 1-thread total (s)", 40, brawny1.TotalTime)
	return o
}

func runMemory(cfg Config) *Outcome {
	o := &Outcome{}
	micro, brawny := cfg.Pair()
	blocks := []units.Bytes{4 * units.KB, 16 * units.KB, 64 * units.KB, 256 * units.KB, units.MB}
	x := make([]float64, len(blocks))
	for i, b := range blocks {
		x[i] = float64(b) / 1024
	}
	fig := report.NewFigure("§4.2 — memory transfer rate vs block size", "block (KB)", "GB/s", x)
	for _, spec := range []hw.NodeSpec{micro.Spec, brawny.Spec} {
		pts := microbench.SysbenchMemory(spec, blocks, []int{16})
		var y []float64
		for _, p := range pts {
			y = append(y, float64(p.Rate)/float64(units.GBps))
		}
		fig.Add(spec.Name, y)
	}
	o.Figures = append(o.Figures, fig)
	o.AddComparison("§4.2", micro.Label+" peak GB/s", 2.2,
		float64(microbench.PeakMemoryBandwidth(micro.Spec))/float64(units.GBps))
	o.AddComparison("§4.2", brawny.Label+" peak GB/s", 36,
		float64(microbench.PeakMemoryBandwidth(brawny.Spec))/float64(units.GBps))
	return o
}

func runStorage(cfg Config) *Outcome {
	o := &Outcome{}
	micro, brawny := cfg.Pair()
	// Rows mix dimensions (rates vs latencies), so units ride on the
	// cells, not the columns.
	t := report.NewTable("Table 5 — storage I/O", "metric", micro.Label, brawny.Label)
	e := microbench.Storage(micro.Spec)
	d := microbench.Storage(brawny.Spec)
	mbv := func(r units.BytesPerSec) float64 { return float64(r) / float64(units.MBps) }
	mb := func(r units.BytesPerSec) report.Value { return report.Num(mbv(r), "MB/s") }
	ms := func(sec float64) report.Value { return report.Num(sec*1e3, "ms") }
	t.AddRow("write MB/s", mb(e.Write), mb(d.Write))
	t.AddRow("buffered write MB/s", mb(e.BufWrite), mb(d.BufWrite))
	t.AddRow("read MB/s", mb(e.Read), mb(d.Read))
	t.AddRow("buffered read MB/s", mb(e.BufRead), mb(d.BufRead))
	t.AddRow("write latency ms", ms(e.WriteLatency), ms(d.WriteLatency))
	t.AddRow("read latency ms", ms(e.ReadLatency), ms(d.ReadLatency))
	o.Tables = append(o.Tables, t)
	o.AddComparison("Table 5", micro.Label+" write MB/s", 4.5, mbv(e.Write))
	o.AddComparison("Table 5", brawny.Label+" write MB/s", 24.0, mbv(d.Write))
	o.AddComparison("Table 5", micro.Label+" read MB/s", 19.5, mbv(e.Read))
	o.AddComparison("Table 5", brawny.Label+" read MB/s", 86.1, mbv(d.Read))
	o.AddComparison("Table 5", micro.Label+" write latency ms", 18.0, e.WriteLatency*1e3)
	o.AddComparison("Table 5", brawny.Label+" read latency ms", 0.829, d.ReadLatency*1e3)
	return o
}

func runNetwork(cfg Config) *Outcome {
	o := &Outcome{}
	micro, brawny := cfg.Pair()
	t := report.NewTable("§4.4 — network", "pair", "TCP Mbit/s", "UDP Mbit/s", "RTT ms").
		WithUnits("", "Mbit/s", "Mbit/s", "ms")
	pairName := func(a, b *hw.Platform) string { return a.Label + " to " + b.Label }
	paperTCP := map[string]float64{
		pairName(brawny, brawny): 942,
		pairName(brawny, micro):  93.9,
		pairName(micro, micro):   93.9,
	}
	paperRTT := map[string]float64{
		pairName(brawny, brawny): 0.24,
		pairName(brawny, micro):  0.8,
		pairName(micro, micro):   1.3,
	}
	for _, r := range microbench.MeasureNetwork(micro, brawny) {
		tcp := float64(r.TCP) * 8 / 1e6
		udp := float64(r.UDP) * 8 / 1e6
		t.AddRow(r.Pair, report.Num(tcp, "Mbit/s"), report.Num(udp, "Mbit/s"), report.Num(r.RTT*1e3, "ms"))
		o.AddComparison("§4.4 "+r.Pair, "TCP Mbit/s", paperTCP[r.Pair], tcp)
		o.AddComparison("§4.4 "+r.Pair, "RTT ms", paperRTT[r.Pair], r.RTT*1e3)
	}
	o.Tables = append(o.Tables, t)
	return o
}

func runTCO(cfg Config) *Outcome {
	o := &Outcome{}
	micro, brawny := cfg.Pair()
	t := report.NewTable("Table 10 — 3-year TCO (USD)", "scenario", brawny.Label, micro.Label, "savings %").
		WithUnits("", "$", "$", "%")
	paper := map[string][2]float64{
		"Web service, low utilization":  {7948.7, 4329.5},
		"Web service, high utilization": {8236.8, 4346.1},
		"Big data, low utilization":     {5348.2, 4352.4},
		"Big data, high utilization":    {5495.0, 4352.4},
	}
	for _, s := range tco.Table10(micro, brawny) {
		t.AddRow(s.Name, report.Num(s.Brawny.Total(), "$"), report.Num(s.Micro.Total(), "$"), report.Num(100*s.Savings(), "%"))
		p := paper[s.Name]
		o.AddComparison("Table 10 / "+s.Name, brawny.Label+" TCO $", p[0], s.Brawny.Total())
		o.AddComparison("Table 10 / "+s.Name, micro.Label+" TCO $", p[1], s.Micro.Total())
	}
	o.Tables = append(o.Tables, t)
	return o
}
