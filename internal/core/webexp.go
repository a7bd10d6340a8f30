package core

import (
	"fmt"
	"strings"

	"edisim/internal/faults"
	"edisim/internal/hw"
	"edisim/internal/report"
	"edisim/internal/stats"
	"edisim/internal/web"
)

func init() {
	register(Experiment{ID: "fig4_fig7", Title: "Web throughput & delay, no image", Section: "5.1.2", Run: runWebLight})
	register(Experiment{ID: "fig5_fig8", Title: "Web sweeps, higher image % / lower cache hit", Section: "5.1.2", Run: runWebMixes})
	register(Experiment{ID: "fig6_fig9", Title: "Web throughput & delay, 20% image", Section: "5.1.2", Run: runWebHeavy})
	register(Experiment{ID: "fig10_fig11", Title: "Response delay distributions", Section: "5.1.2", Run: runWebDelayDist})
	register(Experiment{ID: "table7", Title: "Delay decomposition", Section: "5.1.2", Run: runTable7})
}

// webDuration picks the per-point simulated window.
func webDuration(cfg Config) float64 {
	if cfg.Quick {
		return 4
	}
	return 15
}

func webConcurrencies(cfg Config) []float64 {
	if cfg.Quick {
		return []float64{64, 512, 1024}
	}
	return []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048}
}

// fleetTier is a platform's catalog web fleet as a paper-shaped tier.
func fleetTier(p *hw.Platform) web.Tier { return web.TierOn(p, p.Fleet.Web, p.Fleet.Cache) }

// RunWebPoint runs rc on a fresh testbed of tier t, under the config's
// power model and interrupt, with plan's "web" and "cache" faults scheduled
// (nil: a healthy run). Every web measurement of the experiments and the
// root package's studies goes through here.
func RunWebPoint(cfg Config, t web.Tier, rc web.RunConfig, plan *faults.Plan, seed int64) web.Result {
	dep := t.Build(cfg.Energy, cfg.Interrupt, seed)
	dep.WarmFor(rc)
	faults.Schedule(dep.Eng, plan.Filter("web", "cache"), seed, dep.Roster())
	return dep.Run(rc)
}

// SLOSeries splits a web run's SLO controller windows into plot series:
// each window's end time, served and shed operations per second, and the
// web servers in the routing rotation. They are empty when no SLO was set.
func SLOSeries(r web.Result) (t, served, shed, active []float64) {
	n := len(r.Windows)
	t, served, shed, active = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i, w := range r.Windows {
		t[i] = w.T
		served[i] = float64(w.Served) / r.Config.SLO.Window
		shed[i] = float64(w.Shed) / r.Config.SLO.Window
		active[i] = float64(w.Active)
	}
	return t, served, shed, active
}

// webCurve is one line of a web figure: a tier swept across the
// concurrency axis under one workload mix.
type webCurve struct {
	label      string
	tier       web.Tier
	image, hit float64
}

// webPoint is one (curve, concurrency) cell of a figure's sweep grid.
type webPoint struct {
	curve webCurve
	conc  float64
}

// sweepWebCurves runs every (curve × concurrency) cell of an experiment as
// one flat Sweep — the runner splits cells, not whole curves, so a few
// expensive saturated points don't serialize behind each other — and
// regroups the results per curve, in concurrency order.
func sweepWebCurves(cfg Config, name string, curves []webCurve) [][]web.Result {
	concs := webConcurrencies(cfg)
	s := Sweep[webPoint, web.Result]{Name: name}
	for _, c := range curves {
		for _, conc := range concs {
			s.Points = append(s.Points, webPoint{curve: c, conc: conc})
		}
	}
	s.Point = func(_ int, p webPoint, seed int64) web.Result {
		return RunWebPoint(cfg, p.curve.tier, web.RunConfig{
			Concurrency: p.conc,
			ImageFrac:   p.curve.image,
			CacheHit:    p.curve.hit,
			Duration:    webDuration(cfg),
		}, nil, seed)
	}
	flat := s.Run(cfg)
	out := make([][]web.Result, len(curves))
	for i := range curves {
		out[i] = flat[i*len(concs) : (i+1)*len(concs)]
	}
	return out
}

// curveSeries extracts the plotted series from one curve's results.
func curveSeries(results []web.Result) (tput, delay, power []float64) {
	for _, r := range results {
		tput = append(tput, r.Throughput)
		delay = append(delay, r.MeanDelay*1e3)
		power = append(power, float64(r.MeanPower))
	}
	return
}

// webScales lists the Table 6 tier sizes over the configured pair,
// trimmed in Quick mode.
func webScales(cfg Config) []web.Scale {
	all := web.Table6(cfg.Pair())
	if cfg.Quick {
		return all[:1]
	}
	return all
}

// fullScaleTiers returns Table 6's full-scale micro and brawny tiers over
// the configured pair, read by position so that a pair naming one
// platform twice still compares the two tier sizes.
func fullScaleTiers(cfg Config) (micro, brawny web.Tier) {
	full := web.Table6(cfg.Pair())[0]
	return full.Tiers[0], full.Tiers[1]
}

// runWebScaledSweeps renders one scaled throughput/delay/power figure set.
// id is the stable experiment ID, used (not the display titles, which may
// be reworded) to namespace per-point seed derivation.
func runWebScaledSweeps(cfg Config, id string, image float64, figTput, figDelay string) *Outcome {
	o := &Outcome{}
	micro, brawny := cfg.Pair()
	x := webConcurrencies(cfg)
	ft := report.NewFigure(figTput, "conn/s", "req/s", x)
	fd := report.NewFigure(figDelay, "conn/s", "ms", x)
	fp := report.NewFigure(figTput+" (power)", "conn/s", "W", x)

	var curves []webCurve
	for _, s := range webScales(cfg) {
		for _, tier := range s.Tiers {
			curves = append(curves, webCurve{
				label: fmt.Sprintf("%d %s", tier.NWeb, tier.Web.Label),
				tier:  tier, image: image, hit: 0.93,
			})
		}
	}

	// Peak tracking at the full-scale tier sizes (Table 6's first row).
	microFull, brawnyFull := fullScaleTiers(cfg)
	var microPeak, brawnyPeak, microPeakPower, brawnyPeakPower float64
	for ci, results := range sweepWebCurves(cfg, id, curves) {
		c := curves[ci]
		tput, delay, power := curveSeries(results)
		ft.Add(c.label, tput)
		fd.Add(c.label, delay)
		fp.Add(c.label, power)
		for i, v := range tput {
			if c.tier == microFull && v > microPeak {
				microPeak = v
				microPeakPower = power[i]
			}
			if c.tier == brawnyFull && v > brawnyPeak {
				brawnyPeak = v
				brawnyPeakPower = power[i]
			}
		}
	}
	o.Figures = append(o.Figures, ft, fd, fp)

	if microPeak > 0 && brawnyPeak > 0 {
		// Work-done-per-joule at peak: the paper's 3.5× headline.
		eff := (microPeak / microPeakPower) / (brawnyPeak / brawnyPeakPower)
		o.AddComparison(figTput, fmt.Sprintf("peak %s req/s", micro.Label), 7500, microPeak)
		o.AddComparison(figTput, fmt.Sprintf("peak %s req/s", brawny.Label), 7500, brawnyPeak)
		o.AddComparison(figTput, "energy-efficiency ratio (x)", 3.5, eff)
	}
	return o
}

func runWebLight(cfg Config) *Outcome {
	micro, brawny := cfg.Pair()
	o := runWebScaledSweeps(cfg, "fig4_fig7", 0.0, "Figure 4", "Figure 7")
	o.Notes = append(o.Notes, fmt.Sprintf(
		"lightest load: 93%% cache hit, no image queries; %s errors beyond 1024 conn/s, %s beyond 2048",
		micro.Label, brawny.Label))
	return o
}

func runWebHeavy(cfg Config) *Outcome {
	micro, _ := cfg.Pair()
	o := runWebScaledSweeps(cfg, "fig6_fig9", 0.20, "Figure 6", "Figure 9")
	o.Notes = append(o.Notes, fmt.Sprintf(
		"heaviest fair load: 20%% image queries utilize half of each %s NIC; throughput ≈85%% of the lightest workload",
		micro.Label))
	return o
}

func runWebMixes(cfg Config) *Outcome {
	o := &Outcome{}
	micro, brawny := cfg.Pair()
	x := webConcurrencies(cfg)
	ft := report.NewFigure("Figure 5", "conn/s", "req/s", x)
	fd := report.NewFigure("Figure 8", "conn/s", "ms", x)
	mixes := []struct {
		label      string
		image, hit float64
	}{
		{"cache=77%", 0.0, 0.77},
		{"cache=60%", 0.0, 0.60},
		{"img=6%", 0.06, 0.93},
		{"img=10%", 0.10, 0.93},
	}
	if cfg.Quick {
		mixes = mixes[:2]
	}
	microFull, brawnyFull := fullScaleTiers(cfg)
	var curves []webCurve
	for _, m := range mixes {
		curves = append(curves,
			webCurve{label: micro.Label + " " + m.label, tier: microFull, image: m.image, hit: m.hit},
			webCurve{label: brawny.Label + " " + m.label, tier: brawnyFull, image: m.image, hit: m.hit})
	}
	for ci, results := range sweepWebCurves(cfg, "fig5_fig8", curves) {
		tput, delay, _ := curveSeries(results)
		ft.Add(curves[ci].label, tput)
		fd.Add(curves[ci].label, delay)
	}
	o.Figures = append(o.Figures, ft, fd)
	return o
}

func runWebDelayDist(cfg Config) *Outcome {
	o := &Outcome{}
	micro, brawny := cfg.Pair()
	// ≈6000 req/s at 20% image: concurrency 768 × 8 calls.
	rc := web.RunConfig{Concurrency: 768, ImageFrac: 0.20, CacheHit: 0.93, Duration: webDuration(cfg) * 2}
	microFull, brawnyFull := fullScaleTiers(cfg)
	sides := []struct {
		tier web.Tier
		name string
	}{
		{microFull, "Figure 10 — " + micro.Label},
		{brawnyFull, "Figure 11 — " + brawny.Label},
	}
	results := RunSweep(cfg, "fig10_fig11", len(sides), func(i int, seed int64) web.Result {
		return RunWebPoint(cfg, sides[i].tier, rc, nil, seed)
	})
	var spread []string
	for i, side := range sides {
		r := results[i]
		h := stats.NewHistogram(0, 8, 32)
		// SYN retransmission backoff pushes a connection past 0.5 s.
		var late int64
		for v, n := range r.ConnDelays.Buckets() {
			for range n {
				h.Add(v)
			}
			if v >= 0.5 {
				late += n
			}
		}
		x := make([]float64, h.NumBins())
		y := make([]float64, h.NumBins())
		for i := range x {
			x[i] = h.BinCenter(i)
			y[i] = float64(h.Bin(i))
		}
		fig := report.NewFigure(side.name+" delay distribution", "delay (s)", "# samples", x)
		fig.Add("samples", y)
		o.Figures = append(o.Figures, fig)
		spread = append(spread, fmt.Sprintf("%s %.2f%% beyond 0.5 s, p99 %.4g s",
			side.tier.Web.Label, 100*safeDiv(float64(late), float64(r.ConnDelays.N()), 0), r.ConnDelays.Quantile(0.99)))
	}
	o.Notes = append(o.Notes, "connection delays (SYN retransmission backoff shows beyond 0.5 s): "+strings.Join(spread, "; "))
	return o
}

func runTable7(cfg Config) *Outcome {
	o := &Outcome{}
	t := report.NewTable("Table 7 — delay decomposition (ms)",
		"req/s", "DB (E)", "DB (D)", "cache (E)", "cache (D)", "total (E)", "total (D)").
		WithUnits("req/s", "ms", "ms", "ms", "ms", "ms", "ms")
	rates := []float64{480, 960, 1920, 3840, 7680}
	if cfg.Quick {
		rates = []float64{480, 3840}
	}
	paper := map[float64][6]float64{
		480:  {5.44, 1.61, 4.61, 0.37, 9.18, 1.43},
		960:  {5.25, 1.56, 9.37, 0.38, 14.79, 1.60},
		1920: {5.33, 1.56, 76.7, 0.39, 83.4, 1.73},
		3840: {8.74, 1.60, 105.1, 0.46, 114.7, 1.70},
		7680: {10.99, 1.98, 212.0, 0.74, 225.1, 2.93},
	}
	microFull, brawnyFull := fullScaleTiers(cfg)
	tiers := []web.Tier{microFull, brawnyFull}
	// One sweep cell per (rate, platform): micro at even indices, brawny odd.
	results := RunSweep(cfg, "table7", 2*len(rates), func(i int, seed int64) web.Result {
		rc := web.RunConfig{Concurrency: rates[i/2] / 8, ImageFrac: 0.20, CacheHit: 0.93, Duration: webDuration(cfg)}
		return RunWebPoint(cfg, tiers[i%2], rc, nil, seed)
	})
	for ri, rate := range rates {
		re, rd := results[2*ri], results[2*ri+1]
		row := []float64{
			re.DBDelay.Mean() * 1e3, rd.DBDelay.Mean() * 1e3,
			re.CacheDelay.Mean() * 1e3, rd.CacheDelay.Mean() * 1e3,
			re.WebTotal.Mean() * 1e3, rd.WebTotal.Mean() * 1e3,
		}
		t.AddRow(report.Num(rate, "req/s"), report.Num(row[0], "ms"), report.Num(row[1], "ms"),
			report.Num(row[2], "ms"), report.Num(row[3], "ms"), report.Num(row[4], "ms"), report.Num(row[5], "ms"))
		p := paper[rate]
		names := []string{"DB delay E ms", "DB delay D ms", "cache delay E ms", "cache delay D ms", "total E ms", "total D ms"}
		for i, n := range names {
			o.AddComparison(fmt.Sprintf("Table 7 @ %.0f req/s", rate), n, p[i], row[i])
		}
	}
	o.Tables = append(o.Tables, t)
	return o
}
