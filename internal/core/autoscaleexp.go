package core

import (
	"fmt"

	"edisim/internal/autoscale"
	"edisim/internal/carbon"
	"edisim/internal/hw"
	"edisim/internal/load"
	"edisim/internal/power"
	"edisim/internal/report"
	"edisim/internal/sim"
	"edisim/internal/tco"
	"edisim/internal/web"
)

func init() {
	register(Experiment{
		ID:      "autoscale",
		Title:   "Elastic fleet autoscaling: policies, boot-delayed capacity, energy proportionality",
		Section: "beyond-paper",
		OptIn:   true,
		Run:     runAutoscale,
	})
}

// asProfile is one traffic shape of the autoscale ladder, parameterized by
// the fleet's connection capacity so every platform sees the same relative
// load.
type asProfile struct {
	key string
	mk  func(cap, dur float64) load.Profile
}

func autoscaleProfiles() []asProfile {
	return []asProfile{
		// A compressed day: trough at 15% of capacity, crest at 85%. The
		// whole point of elasticity — most of the day is not the peak.
		{"diurnal", func(cap, dur float64) load.Profile {
			return load.Diurnal{Min: 0.15 * cap, Max: 0.85 * cap, Period: dur}
		}},
		// A flash crowd from a quiet base: the shape boot delays hate.
		{"spike", func(cap, dur float64) load.Profile {
			return load.Spike{Base: 0.25 * cap, Peak: 0.85 * cap, Start: dur / 3, Duration: dur / 3}
		}},
	}
}

// asPolicy names one fleet-sizing strategy; mk returns nil for the static
// (fully provisioned, never scales) baseline.
type asPolicy struct {
	key string
	mk  func(prof load.Profile) *autoscale.Config
}

func autoscalePolicies() []asPolicy {
	return []asPolicy{
		{"static", func(load.Profile) *autoscale.Config { return nil }},
		{"target-util", func(load.Profile) *autoscale.Config {
			return &autoscale.Config{Policy: autoscale.TargetUtil{Target: 0.6}}
		}},
		{"queue-depth", func(load.Profile) *autoscale.Config {
			return &autoscale.Config{Policy: autoscale.QueueDepth{}}
		}},
		{"predictive", func(prof load.Profile) *autoscale.Config {
			return &autoscale.Config{Policy: autoscale.Predictive{Profile: prof}}
		}},
	}
}

type asPoint struct {
	res     web.Result
	sloMet  float64   // fraction of controller windows that met the SLO
	ep      float64   // energy-proportionality score of the web tier
	perW    float64   // goodput per cluster watt (boot + idle priced in)
	actives []float64 // rotation size per controller window
}

// runAutoscale asks the elasticity question the paper's fixed testbeds
// cannot: when traffic has a shape, which fleet tracks it cheapest? Every
// platform runs a diurnal cycle and a flash-crowd spike under each sizing
// policy (static, target-utilization, queue/shed reactive, predictive),
// with the platform's own boot delay and cold-cache warm-up charged at
// busy draw. Reported per point: SLO-met fraction, goodput, req/s/W with
// boot and idle-parked energy included, scale events, and an
// energy-proportionality score — ideal web-tier joules (offered work at
// busy draw) over actual. Micro fleets win on granularity (24 small steps,
// 2 s boots); brawny fleets amortize boots but park in units of half the
// fleet — the tables show which effect dominates per platform.
func runAutoscale(cfg Config) *Outcome {
	o := &Outcome{}
	plats := cfg.MatrixPlatforms()
	dur := webDuration(cfg) * 2
	profiles := autoscaleProfiles()
	policies := autoscalePolicies()
	slo := overloadSLO()

	points := RunSweep(cfg, "autoscale/matrix", len(plats)*len(profiles)*len(policies),
		func(i int, seed int64) asPoint {
			p := plats[i/(len(profiles)*len(policies))]
			rest := i % (len(profiles) * len(policies))
			prof := profiles[rest/len(policies)].mk(connCapacity(p), dur)
			ac := policies[rest%len(policies)].mk(prof)

			rc := overloadRunConfig(dur)
			rc.Profile = prof
			s := slo
			rc.SLO = &s
			rc.Autoscale = ac
			dep := fleetTier(p).Build(cfg.Energy, cfg.Interrupt, seed)
			dep.WarmFor(rc)

			// Meter the web tier alone over the measurement window: the
			// energy-proportionality score compares what the offered work
			// would cost on always-busy servers against what the tier
			// actually burned (idle floors, parked zeros, boot burn).
			webNodes := make([]*hw.Node, len(dep.Web))
			for wi, w := range dep.Web {
				webNodes[wi] = w.Node
			}
			meter := power.NewMeter("web-tier", webNodes)
			origin := dep.Eng.Now()
			var webEnergy float64
			dep.Eng.At(origin+sim.Time(rc.Duration*rc.WarmupFrac), func() { meter.Reset() })
			dep.Eng.At(origin+sim.Time(rc.Duration), func() { webEnergy = float64(meter.Energy()) })

			res := dep.Run(rc)
			actives := make([]float64, len(res.Windows))
			for wi, w := range res.Windows {
				actives[wi] = float64(w.Active)
			}

			// Ideal joules price offered work at the armed model's busy draw,
			// so the EP score stays consistent with what the nodes meter.
			ideal := float64(res.Offered) / p.Web.ConnRate * float64(p.PowerModelFor(cfg.Energy).BusyDraw())
			ep := safeDiv(ideal, webEnergy, 0)
			if ep > 1 {
				ep = 1
			}
			return asPoint{
				res:     res,
				sloMet:  res.SLOMet(),
				ep:      ep,
				perW:    safeDiv(res.Throughput, float64(res.MeanPower), 0),
				actives: actives,
			}
		})
	at := func(pi, fi, ci int) asPoint {
		return points[pi*len(profiles)*len(policies)+fi*len(policies)+ci]
	}

	armed := cfg.CarbonArmed()
	asCols := []string{"platform", "profile", "policy", "SLO met", "goodput req/s", "power W", "req/s/W", "mean active", "scale events", "boots", "boot J", "EP score"}
	asUnits := []string{"", "", "", "", "req/s", "W", "req/s/W", "servers", "", "", "J", ""}
	if armed {
		asCols = append(asCols, "gCO2e/h", "req per gCO2e", fmt.Sprintf("energy $/h (%s)", cfg.Grid().Region))
		asUnits = append(asUnits, "g/h", "req/g", "$/h")
	}
	regionPrice, _ := tco.RegionPrice(cfg.Grid().Region)
	tab := report.NewTable("Autoscaling ladder — fleet elasticity per platform, boot and idle energy priced in (SLO: p99 <= 0.5 s, availability >= 99%)",
		asCols...).WithUnits(asUnits...)
	for pi, p := range plats {
		for fi, prof := range profiles {
			for ci, pol := range policies {
				pt := at(pi, fi, ci)
				r := pt.res
				meanActive := r.MeanActive
				if pol.key == "static" {
					meanActive = float64(p.Fleet.Web)
				}
				row := []any{p.Label, prof.key, pol.key,
					report.Num(pt.sloMet, ""),
					report.Num(r.Throughput, "req/s"),
					report.Num(float64(r.MeanPower), "W"),
					report.Num(pt.perW, "req/s/W"),
					report.Num(meanActive, "servers"),
					report.Count(r.ScaleUps+r.ScaleDowns, ""),
					report.Count(r.Boots, ""),
					report.Num(float64(r.BootEnergy), "J"),
					report.Num(pt.ep, "")}
				if armed {
					gph := gramsPerHourAt(cfg, float64(r.MeanPower))
					perG := safeDiv(r.Throughput*3600, gph, 0)
					dollarsPerHour := float64(r.MeanPower) / 1000 * carbon.DefaultPUE * regionPrice
					row = append(row, report.Num(gph, "g/h"), report.Num(perG, "req/g"),
						report.Num(dollarsPerHour, "$/h"))
				}
				tab.AddRow(row...)
			}
		}
	}
	o.Tables = append(o.Tables, tab)

	// Fleet-size trace on the baseline micro's diurnal cycle: the shape of
	// each policy following (or failing to follow) the day curve.
	micro, _ := cfg.Pair()
	figPi := 0
	for pi, p := range plats {
		if p.Label == micro.Label {
			figPi = pi
			break
		}
	}
	trace := at(figPi, 0, 0).actives
	xs := make([]float64, len(trace))
	for i := range xs {
		xs[i] = float64(i + 1) // controller windows are 1 s wide
	}
	fig := report.NewFigure(
		fmt.Sprintf("Autoscale — serving fleet vs time, %s diurnal cycle", plats[figPi].Label),
		"time (s)", "servers in rotation", xs)
	for ci, pol := range policies {
		ys := at(figPi, 0, ci).actives
		if len(ys) > len(xs) {
			ys = ys[:len(xs)]
		}
		fig.Add(pol.key, ys)
	}
	o.Figures = append(o.Figures, fig)

	o.Notes = append(o.Notes,
		"every policy starts fully provisioned and must discover the trough; booting servers burn busy draw for the platform's boot delay and join cold (warm-up speed penalty), parked servers draw zero",
		"req/s/W divides goodput by whole-cluster mean power, so boot burn and anything left idling is priced in; the EP score is ideal web-tier joules (offered conns / conn rate, at busy draw) over measured web-tier joules",
		"scale-down always drains before parking: a server leaves the rotation, finishes its in-flight work, then powers off — the drain pin in internal/web proves no request is ever killed by elasticity",
		"the predictive policy reads the declared load profile one boot delay ahead, so it pre-boots for the diurnal crest but is blind to anything the profile does not model",
	)
	if armed {
		o.Notes = append(o.Notes, carbonLensNote(cfg))
	}
	return o
}
