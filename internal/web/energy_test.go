package web

import (
	"math"
	"testing"

	"edisim/internal/autoscale"
	"edisim/internal/hw"
	"edisim/internal/load"
	"edisim/internal/power"
	"edisim/internal/sim"
	"edisim/internal/units"
)

// TestWebEnergyIsTheWebTiersShare checks the per-role energy invariant: a
// run's WebEnergy is what a meter over the web nodes alone reads across the
// measurement window, bit for bit, and the rest of Energy is what a meter
// over the cache nodes reads. Static and autoscaled fleets both, since
// parked and booting servers change the web tier's draw.
func TestWebEnergyIsTheWebTiersShare(t *testing.T) {
	cases := []struct {
		name string
		rc   RunConfig
	}{
		{"static open loop", RunConfig{Profile: load.Steady{Rate: 120}, Duration: 10, WarmupFrac: 0.1}},
		{"target-util autoscale", RunConfig{
			Profile:  load.Diurnal{Min: 30, Max: 230, Period: 10},
			Duration: 10, WarmupFrac: 0.1,
			SLO:       autoscaleSLO(),
			Autoscale: &autoscale.Config{Policy: autoscale.TargetUtil{Target: 0.6}},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := smallDeployment(t, microP(), 6, 3)
			var webNodes, cacheNodes []*hw.Node
			for _, w := range d.Web {
				webNodes = append(webNodes, w.Node)
			}
			for _, s := range d.Cache {
				cacheNodes = append(cacheNodes, s.Node)
			}
			webMeter, cacheMeter := power.NewMeter("web", webNodes), power.NewMeter("cache", cacheNodes)
			start := d.Eng.Now()
			var webJ, cacheJ units.Joules
			d.Eng.At(start+sim.Time(c.rc.Duration*c.rc.WarmupFrac), func() { webMeter.Reset(); cacheMeter.Reset() })
			d.Eng.At(start+sim.Time(c.rc.Duration), func() { webJ, cacheJ = webMeter.Energy(), cacheMeter.Energy() })

			r := d.Run(c.rc)
			if c.rc.Autoscale != nil && r.ScaleUps+r.ScaleDowns == 0 {
				t.Fatal("the fleet never scaled; the autoscaled case proves nothing")
			}
			if webJ <= 0 || r.WebEnergy != webJ {
				t.Fatalf("WebEnergy %v, web-node meter %v: want equal and positive", r.WebEnergy, webJ)
			}
			if r.WebEnergy > r.Energy {
				t.Fatalf("WebEnergy %v exceeds the cluster's %v", r.WebEnergy, r.Energy)
			}
			if rest := r.Energy - r.WebEnergy; math.Abs(float64(rest-cacheJ)) > 1e-9*float64(cacheJ) {
				t.Fatalf("Energy - WebEnergy = %v, cache-node meter %v", rest, cacheJ)
			}
			if r.EP <= 0 || r.EP > 1 {
				t.Fatalf("EP score %v outside (0, 1] on an open-loop run", r.EP)
			}
			if want := r.Throughput / float64(r.MeanPower); r.PerWatt() != want {
				t.Fatalf("PerWatt %v, want goodput / mean power = %v", r.PerWatt(), want)
			}
		})
	}
}

// TestEfficiencyLensZeroCases pins the lens's zero readings: no EP score
// without offered connections (a closed-loop run) and no req/s/W without
// drawn power.
func TestEfficiencyLensZeroCases(t *testing.T) {
	r := smallDeployment(t, microP(), 6, 3).Run(RunConfig{Concurrency: 64, Duration: 5})
	if r.WebEnergy <= 0 || r.EP != 0 {
		t.Fatalf("closed-loop run: WebEnergy %v, EP %v; want positive joules and EP 0", r.WebEnergy, r.EP)
	}
	if got := (Result{Throughput: 100}).PerWatt(); got != 0 {
		t.Fatalf("PerWatt of a zero-power result = %v, want 0", got)
	}
}
