package web

import (
	"strings"
	"testing"

	"edisim/internal/autoscale"
	"edisim/internal/load"
)

// autoscaleSLO is the controller every autoscale run hangs off: policies
// observe its windows, so it is required by Validate.
func autoscaleSLO() *SLO {
	return &SLO{Latency: 0.5, Window: 1}
}

func TestAutoscaleScalesUpOnSpike(t *testing.T) {
	d := smallDeployment(t, microP(), 6, 3)
	r := d.Run(RunConfig{
		// Quiet base, then a spike to ~85% of tier capacity at t=10.
		Profile:  load.Spike{Base: 45, Peak: 230, Start: 10, Duration: 10},
		Duration: 25, WarmupFrac: 0.1,
		SLO: autoscaleSLO(),
		Autoscale: &autoscale.Config{
			Policy:         autoscale.TargetUtil{Target: 0.6},
			InitialServing: 2,
		},
	})
	if r.Boots == 0 || r.ScaleUps == 0 {
		t.Fatalf("spike never grew the fleet: boots=%d scale-ups=%d", r.Boots, r.ScaleUps)
	}
	if r.ActivePeak <= 2 {
		t.Fatalf("active peak %d never rose above the initial 2", r.ActivePeak)
	}
	if r.BootEnergy <= 0 {
		t.Fatal("boots happened but no boot energy was charged")
	}
	if r.MeanActive <= 0 || r.MeanActive > 6 {
		t.Fatalf("mean active %.2f outside (0,6]", r.MeanActive)
	}
	if r.Throughput == 0 {
		t.Fatal("no goodput")
	}
}

// TestAutoscaleDrainNeverKillsInflight is the PR's scale-down pin. The pool
// panics if the manager ever powers off a busy server, so a run that forces
// many drain cycles completing without panic — and without 500s — proves
// drain-before-park holds under real traffic.
func TestAutoscaleDrainNeverKillsInflight(t *testing.T) {
	d := smallDeployment(t, microP(), 6, 3)
	r := d.Run(RunConfig{
		// Two full diurnal cycles: the trough forces scale-downs while
		// long-ish connections (8 calls each) are still in flight.
		Profile:  load.Diurnal{Min: 30, Max: 230, Period: 12},
		Duration: 24, WarmupFrac: 0.1,
		SLO: autoscaleSLO(),
		Autoscale: &autoscale.Config{
			Policy: autoscale.TargetUtil{Target: 0.6},
			// Shrink aggressively so the drain path is exercised hard.
			CooldownDown: 1,
		},
	})
	if r.ScaleDowns == 0 {
		t.Fatal("diurnal trough never triggered a scale-down; the drain pin proved nothing")
	}
	if r.Errors500 != 0 {
		t.Fatalf("%d requests failed during drain cycles, want 0", r.Errors500)
	}
	if r.ErrorRate != 0 {
		t.Fatalf("error rate %.4f during drain cycles, want 0", r.ErrorRate)
	}
}

func TestAutoscaleDeterministic(t *testing.T) {
	run := func() Result {
		d := smallDeployment(t, microP(), 6, 3)
		return d.Run(RunConfig{
			Profile:  load.Diurnal{Min: 30, Max: 230, Period: 10},
			Duration: 20, WarmupFrac: 0.1,
			RequestTimeout: 0.5, Shed: ShedPolicy{Mode: ShedDeadline, Deadline: 0.5},
			SLO: autoscaleSLO(),
			Autoscale: &autoscale.Config{
				Policy: autoscale.Predictive{Profile: load.Diurnal{Min: 30, Max: 230, Period: 10}},
			},
		})
	}
	a, b := run(), run()
	if a.Throughput != b.Throughput || a.Offered != b.Offered ||
		a.ScaleUps != b.ScaleUps || a.ScaleDowns != b.ScaleDowns ||
		a.Boots != b.Boots || a.DrainCancels != b.DrainCancels ||
		a.BootEnergy != b.BootEnergy || a.MeanActive != b.MeanActive ||
		a.Energy != b.Energy ||
		a.Latency.Quantile(0.999) != b.Latency.Quantile(0.999) {
		t.Fatalf("autoscale run not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

// TestAutoscaleEnergyBeatsStatic: on a diurnal cycle with a deep trough,
// parking idle servers must cut web-tier energy versus the static fleet
// while serving comparable goodput — the elasticity claim at the Run level
// (the experiment pins it per platform).
func TestAutoscaleEnergyBeatsStatic(t *testing.T) {
	prof := load.Diurnal{Min: 25, Max: 180, Period: 15}
	cfg := RunConfig{Profile: prof, Duration: 30, WarmupFrac: 0.1, SLO: autoscaleSLO()}

	static := smallDeployment(t, microP(), 6, 3).Run(cfg)

	elastic := cfg
	elastic.Autoscale = &autoscale.Config{
		Policy: autoscale.Predictive{Profile: prof},
	}
	scaled := smallDeployment(t, microP(), 6, 3).Run(elastic)

	if scaled.Energy >= static.Energy {
		t.Fatalf("elastic energy %.1fJ did not beat static %.1fJ on a deep diurnal trough",
			float64(scaled.Energy), float64(static.Energy))
	}
	if scaled.Throughput < 0.95*static.Throughput {
		t.Fatalf("elastic goodput %.0f/s gave up more than 5%% of static %.0f/s",
			scaled.Throughput, static.Throughput)
	}
	if scaled.MeanActive >= 6 {
		t.Fatalf("mean active %.2f: the fleet never actually shrank", scaled.MeanActive)
	}
}

// TestAutoscaleDeploymentReusable: after a run parks servers, the teardown
// must restore the deployment so a later plain run behaves normally.
func TestAutoscaleDeploymentReusable(t *testing.T) {
	d := smallDeployment(t, microP(), 6, 3)
	d.Run(RunConfig{
		Profile:  load.Steady{Rate: 40}, // idle tier: policy parks most servers
		Duration: 10, WarmupFrac: 0.1,
		SLO:       autoscaleSLO(),
		Autoscale: &autoscale.Config{Policy: autoscale.TargetUtil{Target: 0.6}},
	})
	for _, w := range d.Web {
		if w.Node.Parked() || !w.Node.Up() {
			t.Fatalf("teardown left %s parked/down", w.Node.ID)
		}
		if w.Node.SlowFactor() != 1 {
			t.Fatalf("teardown left %s at speed %g", w.Node.ID, w.Node.SlowFactor())
		}
	}
	if d.run.rotation != nil || d.run.scaler != nil {
		t.Fatal("teardown left the routing rotation armed")
	}
	r := d.Run(RunConfig{Concurrency: 64, Duration: 5})
	if r.Throughput < 400 || r.ErrorRate > 0.01 {
		t.Fatalf("post-autoscale plain run degraded: tp=%.0f err=%.3f", r.Throughput, r.ErrorRate)
	}
}

func TestAutoscaleConfigValidation(t *testing.T) {
	pol := autoscale.TargetUtil{}
	cases := []struct {
		name string
		cfg  RunConfig
		want string
	}{
		{"no slo", RunConfig{
			Profile:   load.Steady{Rate: 50},
			Autoscale: &autoscale.Config{Policy: pol},
		}, "needs an SLO controller"},
		{"with reserve", RunConfig{
			Profile:   load.Steady{Rate: 50},
			SLO:       &SLO{Latency: 0.5, Reserve: 2},
			Autoscale: &autoscale.Config{Policy: pol},
		}, "both edit the routing rotation"},
		{"nil policy", RunConfig{
			Profile:   load.Steady{Rate: 50},
			SLO:       autoscaleSLO(),
			Autoscale: &autoscale.Config{},
		}, "needs a Policy"},
		{"bad policy", RunConfig{
			Profile:   load.Steady{Rate: 50},
			SLO:       autoscaleSLO(),
			Autoscale: &autoscale.Config{Policy: autoscale.TargetUtil{Target: 2}},
		}, "must be in [0,1]"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	ok := RunConfig{
		Profile: load.Steady{Rate: 50}, SLO: autoscaleSLO(),
		Autoscale: &autoscale.Config{Policy: pol, InitialServing: 2, MinServing: 1},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid autoscale config rejected: %v", err)
	}
}
