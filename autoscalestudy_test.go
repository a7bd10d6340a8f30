package edisim

import (
	"context"
	"math"
	"strings"
	"testing"
)

// autoscaleScenario is a fixed-vs-elastic pair on one diurnal cycle over a
// small Edison web tier, through the public Scenario API.
func autoscaleScenario(workers int) Scenario {
	prof := DiurnalLoad{Min: 30, Max: 230, Period: 10}
	return Scenario{
		Quick:   true,
		Workers: workers,
		Workloads: []Workload{
			&AutoscaleStudy{
				ID:       "fixed",
				Web:      TierSpec{Nodes: 6},
				Cache:    TierSpec{Nodes: 3},
				Profile:  prof,
				Duration: 20,
			},
			&AutoscaleStudy{
				ID:        "elastic",
				Web:       TierSpec{Nodes: 6},
				Cache:     TierSpec{Nodes: 3},
				Profile:   prof,
				Duration:  20,
				Autoscale: &AutoscaleConfig{Policy: PredictivePolicy{Profile: prof}},
			},
		},
	}
}

// TestAutoscaleStudyScenario runs the fixed-vs-elastic pair end to end:
// both artifacts produced, the elastic one scales and undercuts the static
// fleet's power under identical traffic.
func TestAutoscaleStudyScenario(t *testing.T) {
	var col Collector
	if err := Run(context.Background(), autoscaleScenario(2), &col); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(col.Artifacts) != 2 {
		t.Fatalf("got %d artifacts, want 2 (fixed + elastic)", len(col.Artifacts))
	}
	byID := map[string]*Artifact{}
	for _, a := range col.Artifacts {
		byID[a.ID] = a
	}
	fixed, elastic := byID["fixed"], byID["elastic"]
	if fixed == nil || elastic == nil {
		t.Fatalf("missing artifacts: %v", byID)
	}
	if len(elastic.Figures) != 1 {
		t.Fatalf("elastic study missing the fleet-vs-load figure (got %d)", len(elastic.Figures))
	}

	col9 := func(a *Artifact, i int) float64 {
		v, _ := a.Tables[0].Rows[0][i].Float()
		return v
	}
	// Columns: 0 offered, 1 goodput, 2 SLO met, 3 mean active, 4 scale
	// events, 5 boots, 6 boot J, 7 power W, 8 req/s/W, ...
	if events := col9(elastic, 4); events == 0 {
		t.Fatal("elastic study never scaled on a diurnal cycle")
	}
	if ma := col9(elastic, 3); ma <= 0 || ma >= 6 {
		t.Fatalf("elastic mean active %.2f, want inside (0,6)", ma)
	}
	if fixedMA := col9(fixed, 3); fixedMA != 6 {
		t.Fatalf("static mean active %.2f, want the full tier 6", fixedMA)
	}
	fixedP, elasticP := col9(fixed, 7), col9(elastic, 7)
	if elasticP >= fixedP {
		t.Fatalf("elastic power %.1fW did not undercut static %.1fW", elasticP, fixedP)
	}
	if !strings.Contains(strings.Join(elastic.Notes, "\n"), "predictive") {
		t.Fatalf("elastic notes missing the policy name: %v", elastic.Notes)
	}
}

// TestAutoscaleStudyWorkerIndependence: the determinism contract of the
// study's doc comment, at the public API level.
func TestAutoscaleStudyWorkerIndependence(t *testing.T) {
	render := func(workers int) string {
		var col Collector
		if err := Run(context.Background(), autoscaleScenario(workers), &col); err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		var b strings.Builder
		for _, a := range col.Artifacts {
			for _, tab := range a.Tables {
				b.WriteString(tab.String())
			}
			for _, f := range a.Figures {
				b.WriteString(f.String())
			}
			for _, n := range a.Notes {
				b.WriteString(n)
			}
		}
		return b.String()
	}
	if serial, parallel := render(1), render(4); serial != parallel {
		t.Errorf("worker count changed the study output:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestAutoscaleStudyDefaultWindow: an SLO that leaves Window at 0 runs
// 1 s windows, and the fleet-vs-load figure plots finite served ops/s.
func TestAutoscaleStudyDefaultWindow(t *testing.T) {
	scn := autoscaleScenario(1)
	scn.Workloads = scn.Workloads[1:]
	scn.Workloads[0].(*AutoscaleStudy).SLO = &SLO{Latency: 0.5, Availability: 0.99}
	var col Collector
	if err := Run(context.Background(), scn, &col); err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertFiniteFigures(t, col.Artifacts)
}

// TestAutoscaleStudyValidation: config mistakes surface as errors from Run,
// not as panics inside the engine.
func TestAutoscaleStudyValidation(t *testing.T) {
	cases := []struct {
		name string
		w    Workload
		want string
	}{
		{"no profile", &AutoscaleStudy{}, "needs a load Profile"},
		{"bad policy", &AutoscaleStudy{
			Profile:   SteadyLoad{Rate: 100},
			Autoscale: &AutoscaleConfig{Policy: TargetUtilPolicy{Target: 2}},
		}, "must be in [0,1]"},
		{"nil policy", &AutoscaleStudy{
			Profile:   SteadyLoad{Rate: 100},
			Autoscale: &AutoscaleConfig{},
		}, "needs a Policy"},
		{"reserve conflict", &AutoscaleStudy{
			Profile:   SteadyLoad{Rate: 100},
			SLO:       &SLO{Latency: 0.5, Reserve: 2},
			Autoscale: &AutoscaleConfig{Policy: TargetUtilPolicy{}},
		}, "both edit the routing rotation"},
	}
	for _, tc := range cases {
		var col Collector
		err := Run(context.Background(), Scenario{Quick: true, Workloads: []Workload{tc.w}}, &col)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestAutoscaleStudyRatesUseMeasurementWindow: the study divides its
// in-window counts by the run's measurement window, so a static fleet under
// steady load reports the offered rate it was given, and SLO met counts
// only the controller windows that end inside the measurement window.
func TestAutoscaleStudyRatesUseMeasurementWindow(t *testing.T) {
	scn := Scenario{Quick: true, Workloads: []Workload{&AutoscaleStudy{
		Web:      TierSpec{Nodes: 6},
		Cache:    TierSpec{Nodes: 3},
		Profile:  SteadyLoad{Rate: 200},
		Duration: 20,
	}}}
	var col Collector
	if err := Run(context.Background(), scn, &col); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if offered, _ := col.Artifacts[0].Tables[0].Rows[0][0].Float(); math.Abs(offered-200) > 0.05*200 {
		t.Fatalf("offered %.1f conn/s, want within 5%% of the profile's 200", offered)
	}

	// Windows end every second over a 20 s run whose window opens at 5 s.
	// Those ending at or before 5 s, or after 20 s, are outside it.
	res := WebResult{Config: WebRunConfig{Duration: 20, WarmupFrac: 0.25}}
	for end := 1; end <= 22; end++ {
		res.Windows = append(res.Windows, SLOWindow{T: float64(end), Burning: end <= 5 || end > 20 || end == 12})
	}
	if got, want := res.SLOMet(), 1-1.0/15; got != want {
		t.Fatalf("SLO met %v, want %v (one burned of 15 in-window windows)", got, want)
	}
}
