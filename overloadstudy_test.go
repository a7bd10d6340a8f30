package edisim

import (
	"context"
	"math"
	"strings"
	"testing"
)

// overloadScenario is a flash crowd against a small Edison web tier with a
// mid-spike crash, every resilience knob on.
func overloadScenario(workers int) Scenario {
	return Scenario{
		Quick:   true,
		Workers: workers,
		Faults:  RollingCrashFaults("web", 1, 2.2, 0.5, 1),
		Workloads: []Workload{&OverloadStudy{
			ID:          "drill",
			Web:         TierSpec{Nodes: 6},
			Cache:       TierSpec{Nodes: 3},
			Profile:     SpikeLoad{Base: 120, Peak: 540, Start: 1.5, Duration: 1.5},
			Duration:    4,
			RetryBudget: 0.1,
			Shed:        ShedPolicy{Mode: ShedDeadline, Deadline: 0.5},
			SLO:         &SLO{Latency: 0.5, Window: 0.5, Brownout: true},
		}},
	}
}

// TestOverloadStudyScenario runs the overload drill end to end through the
// public Scenario API: open-loop profile, shedding, retry budget, SLO
// controller and an injected crash, all in one artifact.
func TestOverloadStudyScenario(t *testing.T) {
	var col Collector
	if err := Run(context.Background(), overloadScenario(2), &col); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(col.Artifacts) != 1 {
		t.Fatalf("got %d artifacts, want 1", len(col.Artifacts))
	}
	a := col.Artifacts[0]
	if a.ID != "drill" || len(a.Tables) != 1 {
		t.Fatalf("artifact shape: id=%q tables=%d", a.ID, len(a.Tables))
	}
	if len(a.Figures) != 1 {
		t.Fatalf("SLO set but no controller time-series figure (got %d figures)", len(a.Figures))
	}
	row := a.Tables[0].Rows[0]
	offered, _ := row[0].Float()
	goodput, _ := row[1].Float()
	if offered <= 0 || goodput <= 0 {
		t.Fatalf("no traffic: offered %v, goodput %v", offered, goodput)
	}
	// The spike runs 2x past the 6-server tier's connection capacity, so
	// admission control must have rejected something.
	shed, _ := row[2].Float()
	if shed <= 0 {
		t.Fatalf("spike past capacity shed nothing: %v", row)
	}
	if !strings.Contains(strings.Join(a.Notes, "\n"), "SLO:") {
		t.Fatalf("missing SLO note: %v", a.Notes)
	}
}

// TestOverloadStudyDefaultWindow: an SLO that leaves Window at 0 runs
// 1 s windows, and the controller figure plots finite per-second rates.
func TestOverloadStudyDefaultWindow(t *testing.T) {
	scn := overloadScenario(1)
	scn.Workloads[0].(*OverloadStudy).SLO.Window = 0
	var col Collector
	if err := Run(context.Background(), scn, &col); err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertFiniteFigures(t, col.Artifacts)
}

// assertFiniteFigures fails on any NaN or Inf figure value, and when no
// figure has a value at all.
func assertFiniteFigures(t *testing.T, arts []*Artifact) {
	t.Helper()
	n := 0
	for _, a := range arts {
		for _, f := range a.Figures {
			for _, s := range f.Series {
				for i, y := range s.Y {
					if math.IsNaN(y) || math.IsInf(y, 0) {
						t.Fatalf("%s: %q[%d] = %v", f.Name, s.Label, i, y)
					}
					n++
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no figure values to check")
	}
}

// TestOverloadStudyWorkerIndependence: the open-loop drill must be
// bit-identical for any Workers value, like every other workload.
func TestOverloadStudyWorkerIndependence(t *testing.T) {
	render := func(workers int) string {
		var col Collector
		if err := Run(context.Background(), overloadScenario(workers), &col); err != nil {
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
	if one, four := render(1), render(4); one != four {
		t.Errorf("workers=1 and workers=4 outcomes differ:\n--- 1 ---\n%s\n--- 4 ---\n%s", one, four)
	}
}

// TestOverloadStudyValidation: a missing profile and invalid knobs fail at
// expansion with errors naming the study.
func TestOverloadStudyValidation(t *testing.T) {
	run := func(ov *OverloadStudy) error {
		return Run(context.Background(), Scenario{Quick: true, Workloads: []Workload{ov}}, &Collector{})
	}
	if err := run(&OverloadStudy{}); err == nil || !strings.Contains(err.Error(), "Profile") {
		t.Errorf("missing profile: got %v", err)
	}
	if err := run(&OverloadStudy{Profile: SteadyLoad{Rate: -1}}); err == nil {
		t.Error("negative rate accepted")
	}
	if err := run(&OverloadStudy{Profile: SteadyLoad{Rate: 100}, Shed: ShedPolicy{Mode: "yolo"}}); err == nil {
		t.Error("bad shed mode accepted")
	}
	if err := run(&OverloadStudy{Profile: SteadyLoad{Rate: 100}, SLO: &SLO{Latency: -1}}); err == nil {
		t.Error("bad SLO accepted")
	}
}
