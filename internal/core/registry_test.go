package core

import (
	"runtime"
	"testing"

	"edisim/internal/faults"
	"edisim/internal/hw"
)

// figureOnly lists experiments that render figures the paper publishes
// without headline numbers to compare against (Figures 5/8 show mix
// sweeps, Figures 10/11 delay histograms; every other artifact carries at
// least one paper-vs-measured comparison).
var figureOnly = map[string]bool{"fig5_fig8": true, "fig10_fig11": true}

// TestEveryExperimentQuickSmoke runs EVERY registered experiment —
// including opt-in ones — under Quick fidelity and asserts it produces a
// usable Outcome. This is the registry's safety net: a new experiment (or
// a new catalog platform wired into platform_matrix) cannot merge if it
// panics, returns nil, or yields nothing to compare.
func TestEveryExperimentQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep in -short mode")
	}
	cfg := Config{Seed: 1, Quick: true, Workers: runtime.GOMAXPROCS(0)}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			o := e.Run(cfg)
			if o == nil {
				t.Fatalf("%s returned nil outcome", e.ID)
			}
			if len(o.Tables)+len(o.Figures)+len(o.Comparisons) == 0 {
				t.Fatalf("%s produced no artifacts", e.ID)
			}
			if !figureOnly[e.ID] && len(o.Comparisons) == 0 {
				t.Fatalf("%s recorded no comparisons", e.ID)
			}
			for _, c := range o.Comparisons {
				if c.Artifact == "" || c.Metric == "" {
					t.Fatalf("%s: blank comparison %+v", e.ID, c)
				}
			}
		})
	}
}

// TestWebSweepHonorsPairOverride: with Config.Micro overridden, the
// scaled web sweeps must deploy the override platform (labels and peak
// comparisons follow it), not the baked-in baseline pair.
func TestWebSweepHonorsPairOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("web sweep in -short mode")
	}
	alt, ok := hw.LookupPlatform("pi3")
	if !ok {
		t.Fatal("pi3 not in catalog")
	}
	e, _ := Lookup("fig4_fig7")
	o := e.Run(Config{Seed: 1, Quick: true, Workers: runtime.GOMAXPROCS(0), Micro: alt})
	foundPeak := false
	for _, c := range o.Comparisons {
		if c.Metric == "peak "+alt.Label+" req/s" {
			foundPeak = true
			if c.Measured <= 0 {
				t.Fatalf("override peak not measured: %+v", c)
			}
		}
	}
	if !foundPeak {
		t.Fatalf("no peak comparison for override platform; comparisons: %+v", o.Comparisons)
	}
	for _, f := range o.Figures {
		for _, s := range f.Series {
			if s.Label == "24 "+alt.Label {
				return
			}
		}
	}
	t.Fatal("no figure series labeled for the override platform")
}

// TestPlatformMatrixCoversConfiguredPlatforms: the matrix experiment must
// honor Config.Matrix (cmd/paper's -platforms) and emit one web and one
// terasort comparison per platform.
func TestPlatformMatrixCoversConfiguredPlatforms(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep in -short mode")
	}
	e, ok := Lookup("platform_matrix")
	if !ok {
		t.Fatal("platform_matrix not registered")
	}
	if !e.OptIn {
		t.Fatal("platform_matrix must be opt-in to keep default paper output stable")
	}
	micro, brawny := Config{}.Pair()
	cfg := Config{Seed: 1, Quick: true, Workers: runtime.GOMAXPROCS(0),
		Matrix: []*hw.Platform{micro, brawny}}
	o := e.Run(cfg)
	if got := len(o.Comparisons); got != 4 {
		t.Fatalf("matrix over 2 platforms produced %d comparisons, want 4", got)
	}
	if len(o.Tables) != 2 {
		t.Fatalf("matrix produced %d tables, want 2", len(o.Tables))
	}
}

// TestFaultTolerancePlanOverride smoke-runs the fault_tolerance experiment
// with a caller-supplied (non-empty) quick plan, the cfg.Faults path the
// default registry sweep never exercises: events against both rosters must
// replace the built-in drills without panicking on role mismatches.
func TestFaultTolerancePlanOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection sweep in -short mode")
	}
	r620, ok := hw.LookupPlatform("r620")
	if !ok {
		t.Fatal("r620 not in catalog")
	}
	plan := &faults.Plan{Events: []faults.Event{
		{Kind: faults.NodeCrash, At: 3, Duration: 2, Role: "web"},
		{Kind: faults.Straggler, At: 1, Duration: 30, Factor: 0.4, Role: "slave", Index: 1},
		{Kind: faults.LinkDegrade, At: 2, Duration: 20, Factor: 0.5, Role: "slave"},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatalf("quick plan invalid: %v", err)
	}
	e, ok := Lookup("fault_tolerance")
	if !ok {
		t.Fatal("fault_tolerance not registered")
	}
	cfg := Config{Seed: 1, Quick: true, Workers: runtime.GOMAXPROCS(0),
		Matrix: []*hw.Platform{r620}, Faults: plan}
	o := e.Run(cfg)
	if o == nil || len(o.Tables) != 2 {
		t.Fatalf("fault_tolerance with a custom plan returned %+v", o)
	}
	if len(o.Comparisons) == 0 {
		t.Fatal("no availability comparisons recorded under the custom plan")
	}
}
