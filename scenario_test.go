package edisim

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"edisim/internal/cluster"
)

// heteroScenario is the ROADMAP's mixed-platform testbed: a Pi3 web tier in
// front of a Xeon cache tier, in one cluster.
func heteroScenario(workers int) Scenario {
	return Scenario{
		Quick:   true,
		Workers: workers,
		Workloads: []Workload{&WebSweep{
			ID:            "hetero",
			Web:           TierSpec{Platform: Ref("pi3"), Nodes: 4},
			Cache:         TierSpec{Platform: Ref("xeon"), Nodes: 1},
			Concurrencies: []float64{64, 256},
			Duration:      3,
		}},
	}
}

// TestHeterogeneousTierScenario runs a mixed Pi3-web/Xeon-cache testbed end
// to end through the scenario API and checks the sweep produced real
// traffic on both tiers.
func TestHeterogeneousTierScenario(t *testing.T) {
	var col Collector
	if err := Run(context.Background(), heteroScenario(2), &col); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(col.Artifacts) != 1 {
		t.Fatalf("got %d artifacts, want 1", len(col.Artifacts))
	}
	a := col.Artifacts[0]
	if a.ID != "hetero" || len(a.Tables) != 1 || len(a.Figures) != 3 {
		t.Fatalf("artifact shape: id=%q tables=%d figures=%d", a.ID, len(a.Tables), len(a.Figures))
	}
	tput := a.Figures[0].Series[0].Y
	if len(tput) != 2 || tput[0] <= 0 || tput[1] <= tput[0] {
		t.Fatalf("throughput curve not increasing and positive: %v", tput)
	}
	// Cache CPU column must be live: the Xeon tier actually served GETs.
	var cacheBusy bool
	for _, row := range a.Tables[0].Rows {
		if v, ok := row[6].Float(); ok && v > 0 {
			cacheBusy = true
		}
	}
	if !cacheBusy {
		t.Fatal("cache tier shows zero utilization — heterogeneous tier not exercised")
	}
}

// TestScenarioWorkerIndependence requires bit-identical artifacts for any
// Workers value, the core reproducibility contract of the API.
func TestScenarioWorkerIndependence(t *testing.T) {
	render := func(workers int) string {
		var buf bytes.Buffer
		if err := Run(context.Background(), heteroScenario(workers), NewTextSink(&buf)); err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		return buf.String()
	}
	if serial, parallel := render(1), render(4); serial != parallel {
		t.Fatalf("output depends on worker count:\n-- serial --\n%s\n-- parallel --\n%s", serial, parallel)
	}
}

// TestUnknownExperimentIDErrors pins the -only typo bugfix: one bad ID in a
// list with valid ones must fail the whole run, naming the valid set.
func TestUnknownExperimentIDErrors(t *testing.T) {
	scn := Scenario{Quick: true,
		Workloads: []Workload{&PaperExperiments{IDs: []string{"table2", "tabel3"}}}}
	err := Run(context.Background(), scn, &Collector{})
	if err == nil {
		t.Fatal("unknown experiment ID did not error")
	}
	if !strings.Contains(err.Error(), `"tabel3"`) || !strings.Contains(err.Error(), "table10") {
		t.Fatalf("error does not name the bad ID and the valid set: %v", err)
	}
}

// TestUnknownPlatformErrors covers the same contract for platform refs.
func TestUnknownPlatformErrors(t *testing.T) {
	scn := Scenario{Quick: true,
		Workloads: []Workload{&WebSweep{Web: TierSpec{Platform: Ref("pdp11"), Nodes: 2}}}}
	err := Run(context.Background(), scn, &Collector{})
	if err == nil || !strings.Contains(err.Error(), `"pdp11"`) {
		t.Fatalf("unknown platform not rejected usefully: %v", err)
	}
}

// TestNegativeInfraTierRejected: a bad DBNodes/Clients count must fail
// expansion with an error, not panic a background worker goroutine.
func TestNegativeInfraTierRejected(t *testing.T) {
	scn := heteroScenario(1)
	scn.Workloads[0].(*WebSweep).DBNodes = -1
	err := Run(context.Background(), scn, &Collector{})
	if err == nil || !strings.Contains(err.Error(), "DBNodes") {
		t.Fatalf("negative DBNodes not rejected usefully: %v", err)
	}
}

// TestTCOZeroUtilizationSentinel pins the idle-fleet sentinel: the zero
// value defaults to 50%, ZeroUtilization prices a genuinely idle fleet.
func TestTCOZeroUtilizationSentinel(t *testing.T) {
	total := func(u float64) float64 {
		var col Collector
		scn := Scenario{Workloads: []Workload{
			&TCOStudy{Platforms: []PlatformRef{Ref("pi3")}, Utilization: u}}}
		if err := Run(context.Background(), scn, &col); err != nil {
			t.Fatalf("Run(util=%v): %v", u, err)
		}
		v, ok := col.Artifacts[0].Tables[0].Rows[0][4].Float()
		if !ok {
			t.Fatal("total cell not numeric")
		}
		return v
	}
	idle, def, half := total(ZeroUtilization), total(0), total(0.5)
	if def != half {
		t.Fatalf("zero value (%v) must mean the 50%% default (%v)", def, half)
	}
	if !(idle < def) {
		t.Fatalf("idle fleet (%v) must cost less than 50%% utilization (%v)", idle, def)
	}
}

// TestDuplicateArtifactIDsRejected: two sweeps sharing an ID would draw
// correlated seed streams and emit indistinguishable artifacts.
func TestDuplicateArtifactIDsRejected(t *testing.T) {
	ws := func() *WebSweep {
		return &WebSweep{Web: TierSpec{Platform: Ref("pi3"), Nodes: 2},
			Cache: TierSpec{Platform: Ref("pi3"), Nodes: 1}, Concurrencies: []float64{32}}
	}
	scn := Scenario{Quick: true, Workloads: []Workload{ws(), ws()}}
	err := Run(context.Background(), scn, &Collector{})
	if err == nil || !strings.Contains(err.Error(), "duplicate artifact ID") {
		t.Fatalf("duplicate IDs not rejected usefully: %v", err)
	}
}

// TestOversizedTiersRejected: node counts beyond the cluster builder's
// group cap must error at expansion, not panic a worker goroutine.
func TestOversizedTiersRejected(t *testing.T) {
	scn := heteroScenario(1)
	scn.Workloads[0].(*WebSweep).Web.Nodes = cluster.MaxGroupNodes + 100
	if err := Run(context.Background(), scn, &Collector{}); err == nil || !strings.Contains(err.Error(), "group cap") {
		t.Fatalf("oversized web tier not rejected usefully: %v", err)
	}
	scn2 := Scenario{Quick: true, Workloads: []Workload{
		&MapReduceJob{Job: "pi", Slaves: cluster.MaxGroupNodes + 300}}}
	if err := Run(context.Background(), scn2, &Collector{}); err == nil || !strings.Contains(err.Error(), "group cap") {
		t.Fatalf("oversized slave count not rejected usefully: %v", err)
	}
}

// TestEmptyMatrixRefRejected: a blank -platforms entry ("edison,") must
// error instead of silently running the matrix over fewer platforms.
func TestEmptyMatrixRefRejected(t *testing.T) {
	scn := heteroScenario(1)
	scn.Matrix = []PlatformRef{Ref("edison"), {}}
	err := Run(context.Background(), scn, &Collector{})
	if err == nil || !strings.Contains(err.Error(), "empty platform ref") {
		t.Fatalf("empty matrix ref not rejected usefully: %v", err)
	}
}

// TestSinkErrorAborts checks a failing sink stops the run with its error.
func TestSinkErrorAborts(t *testing.T) {
	boom := SinkFunc(func(*Artifact) error { return context.Canceled })
	if err := Run(context.Background(), heteroScenario(1), boom); err != context.Canceled {
		t.Fatalf("sink error not propagated: %v", err)
	}
}

// TestContextCancellation checks an already-cancelled context returns
// promptly without emitting artifacts.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var col Collector
	if err := Run(ctx, heteroScenario(1), &col); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(col.Artifacts) != 0 {
		t.Fatalf("cancelled run emitted %d artifacts", len(col.Artifacts))
	}
}

// TestUnitsPollInterrupt: every web testbed and Hadoop deployment wires the
// caller's Interrupt into its engine, so cancelling Run reaches a
// simulation in flight. Each unit below must poll it at least once.
func TestUnitsPollInterrupt(t *testing.T) {
	for _, w := range []Workload{
		&WebSweep{Concurrencies: []float64{256}},
		&OverloadStudy{Profile: SteadyLoad{Rate: 200}},
		&AutoscaleStudy{Profile: SteadyLoad{Rate: 200}},
		&PaperExperiments{IDs: []string{"fig4_fig7"}},
		&MapReduceJob{Job: "logcount2", Platform: Ref("pi3"), Slaves: 4},
		&PaperExperiments{IDs: []string{"fig14_fig17"}},
	} {
		scn := Scenario{Quick: true}
		cfg, err := scn.config()
		if err != nil {
			t.Fatal(err)
		}
		var polls atomic.Int64
		cfg.Interrupt = func() bool { polls.Add(1); return false }
		units, err := w.expand(cfg)
		if err != nil {
			t.Fatalf("%T: %v", w, err)
		}
		for _, u := range units {
			if _, err := u.run(cfg); err != nil {
				t.Fatalf("%s: %v", u.id, err)
			}
		}
		if polls.Load() == 0 {
			t.Errorf("%T never polled Interrupt", w)
		}
	}
}

// TestMapReduceAndTCOWorkloads smoke-runs the other two workload kinds,
// trace figure included.
func TestMapReduceAndTCOWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a Hadoop job")
	}
	var col Collector
	scn := Scenario{Quick: true, Workers: 2, Workloads: []Workload{
		&MapReduceJob{Job: "logcount2", Platform: Ref("pi3"), Slaves: 4, Trace: true},
		&TCOStudy{Platforms: []PlatformRef{Ref("pi3"), Ref("xeon")}, Utilization: 0.75},
	}}
	if err := Run(context.Background(), scn, &col); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(col.Artifacts) != 2 {
		t.Fatalf("got %d artifacts, want 2", len(col.Artifacts))
	}
	mr := col.Artifacts[0]
	if mr.ID != "mapreduce_logcount2" || len(mr.Figures) != 1 {
		t.Fatalf("mapreduce artifact shape: %q figures=%d", mr.ID, len(mr.Figures))
	}
	if dur, ok := mr.Tables[0].Rows[0][3].Float(); !ok || dur <= 0 {
		t.Fatalf("job duration cell bogus: %#v", mr.Tables[0].Rows[0][3])
	}
	tcoTab := col.Artifacts[1].Tables[0]
	if len(tcoTab.Rows) != 2 {
		t.Fatalf("tco study rows = %d, want 2", len(tcoTab.Rows))
	}
	if total, ok := tcoTab.Rows[0][4].Float(); !ok || total <= 0 {
		t.Fatalf("tco total cell bogus: %#v", tcoTab.Rows[0][4])
	}
}
