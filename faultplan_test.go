package edisim

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// faultyScenario runs the fault_tolerance experiment on the smallest catalog
// fleet under a custom plan hitting both the web tier and the Hadoop slaves.
func faultyScenario(workers int) Scenario {
	return Scenario{
		Quick:   true,
		Seed:    7,
		Workers: workers,
		Matrix:  []PlatformRef{Ref("r620")},
		Faults: &FaultPlan{Events: []FaultEvent{
			{Kind: "node_crash", At: 3, Duration: 2, Role: "web"},
			{Kind: "straggler", At: 2, Duration: 10, Factor: 0.4, Role: "slave", Index: 1},
		}},
		Workloads: []Workload{&PaperExperiments{IDs: []string{"fault_tolerance"}}},
	}
}

// TestFaultyScenarioDeterminism is the fault-injection reproducibility
// contract: the full artifact stream of a faulty scenario is byte-identical
// across worker counts and across repeated runs at the same seed.
func TestFaultyScenarioDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates web sweeps and Hadoop jobs")
	}
	render := func(workers int) string {
		var buf bytes.Buffer
		if err := Run(context.Background(), faultyScenario(workers), NewTextSink(&buf)); err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		return buf.String()
	}
	serial := render(1)
	if !strings.Contains(serial, "availability") {
		t.Fatalf("fault_tolerance artifact lacks availability output:\n%s", serial)
	}
	if parallel := render(4); serial != parallel {
		t.Fatalf("faulty output depends on worker count:\n-- serial --\n%s\n-- parallel --\n%s", serial, parallel)
	}
	if again := render(1); serial != again {
		t.Fatal("two faulty runs at the same seed differ")
	}
}

// TestFaultPlanValidationErrors checks a bad plan fails Run up front with a
// descriptive error, before any simulation starts.
func TestFaultPlanValidationErrors(t *testing.T) {
	cases := []struct {
		name    string
		plan    *FaultPlan
		wantErr string
	}{
		{"unknown kind", &FaultPlan{Events: []FaultEvent{{Kind: "meteor", Role: "web"}}}, "unknown kind"},
		{"negative at", &FaultPlan{Events: []FaultEvent{{Kind: "node_crash", At: -1, Role: "web"}}}, "time"},
		{"negative duration", &FaultPlan{Events: []FaultEvent{{Kind: "node_crash", Duration: -2, Role: "web"}}}, "duration"},
		{"zero factor straggler", &FaultPlan{Events: []FaultEvent{{Kind: "straggler", Role: "slave"}}}, "factor"},
		{"empty role", &FaultPlan{Events: []FaultEvent{{Kind: "link_cut"}}}, "empty role"},
		{"negative jitter", &FaultPlan{Jitter: -1, Events: []FaultEvent{{Kind: "node_crash", Role: "web"}}}, "jitter"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			scn := faultyScenario(1)
			scn.Faults = c.plan
			err := Run(context.Background(), scn, NewTextSink(&bytes.Buffer{}))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Run = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

// TestExpiredDeadlineFaultHeavyRun: a context that is already past its
// deadline must fail a fault-heavy scenario promptly with ctx.Err(), not
// simulate anything first.
func TestExpiredDeadlineFaultHeavyRun(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	var col Collector
	start := time.Now()
	err := Run(ctx, faultyScenario(2), &col)
	if err != context.DeadlineExceeded {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if len(col.Artifacts) != 0 {
		t.Fatalf("expired run emitted %d artifacts", len(col.Artifacts))
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("expired-deadline run took %v; cancellation is not prompt", el)
	}
}

// TestCancellationAbortsFaultHeavyRun cancels mid-run: the engine-step
// checkpoints must abort the in-flight fault simulation long before it
// would finish on its own.
func TestCancellationAbortsFaultHeavyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates part of a fault-heavy run")
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Full fidelity: the quick run can finish inside the 100 ms before the
	// cancel, and then the test would prove nothing.
	sc := faultyScenario(2)
	sc.Quick = false
	done := make(chan error, 1)
	go func() { done <- Run(ctx, sc, NewTextSink(&bytes.Buffer{})) }()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled fault-heavy run did not return within 60 s")
	}
}
