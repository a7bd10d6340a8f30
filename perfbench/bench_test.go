package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"testing"

	"edisim/internal/report"
)

// TestMain lets the test binary act as a set-up probe, as the benchmark
// binary does, so runPlain can be exercised on paper-quick.
func TestMain(m *testing.M) {
	if seed, ok := probeSeed(); ok {
		setupProbe(config{seed: seed, workers: runtime.NumCPU()})
		return
	}
	os.Exit(m.Run())
}

type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s spec) endToEnd() (names []string) {
	for _, m := range s.EndToEnd {
		names = append(names, m.Name)
	}
	return names
}

func (s spec) perLayer() (names []string) {
	for _, m := range s.PerLayer {
		names = append(names, m.Name)
	}
	return names
}

func TestSpecNamesAndLimits(t *testing.T) {
	s := loadSpec(t)
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	names = append(append(names, s.endToEnd()...), s.perLayer()...)
	for _, n := range names {
		if !valid.MatchString(n) {
			t.Errorf("name %q does not match %s", n, valid)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s end-to-end metric")
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestWorkloadsResolve(t *testing.T) {
	var listed []string
	for _, w := range loadSpec(t).Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q does not resolve", w.Name)
		}
		listed = append(listed, w.Name)
	}
	for _, n := range workloadNames() {
		if !slices.Contains(listed, n) {
			t.Errorf("workload %q is missing from BENCHMARK.json", n)
		}
	}
	if _, ok := lookupWorkload("no-such-workload"); ok {
		t.Error("an unknown workload resolved")
	}
}

// TestLayerMap checks that layers.json maps every per-layer metric, and only
// those, to end-to-end metrics and workloads that exist.
func TestLayerMap(t *testing.T) {
	s := loadSpec(t)
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var layers map[string]struct {
		Moves, On []string
		FlatOn    []string `json:"flat_on"`
	}
	if err := json.Unmarshal(b, &layers); err != nil {
		t.Fatal(err)
	}
	for _, n := range s.perLayer() {
		if _, ok := layers[n]; !ok {
			t.Errorf("per-layer metric %s has no entry in layers.json", n)
		}
	}
	for n, l := range layers {
		if !slices.Contains(s.perLayer(), n) {
			t.Errorf("layers.json names %s, which is not a per-layer metric", n)
		}
		for _, m := range l.Moves {
			if !slices.Contains(s.endToEnd(), m) {
				t.Errorf("%s moves %s, which is not an end-to-end metric", n, m)
			}
		}
		for _, w := range append(l.On, l.FlatOn...) {
			if _, ok := lookupWorkload(w); !ok {
				t.Errorf("%s names unknown workload %s", n, w)
			}
		}
	}
}

// TestSmokeRuns runs each workload at reduced size, untraced and traced:
// every op passes its output checks, the same seed gives the same
// fingerprint, and tracing does not change the simulated outputs.
func TestSmokeRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 7, workers: 2, small: true}
			a, err := w.run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.run(cfg, newTracer("test"))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*pass{a, b} {
				if p.ops == 0 || len(p.failures) > 0 || p.fingerprint == "" || len(p.ledger) == 0 {
					t.Errorf("ops=%d failures=%v fingerprint=%q ledger rows=%d", p.ops, p.failures, p.fingerprint, len(p.ledger))
				}
			}
			if a.fingerprint != b.fingerprint {
				t.Errorf("traced fingerprint %s != untraced %s", b.fingerprint, a.fingerprint)
			}
			c, err := w.run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.fingerprint != a.fingerprint {
				t.Errorf("same seed, fingerprints %s and %s", a.fingerprint, c.fingerprint)
			}
		})
	}
}

// TestReportedMetrics checks that an untraced run reports exactly the
// end-to-end metrics and a traced run exactly the per-layer ones.
func TestReportedMetrics(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 2, workers: 2, small: true}
			plain, err := runPlain(w, cfg, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, cfg, 0.01, filepath.Join(t.TempDir(), "spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				r    *runReport
				want []string
			}{{plain, s.endToEnd()}, {traced, s.perLayer()}} {
				res := c.r.result()
				if !res.Correct || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d problems=%v", res.Correct, res.Attempted, c.r.problems)
				}
				var got []string
				for n := range res.Metrics {
					got = append(got, n)
				}
				slices.Sort(got)
				want := slices.Sorted(slices.Values(c.want))
				if !slices.Equal(got, want) {
					t.Errorf("metrics %v, want %v", got, want)
				}
			}
			for _, n := range []string{"wall_s", "setup_s", "peak_rss_mb", "ledger_in15", "ledger_log_err"} {
				if v := plain.metrics[n].Value; !(v > 0) {
					t.Errorf("%s = %g, want > 0", n, v)
				}
			}
		})
	}
}

// TestPaperQuickWorkers checks that the full paper-quick workload simulates
// the same outputs serially and on every CPU.
func TestPaperQuickWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick reproduction twice")
	}
	w, _ := lookupWorkload("paper-quick")
	serial, err := w.run(config{seed: 5, workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := w.run(config{seed: 5, workers: max(2, runtime.NumCPU())}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serial.fingerprint != parallel.fingerprint {
		t.Errorf("Workers 1 fingerprint %s != Workers %d fingerprint %s", serial.fingerprint, runtime.NumCPU(), parallel.fingerprint)
	}
	if len(serial.failures)+len(parallel.failures) > 0 {
		t.Errorf("failures: %v %v", serial.failures, parallel.failures)
	}
}

func TestLedgerStats(t *testing.T) {
	in15, logErr := ledgerStats([]report.Comparison{
		{Artifact: "a", Metric: "x", Paper: 100, Measured: 110}, // within ±15%
		{Artifact: "a", Metric: "x", Paper: 100, Measured: 300}, // duplicate key: ignored
		{Artifact: "a", Metric: "y", Paper: 100, Measured: 50},  // off
		{Artifact: "b", Metric: "z", Paper: 0, Measured: 5},     // paper 0: off, no log error
	})
	if in15 != 1 {
		t.Errorf("in15 = %d, want 1", in15)
	}
	want := (0.09531017980432493 + 0.6931471805599453) / 2 // |ln 1.1|, |ln 0.5|
	if d := logErr - want; d > 1e-12 || d < -1e-12 {
		t.Errorf("log error = %g, want %g", logErr, want)
	}
}
