package edisim

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// quickRun is the default `cmd/paper -quick` reproduction at seed 1, run
// once and shared by the golden and ledger-band tests.
var quickRun struct {
	once      sync.Once
	text      []byte
	artifacts []*Artifact
	err       error
}

// paperQuick returns the quick reproduction's text output (artifacts then
// ledger, exactly what cmd/paper prints) and its collected artifacts. The
// run goes through the cmd/paper code path: a PaperExperiments scenario
// streamed through NewTextSink plus the ledger. Workers is fixed >1
// deliberately — output must be identical for any worker count.
func paperQuick(t *testing.T) ([]byte, []*Artifact) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the full quick reproduction (~5 s)")
	}
	quickRun.once.Do(func() {
		var buf bytes.Buffer
		var col Collector
		scn := Scenario{Seed: 1, Quick: true, Workers: 4,
			Workloads: []Workload{&PaperExperiments{}}}
		if quickRun.err = Run(context.Background(), scn, MultiSink(NewTextSink(&buf), &col)); quickRun.err != nil {
			return
		}
		if quickRun.err = WriteLedger(&buf, col.Artifacts); quickRun.err != nil {
			return
		}
		quickRun.text, quickRun.artifacts = buf.Bytes(), col.Artifacts
	})
	if quickRun.err != nil {
		t.Fatalf("quick reproduction: %v", quickRun.err)
	}
	return quickRun.text, quickRun.artifacts
}

// TestPaperQuickGolden pins the default `cmd/paper -quick` text output byte
// for byte: the golden file was captured from the pre-typed-report tree, so
// any rendering drift in the typed report layer, the scenario runner or the
// text sink fails here instead of surfacing as a silent baseline change.
// (PRs 1–3 verified this property by hand with cmp; this automates it.)
func TestPaperQuickGolden(t *testing.T) {
	got, _ := paperQuick(t)
	golden := filepath.Join("testdata", "paper_quick.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("quick reproduction output diverged from %s (got %d bytes, want %d); "+
			"run `go test -run TestPaperQuickGolden -update` only with a planned baseline refresh",
			golden, len(got), len(want))
	}
}

// ledgerBand is the default measured/paper band for a quick ledger row.
var ledgerBand = [2]float64{0.85, 1.15}

// ledgerKey names one ledger row.
type ledgerKey struct{ artifact, metric string }

// knownGap is a ledger row known to miss the default band at seed 1: its
// own band, and why the simulator misses.
type knownGap struct {
	band   [2]float64
	reason string
}

// quickLedgerGaps lists every quick ledger row outside ledgerBand. A gap
// that closes (its row enters ledgerBand) must be deleted here.
var quickLedgerGaps = map[ledgerKey]knownGap{
	{"Figure 12", "Edison reduce start (fraction of runtime)"}: {[2]float64{0.5, 0.8},
		"reducers launch once 5% of maps finish, earlier than the published Edison trace"},
	{"Figure 15", "Dell reduce start (fraction of runtime)"}: {[2]float64{0.55, 0.85},
		"reducers launch once 5% of maps finish, earlier than the published Dell trace"},
	{"Table 7 @ 480 req/s", "DB delay E ms"}: {[2]float64{0.6, 0.85},
		"Edison DB delay sits below the published value at every rate (0.76x at full fidelity)"},
	{"Table 7 @ 480 req/s", "cache delay D ms"}: {[2]float64{1.15, 1.7},
		"Dell cache delay sits above the published value at every rate (1.39x at full fidelity)"},
	{"Table 7 @ 480 req/s", "total D ms"}: {[2]float64{1.15, 1.6},
		"follows the Dell cache delay gap"},
	{"Table 7 @ 3840 req/s", "DB delay E ms"}: {[2]float64{0.4, 0.65},
		"Edison DB delay grows less than the published value near saturation (0.52x at full fidelity)"},
	{"Table 7 @ 3840 req/s", "cache delay E ms"}: {[2]float64{0.03, 0.08},
		"Edison cache delay stays near its unloaded value while the published one grows 20x (0.05x at full fidelity)"},
	{"Table 7 @ 3840 req/s", "cache delay D ms"}: {[2]float64{1.15, 1.7},
		"Dell cache delay sits above the published value at every rate (1.37x at full fidelity)"},
	{"Table 7 @ 3840 req/s", "total E ms"}: {[2]float64{0.07, 0.14},
		"follows the Edison cache delay gap"},
	{"Table 7 @ 3840 req/s", "total D ms"}: {[2]float64{1.15, 1.5},
		"follows the Dell cache delay gap"},
	{"Table 8 / pi / 1D", "time s"}: {[2]float64{0.5, 0.8},
		"pi on one Dell slave finishes as fast as on two (50 s); the paper's 77 s shows the second slave helping"},
	{"Table 8 / pi / 1D", "energy J"}: {[2]float64{0.55, 0.85},
		"follows the pi 1D time gap"},
}

// TestPaperQuickLedgerBands is the quick fidelity gate: every row of the
// quick reproduction's ledger is one published paper value, emitted once,
// and its measured/paper ratio stays inside ledgerBand or its known gap's
// own band.
func TestPaperQuickLedgerBands(t *testing.T) {
	_, artifacts := paperQuick(t)
	seen := map[ledgerKey]bool{}
	for _, a := range artifacts {
		for _, c := range a.Comparisons {
			k := ledgerKey{c.Artifact, c.Metric}
			if seen[k] {
				t.Errorf("%s / %s: emitted more than once", k.artifact, k.metric)
			}
			seen[k] = true
			if c.Paper <= 0 {
				t.Errorf("%s / %s: paper value %g, want > 0", k.artifact, k.metric, c.Paper)
				continue
			}
			r := c.Measured / c.Paper
			inDefault := r >= ledgerBand[0] && r <= ledgerBand[1]
			gap, known := quickLedgerGaps[k]
			switch {
			case !known && !inDefault:
				t.Errorf("%s / %s: ratio %.3f outside [%g, %g]", k.artifact, k.metric, r, ledgerBand[0], ledgerBand[1])
			case known && inDefault:
				t.Errorf("%s / %s: ratio %.3f is inside [%g, %g]; delete its stale known gap", k.artifact, k.metric, r, ledgerBand[0], ledgerBand[1])
			case known && (r < gap.band[0] || r > gap.band[1]):
				t.Errorf("%s / %s: ratio %.3f outside its known-gap band [%g, %g] (%s)", k.artifact, k.metric, r, gap.band[0], gap.band[1], gap.reason)
			}
		}
	}
	for k := range quickLedgerGaps {
		if !seen[k] {
			t.Errorf("known gap %s / %s matches no ledger row", k.artifact, k.metric)
		}
	}
}
