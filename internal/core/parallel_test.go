package core

import (
	"fmt"
	"strings"
	"testing"
)

// renderOutcome serializes every artifact of an outcome to text, so two
// outcomes can be compared byte-for-byte.
func renderOutcome(o *Outcome) string {
	var b strings.Builder
	for _, t := range o.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, f := range o.Figures {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	for _, c := range o.Comparisons {
		fmt.Fprintf(&b, "%s|%s|%v|%v\n", c.Artifact, c.Metric, c.Paper, c.Measured)
	}
	for _, n := range o.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelSweepMatchesSerial: the parallel runner must produce
// byte-identical outcomes to the serial path for the same seed — the core
// guarantee that makes -j safe to use for the full ledger
// (`cmd/paper -experiments`).
func TestParallelSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiments in -short mode")
	}
	for _, id := range []string{"fig2_fig3", "fig4_fig7", "fig5_fig8", "fig18_fig19_table8"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		serial := renderOutcome(e.Run(Config{Seed: 3, Quick: true, Workers: 1}))
		parallel := renderOutcome(e.Run(Config{Seed: 3, Quick: true, Workers: 4}))
		if serial != parallel {
			t.Errorf("%s: parallel outcome differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial, parallel)
		}
	}
}

// TestPointSeedStability: point seeds must depend only on (seed, name,
// index) — this is what keeps outputs independent of worker scheduling.
func TestPointSeedStability(t *testing.T) {
	cfg := Config{Seed: 42}
	if cfg.PointSeed("s", 0) != cfg.PointSeed("s", 0) {
		t.Fatal("PointSeed not stable")
	}
	if cfg.PointSeed("s", 0) == cfg.PointSeed("s", 1) {
		t.Fatal("adjacent points share a seed")
	}
	if cfg.PointSeed("a", 0) == cfg.PointSeed("b", 0) {
		t.Fatal("distinct sweeps share a seed")
	}
	if (Config{Seed: 1}).PointSeed("s", 0) == (Config{Seed: 2}).PointSeed("s", 0) {
		t.Fatal("distinct root seeds share a point seed")
	}
}
