// Package core is the evaluation harness: every table and figure of the
// paper is registered here as a runnable Experiment that regenerates its
// data on the simulated testbed and records paper-vs-measured comparisons.
// cmd/paper, the examples and the root benchmarks all drive this registry.
package core

import (
	"fmt"
	"sort"

	"edisim/internal/faults"
	"edisim/internal/hw"
	"edisim/internal/report"
)

// Config controls experiment fidelity and platform selection.
type Config struct {
	// Seed is the root random seed; identical seeds reproduce results
	// bit-for-bit.
	Seed int64
	// Quick trades statistical tightness for speed (shorter httperf
	// windows, fewer sweep points) — used by unit tests and -short benches.
	Quick bool
	// Workers bounds how many sweep points run concurrently (cmd/paper's
	// -j). 0 or 1 runs serially. Results are bit-identical for any value:
	// every point runs on its own engine with a seed derived from the
	// point's identity, and results are assembled in point order.
	Workers int

	// Micro/Brawny override the compared platform pair; nil selects the
	// catalog baseline (the paper's Edison / Dell R620 testbed).
	Micro, Brawny *hw.Platform
	// Matrix lists the platforms cross-platform matrix experiments cover;
	// empty selects the whole catalog (cmd/paper's -platforms).
	Matrix []*hw.Platform

	// Faults overrides the fault_tolerance experiment's built-in fault plan
	// (edisim.Scenario.Faults, cmd/paper's fault flags). Nil keeps the
	// built-in schedule; the default paper experiments never inject faults
	// regardless.
	Faults *faults.Plan
	// Interrupt, when non-nil, is polled by long-running experiment engines;
	// returning true aborts the simulation early. edisim.Run wires context
	// cancellation here.
	Interrupt func() bool

	// Energy selects the node power model for every testbed the experiments
	// build. The zero value keeps the paper's calibrated linear model —
	// byte-identical defaults; hw.PowerTDPCurve arms the component model.
	Energy hw.PowerModelKind
	// Region attributes metered energy to a grid region for carbon and
	// price accounting ("" = none). Callers validate the key against
	// carbon.Regions before it reaches experiments.
	Region string
}

// CarbonArmed reports whether the energy/carbon layers are in play — either
// a non-default power model or a region was selected — and therefore whether
// matrix experiments add their gCO2e and per-region columns.
func (c Config) CarbonArmed() bool { return c.Energy != hw.PowerLinear || c.Region != "" }

// Interrupted reports whether the run has been cancelled (nil-safe).
func (c Config) Interrupted() bool { return c.Interrupt != nil && c.Interrupt() }

// Pair resolves the compared platform pair, defaulting to the catalog
// baseline.
func (c Config) Pair() (micro, brawny *hw.Platform) {
	micro, brawny = hw.BaselinePair()
	if c.Micro != nil {
		micro = c.Micro
	}
	if c.Brawny != nil {
		brawny = c.Brawny
	}
	return micro, brawny
}

// MatrixPlatforms resolves the platform set for cross-platform matrix
// experiments: Config.Matrix when set, the whole catalog otherwise.
func (c Config) MatrixPlatforms() []*hw.Platform {
	if len(c.Matrix) > 0 {
		return c.Matrix
	}
	return hw.Platforms()
}

// DefaultConfig runs experiments at full fidelity with seed 1.
func DefaultConfig() Config { return Config{Seed: 1} }

// Outcome is what an experiment produces: renderable artifacts plus
// paper-vs-measured comparisons for the ledger `cmd/paper -experiments`
// prints. Comparisons hold only published paper values; opt-in
// experiments keep their metrics in their tables and record none.
type Outcome struct {
	Tables      []*report.Table
	Figures     []*report.Figure
	Comparisons []report.Comparison
	Notes       []string
}

// AddComparison records one paper-vs-measured pair.
func (o *Outcome) AddComparison(artifact, metric string, paper, measured float64) {
	o.Comparisons = append(o.Comparisons, report.Comparison{
		Artifact: artifact, Metric: metric, Paper: paper, Measured: measured,
	})
}

// Experiment regenerates one paper artifact (or a tightly coupled group).
type Experiment struct {
	ID      string // e.g. "fig4_fig7"
	Title   string
	Section string // paper section
	// OptIn experiments go beyond the paper's artifact set (cross-platform
	// matrices); cmd/paper runs them only when selected with -only, so the
	// default reproduction output stays exactly the paper's.
	OptIn bool
	Run   func(cfg Config) *Outcome
}

var registry []Experiment

func register(e Experiment) {
	for _, existing := range registry {
		if existing.ID == e.ID {
			panic(fmt.Sprintf("core: duplicate experiment %q", e.ID))
		}
	}
	registry = append(registry, e)
}

// Experiments returns all registered experiments in registration order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists registered experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}
