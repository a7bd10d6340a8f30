// Package edisim is the public face of the paper reproduction: a typed,
// streaming simulation library for evaluating datacenter workloads on
// micro-server and brawny-server platforms.
//
// The entry point is a Scenario — a declarative spec of what to measure
// (paper experiments, web sweeps over possibly heterogeneous tiers,
// MapReduce jobs with optional utilization traces, TCO studies), on which
// platforms, at which fidelity — executed by Run, which streams each
// completed Artifact to a Sink in deterministic order:
//
//	micro, brawny := edisim.BaselinePair()
//	_ = brawny
//	scn := edisim.Scenario{
//		Quick: true,
//		Workloads: []edisim.Workload{
//			&edisim.WebSweep{
//				Web:   edisim.TierSpec{Platform: edisim.Ref(micro.Name), Nodes: 6},
//				Cache: edisim.TierSpec{Platform: edisim.Ref("xeon"), Nodes: 1},
//			},
//		},
//	}
//	err := edisim.Run(context.Background(), scn, edisim.NewTextSink(os.Stdout))
//
// Results are typed (report values carry units), so the same run can render
// as aligned text, the documented JSON schema, or CSV — see API.md.
//
// Identical seeds reproduce results bit for bit regardless of Workers: every
// sweep point derives its seed from the point's identity, never from
// scheduling order.
package edisim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"edisim/internal/carbon"
	"edisim/internal/core"
	"edisim/internal/faults"
	"edisim/internal/hw"
	"edisim/internal/runner"
)

// Scenario declares one evaluation: platform selection, fidelity, and the
// workloads to run. The zero value of every field has a sensible default;
// an empty Workloads list is the only invalid spec.
type Scenario struct {
	// Name labels the scenario in errors and logs (optional).
	Name string

	// Seed is the root random seed; 0 means 1. Identical seeds reproduce
	// results bit for bit.
	Seed int64
	// Quick trades statistical tightness for speed (shorter measurement
	// windows, fewer sweep points).
	Quick bool
	// Workers sizes the worker pool each unit's sweep points fan across.
	// Up to two units overlap to hide serial stretches, so instantaneous
	// load can briefly reach 2×Workers simulations. 0 or 1 is serial;
	// results are identical for any value.
	Workers int

	// Micro/Brawny override the compared pair for paper experiments; zero
	// refs select the catalog baseline (Edison / Dell R620).
	Micro, Brawny PlatformRef
	// Matrix lists the platforms cross-platform matrix experiments cover;
	// empty selects the whole catalog.
	Matrix []PlatformRef

	// EnergyModel selects the node power model for every testbed the
	// scenario builds: "" (or "linear"/"paper") keeps the paper-calibrated
	// linear model — byte-identical defaults — while "tdp-curve" arms the
	// component-level TDP interpolation model for platforms with energy
	// catalog data (see PLATFORMS.md). Unknown names fail at Run.
	EnergyModel string
	// Region attributes energy to an electricity-grid region for carbon and
	// price accounting (see RegionNames). Empty means unattributed; setting
	// either EnergyModel or Region makes the matrix experiments report their
	// gCO2e and per-region columns.
	Region string

	// Faults, when non-nil, overrides the built-in fault schedule of the
	// fault-injecting workloads (the fault_tolerance experiment; the default
	// paper reproduction never injects faults). Every event is validated at
	// Run; the schedule itself is deterministic — each workload unit derives
	// its injection seed from the unit's identity, so a faulty scenario is
	// exactly as reproducible as a healthy one, for any Workers value.
	Faults *FaultPlan

	// Workloads are evaluated in order; each produces one or more
	// Artifacts, emitted to the Sink in workload order.
	Workloads []Workload
}

// FaultPlan is a reproducible fault-injection schedule (see API.md for the
// schedule grammar): Events are applied in order, and Jitter perturbs every
// event time by a uniform seed-derived offset in [0, Jitter) seconds (0
// keeps the literal schedule). The zero value and nil inject nothing;
// Validate reports the first malformed event.
type FaultPlan = faults.Plan

// FaultEvent is one scheduled fault against a named role of the workload's
// testbed ("web"/"cache" for a web tier, "slave"/"master" for a Hadoop
// cluster). Kind is one of "node_crash", "straggler", "link_cut" and
// "link_degrade"; At is the injection time in seconds into the run and
// Duration how long the fault lasts before the target recovers (0 =
// permanent); Factor scales CPU/disk speed (straggler) or link capacity
// (link_degrade); Index picks the target within the role (reduced modulo
// the role's size).
type FaultEvent = faults.Event

// FaultKind names a FaultEvent's kind.
type FaultKind = faults.Kind

// Workload is one unit of evaluation inside a Scenario. Implementations
// are the exported workload types of this package (PaperExperiments,
// WebSweep, MapReduceJob, TCOStudy); the interface is sealed.
type Workload interface {
	// expand resolves the workload into runnable units under the scenario.
	expand(cfg core.Config) ([]unit, error)
}

// unit is one independently runnable artifact producer.
type unit struct {
	id, title, section string
	run                func(cfg core.Config) (*core.Outcome, error)
}

// config resolves the Scenario-level knobs into the internal experiment
// config.
func (s *Scenario) config() (core.Config, error) {
	cfg := core.Config{Seed: s.Seed, Quick: s.Quick, Workers: s.Workers}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	var err error
	if cfg.Micro, err = s.Micro.resolve(); err != nil {
		return cfg, err
	}
	if cfg.Brawny, err = s.Brawny.resolve(); err != nil {
		return cfg, err
	}
	for _, r := range s.Matrix {
		p, err := r.resolve()
		if err != nil {
			return cfg, err
		}
		if p == nil {
			// A zero ref means "unset" for Micro/Brawny, but a Matrix
			// entry must name something: dropping it silently would run
			// the matrix over fewer platforms than asked for.
			return cfg, errors.New("edisim: empty platform ref in Matrix")
		}
		cfg.Matrix = append(cfg.Matrix, p)
	}
	if err := s.Faults.Validate(); err != nil {
		return cfg, err
	}
	cfg.Faults = s.Faults
	if cfg.Energy, err = hw.ParsePowerModelKind(s.EnergyModel); err != nil {
		return cfg, fmt.Errorf("edisim: %w", err)
	}
	if s.Region != "" {
		g, ok := carbon.Lookup(s.Region)
		if !ok {
			return cfg, unknownNameError("region", s.Region, carbon.RegionNames())
		}
		cfg.Region = g.Region // canonical spelling
	}
	return cfg, nil
}

// Run evaluates the scenario, streaming each completed Artifact to sink in
// workload order. Units (experiments, sweeps) run concurrently up to
// Scenario.Workers, but emission order — and every number — is independent
// of the worker count. The context is observed between units and polled at
// engine-step checkpoints inside long-running units: cancellation stops new
// work and returns ctx.Err() promptly, aborting in-flight simulations at
// their next checkpoint (a few thousand events away, so within
// milliseconds of wall clock).
//
// A unit that panics fails with that unit's error (carrying the worker
// stack); other units complete normally first. A sink error aborts the run
// and is returned as-is.
func Run(ctx context.Context, s Scenario, sink Sink) error {
	cfg, err := s.config()
	if err != nil {
		return err
	}
	cfg.Interrupt = func() bool { return ctx.Err() != nil }
	var units []unit
	for _, w := range s.Workloads {
		if w == nil {
			return errors.New("edisim: nil workload")
		}
		us, err := w.expand(cfg)
		if err != nil {
			return err
		}
		units = append(units, us...)
	}
	if len(units) == 0 {
		return errors.New("edisim: scenario has no workloads")
	}
	// Unit IDs must be unique: they namespace per-point seed derivation
	// (two sweeps sharing an ID would draw correlated random streams) and
	// are the document formats' stable artifact key.
	seen := make(map[string]bool, len(units))
	for _, u := range units {
		if seen[u.id] {
			return fmt.Errorf("edisim: duplicate artifact ID %q — give each workload a distinct ID", u.id)
		}
		seen[u.id] = true
	}

	// Units stream in order as the completed prefix grows. Sweep points
	// carry almost all of the work and fan across the full worker pool
	// inside each unit, so the unit level only needs enough overlap to
	// hide the serial (non-sweep) units: two at a time keeps the
	// worst-case goroutine and testbed-memory load near 2×Workers rather
	// than Workers².
	outer := 1
	if cfg.Workers > 1 {
		outer = 2
	}
	// An internal cancel stops the background workers from starting
	// further units once Run returns early (unit error, sink error, caller
	// cancellation) — an in-flight simulation still finishes, but nothing
	// new launches after the caller has its error.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		o   *core.Outcome
		err error
	}
	var (
		mu      sync.Mutex
		ready   = sync.NewCond(&mu)
		results = make([]*result, len(units))
	)
	// Unit panics must not kill the caller's process: a poisoned unit fails
	// with its own error (worker stack attached) while the others complete.
	runUnit := func(i int) (o *core.Outcome, err error) {
		defer func() {
			if v := recover(); v != nil {
				err = &runner.PanicError{Index: i, Value: v, Stack: debug.Stack()}
			}
		}()
		return units[i].run(cfg)
	}
	go runner.Map(outer, len(units), func(i int) *result {
		r := &result{}
		if ctx.Err() != nil {
			r.err = ctx.Err()
		} else {
			r.o, r.err = runUnit(i)
		}
		mu.Lock()
		results[i] = r
		ready.Broadcast()
		mu.Unlock()
		return r
	})

	for i, u := range units {
		mu.Lock()
		for results[i] == nil {
			ready.Wait()
		}
		r := results[i]
		mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.err != nil {
			return fmt.Errorf("edisim: %s: %w", u.id, r.err)
		}
		if err := sink.Emit(artifactFromOutcome(u, r.o)); err != nil {
			return err
		}
	}
	return nil
}

// unknownNameError formats the shared unknown-name error shape: what was
// asked for and the valid set.
func unknownNameError(kind, name string, valid []string) error {
	return fmt.Errorf("edisim: unknown %s %q (valid: %v)", kind, name, valid)
}
