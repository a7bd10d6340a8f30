package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// eagerOracle is the max-min flow model that lazy crediting replaced. It
// is O(flows) per fabric event:
//
//   - a flow joins the sharing set after its path latency;
//   - every fabric event credits every live flow at its current rate;
//   - every pass water-fills all live flows, not only the perturbed
//     component, with the round-scan water-fill (scanWaterFill);
//   - the next completion is found by a linear scan;
//   - a completion sweep finishes, in admission order, every flow within
//     one byte of drained;
//   - a cut aborts only flows that cross a link cut by that very call, so
//     a flow parked at rate 0 on an earlier cut keeps waiting.
//
// It reads topology, routes and link scales from its own fabric, which
// carries no flows, and shares no flow code with the code under test.
type eagerOracle struct {
	eng   *sim.Engine
	fab   *Fabric
	flows []*Flow  // live set, admission order
	links []*Link  // scanWaterFill scratch
	lastT sim.Time // when every live flow was last credited
	next  sim.EventRef
	seq   uint64
}

func newEagerOracle(eng *sim.Engine, fab *Fabric) *eagerOracle {
	return &eagerOracle{eng: eng, fab: fab}
}

// StartFlow mirrors Fabric.StartFlow. The returned ref reports the
// oracle's rate and goes dead when the flow finishes or is aborted.
func (o *eagerOracle) StartFlow(src, dst string, size units.Bytes, done func()) FlowRef {
	o.seq++
	fl := &Flow{Src: src, Dst: dst, seq: o.seq, remaining: float64(size), done: done}
	ref := FlowRef{fl: fl, seq: fl.seq}
	if src == dst || size == 0 {
		o.eng.After(0, func() {
			fl.seq = 0
			if done != nil {
				done()
			}
		})
		return ref
	}
	fl.path = o.fab.Route(src, dst)
	o.eng.After(o.fab.Latency(src, dst), func() {
		o.advance()
		o.flows = append(o.flows, fl)
		o.reallocate()
	})
	return ref
}

// SetVertexLinks mirrors Fabric.SetVertexLinks for flows.
func (o *eagerOracle) SetVertexLinks(v string, scale float64) {
	o.advance()
	var cut []*Link
	changed := false
	for _, l := range o.fab.links {
		if (l.Src == v || l.Dst == v) && l.scale != scale {
			l.scale = scale
			changed = true
			if scale == 0 {
				cut = append(cut, l)
			}
		}
	}
	if !changed {
		return
	}
	if len(cut) > 0 {
		o.retain(func(fl *Flow) bool {
			return !slices.ContainsFunc(fl.path, func(l *Link) bool { return slices.Contains(cut, l) })
		})
	}
	o.reallocate()
}

// retain keeps the live flows that keep reports true, in admission order,
// and kills the refs of the rest.
func (o *eagerOracle) retain(keep func(*Flow) bool) {
	live := o.flows[:0]
	for _, fl := range o.flows {
		if keep(fl) {
			live = append(live, fl)
		} else {
			fl.seq = 0
		}
	}
	clear(o.flows[len(live):])
	o.flows = live
}

// advance credits every live flow's progress since the last fabric event.
func (o *eagerOracle) advance() {
	now := o.eng.Now()
	dt := float64(now - o.lastT)
	o.lastT = now
	if dt <= 0 {
		return
	}
	for _, fl := range o.flows {
		if fl.rate > 0 {
			fl.remaining -= min(fl.rate*dt, fl.remaining)
		}
	}
}

// reallocate water-fills every live flow and re-arms the completion sweep
// at the earliest projected completion.
func (o *eagerOracle) reallocate() {
	o.next.Cancel()
	o.next = sim.EventRef{}
	if len(o.flows) == 0 {
		return
	}
	o.links = scanWaterFill(o.flows, o.links)
	next := math.Inf(1)
	for _, fl := range o.flows {
		if fl.fill >= 0 {
			fl.rate = fl.fill
		}
		if fl.rate > 0 {
			next = min(next, fl.remaining/fl.rate)
		}
	}
	if !math.IsInf(next, 1) {
		o.next = o.eng.After(max(next, 0), o.complete)
	}
}

// complete finishes every drained flow. All of them are dead before the
// first done callback runs, and the callbacks run in admission order.
func (o *eagerOracle) complete() {
	o.next = sim.EventRef{}
	o.advance()
	var finished []func()
	o.retain(func(fl *Flow) bool {
		if fl.remaining > 1 { // one-byte epsilon
			return true
		}
		if fl.done != nil {
			finished = append(finished, fl.done)
		}
		return false
	})
	o.reallocate()
	for _, done := range finished {
		done()
	}
}

// scanWaterFill is the round-scan water-fill: flows in admission order,
// and each round checks the whole path of every unfrozen flow against the
// links' shares at the start of the round, freezing the flows that cross
// a link whose share equals the round's smallest exactly. It is the eager
// oracle's water-fill and the reference of TestWaterFillMatchesScan. It
// reads every link of each path, slack or binding, and no flow list. The
// flows must be closed under link sharing, as for waterFill; each flow's
// share is left in its fill field, and its links' water-filling fields are
// overwritten. It collects the links in the given scratch slice and
// returns it for reuse.
func scanWaterFill(flows []*Flow, links []*Link) []*Link {
	links = links[:0]
	for _, fl := range flows {
		for _, l := range fl.path {
			l.wfCnt = 0
		}
	}
	for _, fl := range flows {
		for _, l := range fl.path {
			if l.wfCnt == 0 {
				l.wfRem = l.effCap()
				links = append(links, l)
			}
			l.wfCnt++
		}
	}
	unfrozen := len(flows)
	for _, fl := range flows {
		fl.fill = -1
	}
	for unfrozen > 0 {
		// Every link's share at the start of the round, and the smallest
		// among links carrying unfrozen flows.
		minShare := math.Inf(1)
		for _, l := range links {
			l.wfShare = math.Inf(1)
			if l.wfCnt > 0 {
				l.wfShare = l.wfRem / float64(l.wfCnt)
				minShare = min(minShare, l.wfShare)
			}
		}
		if math.IsInf(minShare, 1) {
			break
		}
		// Freeze every unfrozen flow crossing a link at the bottleneck share.
		progressed := false
		for _, fl := range flows {
			if fl.fill >= 0 {
				continue
			}
			bottlenecked := false
			for _, l := range fl.path {
				if l.wfShare == minShare {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				continue
			}
			fl.fill = minShare
			unfrozen--
			for _, l := range fl.path {
				l.wfRem -= minShare
				if l.wfRem < 0 {
					l.wfRem = 0
				}
				l.wfCnt--
			}
			progressed = true
		}
		if !progressed {
			break // numerical safety: should not happen
		}
	}
	return links
}

// flowModel is what driveTrace, faultStorm and the churn benchmarks drive:
// the lazy Fabric or the eager oracle. Rates are read through the returned
// FlowRef.
type flowModel interface {
	StartFlow(src, dst string, size units.Bytes, done func()) FlowRef
	SetVertexLinks(v string, scale float64)
}

// flowEvent is one flow of a trace: its start time, endpoints and size.
type flowEvent struct {
	at       float64
	src, dst string
	size     units.Bytes
}

// driveTrace schedules the given flow trace on the model, sampling every
// flow's rate at fixed intervals and recording completion times. Returned
// slices are deterministic given the trace.
func driveTrace(eng *sim.Engine, m flowModel, trace []flowEvent) (doneTimes []sim.Time, rateSamples []float64) {
	refs := make([]FlowRef, len(trace))
	doneTimes = make([]sim.Time, len(trace))
	var horizon float64
	for i, fe := range trace {
		eng.At(sim.Time(fe.at), func() {
			refs[i] = m.StartFlow(fe.src, fe.dst, fe.size, func() {
				doneTimes[i] = eng.Now()
			})
		})
		if fe.at > horizon {
			horizon = fe.at
		}
	}
	// Sample all live rates on a fixed grid spanning the arrival window.
	for k := 0; k < 400; k++ {
		eng.At(sim.Time(float64(k)*horizon/400), func() {
			for _, r := range refs {
				rateSamples = append(rateSamples, float64(r.Rate()))
			}
		})
	}
	eng.Run()
	return doneTimes, rateSamples
}

// randomTrace builds a reproducible arrival/departure mix: flow sizes span
// RPC-ish to HDFS-block-ish so completions interleave heavily with
// arrivals.
func randomTrace(rng *rand.Rand, hosts []string, n int) []flowEvent {
	trace := make([]flowEvent, n)
	for i := range trace {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		trace[i] = flowEvent{
			at:   rng.Float64() * 2.0,
			src:  src,
			dst:  dst,
			size: units.Bytes(1e4 + rng.Float64()*2e6),
		}
	}
	return trace
}

// closeTo reports a ≈ b within a relative tolerance generous enough to
// absorb the lazy/eager float-accumulation difference (progress credited in
// one closed-form chunk per rate change vs one chunk per event) but far
// tighter than any behavioral divergence.
func closeTo(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-6*math.Max(math.Abs(a), math.Abs(b))+1e-9
}

// TestLazyMatchesEagerReference: on randomized flow traces over the
// leaf-spine and Table-6 topologies, the lazy fabric (dirty-component
// crediting + completion heap) must reproduce the eager oracle within
// float tolerance — same completion time per flow, same completion order,
// same sampled rates. Rate samples that land in the sliver between the two
// models' completion instants (one model has finished the flow, the other
// finishes it a few ulps later) are excused only when one side reads
// exactly 0.
func TestLazyMatchesEagerReference(t *testing.T) {
	builders := map[string]func(*sim.Engine) (*Fabric, []string){
		"leafSpine": leafSpineFabric,
		"table6":    table6Fabric,
	}
	for name, build := range builders {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				engLazy := sim.NewEngine()
				fabLazy, hosts := build(engLazy)
				engEager := sim.NewEngine()
				fabEager, _ := build(engEager)
				eager := newEagerOracle(engEager, fabEager)

				trace := randomTrace(rand.New(rand.NewSource(seed)), hosts, 120)
				doneLazy, ratesLazy := driveTrace(engLazy, fabLazy, trace)
				doneEager, ratesEager := driveTrace(engEager, eager, trace)

				checkEquivalence(t, trace, doneLazy, doneEager, ratesLazy, ratesEager)
			})
		}
	}
}

func checkEquivalence(t *testing.T, trace []flowEvent, doneLazy, doneEager []sim.Time, ratesLazy, ratesEager []float64) {
	t.Helper()
	for i := range doneLazy {
		if (doneLazy[i] == 0) != (doneEager[i] == 0) {
			t.Fatalf("flow %d (%s->%s): finished in one model only: %v (lazy) vs %v (eager)",
				i, trace[i].src, trace[i].dst, doneLazy[i], doneEager[i])
		}
		if !closeTo(float64(doneLazy[i]), float64(doneEager[i])) {
			t.Fatalf("flow %d (%s->%s): completion %v (lazy) != %v (eager)",
				i, trace[i].src, trace[i].dst, doneLazy[i], doneEager[i])
		}
	}
	// Completion order must match exactly (the heap ties on admission seq to
	// reproduce the eager sweep's order).
	orderOf := func(done []sim.Time) []int {
		order := make([]int, 0, len(done))
		for i, d := range done {
			if d != 0 {
				order = append(order, i)
			}
		}
		sort.SliceStable(order, func(a, b int) bool { return done[order[a]] < done[order[b]] })
		return order
	}
	ol, oe := orderOf(doneLazy), orderOf(doneEager)
	for i := range ol {
		if ol[i] != oe[i] {
			// Permit swaps between flows whose completions are within
			// tolerance of each other — their order is float noise.
			if closeTo(float64(doneLazy[ol[i]]), float64(doneLazy[oe[i]])) {
				continue
			}
			t.Fatalf("completion order diverged at position %d: flow %d (lazy) vs %d (eager)", i, ol[i], oe[i])
		}
	}
	if len(ratesLazy) != len(ratesEager) {
		t.Fatalf("sample count %d != %d", len(ratesLazy), len(ratesEager))
	}
	for i := range ratesLazy {
		if ratesLazy[i] == ratesEager[i] {
			continue
		}
		if ratesLazy[i] == 0 || ratesEager[i] == 0 {
			continue // sample landed between the models' completion instants
		}
		if !closeTo(ratesLazy[i], ratesEager[i]) {
			t.Fatalf("rate sample %d: %v (lazy) != %v (eager)",
				i, ratesLazy[i], ratesEager[i])
		}
	}
}

// faultStorm schedules link cut/degrade/restore storms against a couple of
// vertices: mass simultaneous rate changes, aborted crossing flows, and
// rate-0 admissions that must wait for restore — the paths most likely to
// break the lazy-crediting invariant.
func faultStorm(eng *sim.Engine, m flowModel, victims []string) {
	for i, v := range victims {
		base := 0.35 + 0.1*float64(i)
		eng.At(sim.Time(base), func() { m.SetVertexLinks(v, 0) })        // cut
		eng.At(sim.Time(base+0.3), func() { m.SetVertexLinks(v, 0.25) }) // partial restore, degraded
		eng.At(sim.Time(base+0.7), func() { m.SetVertexLinks(v, 1) })    // healthy
	}
}

// TestLazyMatchesEagerReferenceWithFaults runs the same lockstep comparison
// through link cut/degrade storms. Flows whose completion (in either model)
// lands within a hair of a fault instant are excused from the per-flow
// checks: a cut arriving a few ulps before vs after a completion flips the
// flow between finished and aborted, which is fault-timing noise, not a
// divergence. The seeds are chosen so at most a handful of flows hit that
// window.
func TestLazyMatchesEagerReferenceWithFaults(t *testing.T) {
	builders := map[string]struct {
		build   func(*sim.Engine) (*Fabric, []string)
		victims []string
	}{
		"leafSpine": {leafSpineFabric, []string{"h0-1", "leaf1"}},
		"table6":    {table6Fabric, []string{"e05", "esw2"}},
	}
	for name, tc := range builders {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				engLazy := sim.NewEngine()
				fabLazy, hosts := tc.build(engLazy)
				faultStorm(engLazy, fabLazy, tc.victims)
				engEager := sim.NewEngine()
				fabEager, _ := tc.build(engEager)
				eager := newEagerOracle(engEager, fabEager)
				faultStorm(engEager, eager, tc.victims)

				trace := randomTrace(rand.New(rand.NewSource(seed)), hosts, 120)
				doneLazy, ratesLazy := driveTrace(engLazy, fabLazy, trace)
				doneEager, ratesEager := driveTrace(engEager, eager, trace)

				finLazy, finEager, aborted := 0, 0, 0
				for i := range doneLazy {
					if doneLazy[i] != 0 {
						finLazy++
					}
					if doneEager[i] != 0 {
						finEager++
					}
					if (doneLazy[i] == 0) != (doneEager[i] == 0) {
						aborted++
						continue
					}
					if doneLazy[i] == 0 {
						continue // aborted in both models
					}
					if !closeTo(float64(doneLazy[i]), float64(doneEager[i])) {
						t.Fatalf("flow %d (%s->%s): completion %v (lazy) != %v (eager)",
							i, trace[i].src, trace[i].dst, doneLazy[i], doneEager[i])
					}
				}
				if aborted > 2 {
					t.Fatalf("%d flows flipped finished/aborted across models (fault-window noise budget is 2)", aborted)
				}
				if finLazy == len(trace) || finLazy == 0 {
					t.Fatalf("fault storm had no effect: %d/%d flows finished (lazy)", finLazy, len(trace))
				}
				mismatched := 0
				for i := range ratesLazy {
					if ratesLazy[i] == ratesEager[i] || ratesLazy[i] == 0 || ratesEager[i] == 0 {
						continue
					}
					if !closeTo(ratesLazy[i], ratesEager[i]) {
						mismatched++
					}
				}
				if mismatched > 0 {
					t.Fatalf("%d rate samples diverged beyond tolerance", mismatched)
				}
			})
		}
	}
}

// BenchmarkEagerOracleFlowChurnManyComponents is the eager counterpart of
// BenchmarkFlowChurnManyComponents/lazy: every churn event credits and
// re-water-fills all 128 components.
func BenchmarkEagerOracleFlowChurnManyComponents(b *testing.B) {
	eng := sim.NewEngine()
	f, pairs := manyComponentsFabric(eng)
	benchManyComponents(b, eng, newEagerOracle(eng, f), pairs)
}

// BenchmarkEagerOracleScaleFlowChurn is the eager counterpart of
// BenchmarkScaleFlowChurn/nodes=N/lazy in internal/cluster, on the same
// leaf-spine dimensions, link defaults and background ring: one arrival
// plus departure against a live set of one flow per host, which the eager
// model pays for in O(flows) per event. 4096 nodes is left out: the
// quadratic blowup is the point, not a case worth minutes of benchtime.
func BenchmarkEagerOracleScaleFlowChurn(b *testing.B) {
	for _, s := range []struct{ nodes, spines, leaves, perLeaf int }{
		{100, 2, 5, 20},
		{1024, 4, 32, 32},
	} {
		b.Run(fmt.Sprintf("nodes=%d", s.nodes), func(b *testing.B) {
			eng := sim.NewEngine()
			f, hosts := buildLeafSpine(eng, leafSpineShape{
				spines: s.spines, leaves: s.leaves, perLeaf: s.perLeaf,
				hostLink: units.Gbps(1), uplink: units.Gbps(10),
				hostDelay: 0.02e-3, uplinkDelay: 0.01e-3,
			})
			o := newEagerOracle(eng, f)
			for l := 0; l < s.leaves; l++ {
				base := l * s.perLeaf
				for h := 0; h < s.perLeaf; h++ {
					o.StartFlow(hosts[base+h], hosts[base+(h+1)%s.perLeaf], units.Bytes(1e18), nil)
				}
			}
			eng.RunUntil(eng.Now() + 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.StartFlow(hosts[0], hosts[1], units.Bytes(1e6), nil)
				eng.RunUntil(eng.Now() + 1)
			}
		})
	}
}
