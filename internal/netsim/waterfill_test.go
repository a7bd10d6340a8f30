package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// leafSpineShape sizes a leaf-spine fabric: every leaf joins every spine,
// and each leaf has perLeaf hosts on access links.
type leafSpineShape struct {
	spines, leaves, perLeaf int
	hostLink, uplink        units.BytesPerSec
	hostDelay, uplinkDelay  float64
}

// buildLeafSpine builds the fabric in the same vertex and link order as
// cluster.LeafSpine and returns it with the host names, leaf-major
// ("h<leaf>-<index>").
func buildLeafSpine(eng *sim.Engine, s leafSpineShape) (*Fabric, []string) {
	f := NewFabric(eng)
	var hosts []string
	for sp := 0; sp < s.spines; sp++ {
		f.AddVertex(fmt.Sprintf("spine%d", sp))
	}
	for l := 0; l < s.leaves; l++ {
		leaf := fmt.Sprintf("leaf%d", l)
		f.AddVertex(leaf)
		for sp := 0; sp < s.spines; sp++ {
			f.Connect(leaf, fmt.Sprintf("spine%d", sp), s.uplink, s.uplinkDelay)
		}
		for h := 0; h < s.perLeaf; h++ {
			host := fmt.Sprintf("h%d-%d", l, h)
			f.AddVertex(host)
			f.Connect(host, leaf, s.hostLink, s.hostDelay)
			hosts = append(hosts, host)
		}
	}
	return f, hosts
}

// leafSpineFabric builds a 2-spine × 2-leaf × 4-host fat tree: 100 Mbps
// host access links, 1 Gbps leaf-spine uplinks (the platform_matrix shape).
func leafSpineFabric(eng *sim.Engine) (*Fabric, []string) {
	return buildLeafSpine(eng, leafSpineShape{
		spines: 2, leaves: 2, perLeaf: 4,
		hostLink: units.Mbps(100), uplink: units.Gbps(1),
		hostDelay: 0.2e-3, uplinkDelay: 0.1e-3,
	})
}

// table6Fabric builds the paper's Table 6 testbed shape: 35 Edison-class
// hosts (100 Mbps NICs) spread over three access switches, a Dell-class
// host (1 Gbps NIC) on a fourth, 1 Gbps inter-switch links to a root.
func table6Fabric(eng *sim.Engine) (*Fabric, []string) {
	f := NewFabric(eng)
	f.AddVertex("root")
	var hosts []string
	for s := 0; s < 3; s++ {
		sw := fmt.Sprintf("esw%d", s)
		f.AddVertex(sw)
		f.Connect(sw, "root", units.Gbps(1), 0.1e-3)
		for h := 0; h < 12 && len(hosts) < 35; h++ {
			host := fmt.Sprintf("e%02d", len(hosts))
			f.AddVertex(host)
			f.Connect(host, sw, units.Mbps(100), 0.3e-3)
			hosts = append(hosts, host)
		}
	}
	f.AddVertex("dsw")
	f.Connect("dsw", "root", units.Gbps(1), 0.1e-3)
	f.AddVertex("dell")
	f.Connect("dell", "dsw", units.Gbps(1), 0.1e-3)
	hosts = append(hosts, "dell")
	return f, hosts
}

// TestFlowChurnSteadyStateNoAlloc pins the whole lazy flow path — StartFlow,
// admission, dirty-component water-filling, heap re-keying, completion — at
// zero allocations per flow once the pools and scratch have warmed up.
func TestFlowChurnSteadyStateNoAlloc(t *testing.T) {
	eng := sim.NewEngine()
	f, hosts := leafSpineFabric(eng)
	// Warm: pools, route cache, heap/scratch capacity.
	for i := 0; i < 3; i++ {
		for j := 0; j < len(hosts); j++ {
			f.StartFlow(hosts[j], hosts[(j+3)%len(hosts)], units.Bytes(1e5), nil)
		}
		eng.RunUntil(eng.Now() + 1)
	}
	avg := testing.AllocsPerRun(200, func() {
		f.StartFlow(hosts[0], hosts[5], units.Bytes(2e5), nil)
		f.StartFlow(hosts[1], hosts[6], units.Bytes(1e5), nil)
		eng.RunUntil(eng.Now() + 1)
	})
	if avg != 0 {
		t.Fatalf("steady-state flow churn allocates %.2f allocs/op, want 0", avg)
	}
}

// TestIncrementalSkipsUntouchedComponent: a flow in a disjoint component
// keeps its exact rate object through churn elsewhere, and the dirty-link
// list drains after every pass.
func TestIncrementalSkipsUntouchedComponent(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng)
	for _, v := range []string{"a", "b", "c", "d", "sw1", "sw2"} {
		f.AddVertex(v)
	}
	f.Connect("a", "sw1", units.Mbps(100), 0)
	f.Connect("b", "sw1", units.Mbps(100), 0)
	f.Connect("c", "sw2", units.Mbps(100), 0)
	f.Connect("d", "sw2", units.Mbps(100), 0)
	// Long-lived flow in the c/d component.
	long := f.StartFlow("c", "d", units.Bytes(125e6), nil)
	// Churn in the a/b component.
	for i := 0; i < 5; i++ {
		f.StartFlow("a", "b", units.Bytes(1e5), nil)
	}
	eng.RunUntil(1)
	if got := float64(long.Rate()); got != 12.5e6 {
		t.Fatalf("untouched flow rate %v, want 12.5e6", got)
	}
	if len(f.dirtyLinks) != 0 {
		t.Fatalf("%d dirty links left after passes, want 0", len(f.dirtyLinks))
	}
	eng.Run()
	if !long.Finished() {
		t.Fatal("long flow never finished")
	}
}

// manyComponentsFabric builds 128 disjoint a<i>–sw<i>–b<i> pairs on 1 Gbps
// links, the platform_matrix many-nodes shape, and returns the pairs.
func manyComponentsFabric(eng *sim.Engine) (*Fabric, [][2]string) {
	f := NewFabric(eng)
	const pairs = 128
	hosts := make([][2]string, pairs)
	for i := 0; i < pairs; i++ {
		sw := fmt.Sprintf("sw%d", i)
		a, c := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		f.AddVertex(sw)
		f.AddVertex(a)
		f.AddVertex(c)
		f.Connect(a, sw, units.Gbps(1), 0)
		f.Connect(c, sw, units.Gbps(1), 0)
		hosts[i] = [2]string{a, c}
	}
	return f, hosts
}

// benchManyComponents keeps every pair busy with an effectively infinite
// background flow, then times one churn flow on the first pair per op.
func benchManyComponents(b *testing.B, eng *sim.Engine, m flowModel, pairs [][2]string) {
	for _, p := range pairs {
		m.StartFlow(p[0], p[1], units.Bytes(1e18), nil)
	}
	eng.RunUntil(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StartFlow(pairs[0][0], pairs[0][1], units.Bytes(1e6), nil)
		eng.RunUntil(eng.Now() + 1)
	}
}

// BenchmarkFlowChurnManyComponents measures reallocation cost with many
// disjoint active components: 128 long-lived pair flows plus churn on one
// pair. The lazy pass only touches the churning component; its eager
// counterpart is BenchmarkEagerOracleFlowChurnManyComponents.
func BenchmarkFlowChurnManyComponents(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		eng := sim.NewEngine()
		f, pairs := manyComponentsFabric(eng)
		benchManyComponents(b, eng, f, pairs)
	})
}

// startedRates starts the given flows in the given order, runs until every
// one is admitted, and returns their rates indexed like flows.
func startedRates(build func(*sim.Engine) (*Fabric, []string), flows [][2]string, order []int) []float64 {
	eng := sim.NewEngine()
	f, _ := build(eng)
	refs := make([]FlowRef, len(flows))
	for _, i := range order {
		refs[i] = f.StartFlow(flows[i][0], flows[i][1], units.GB, nil)
	}
	eng.RunUntil(50e-3)
	rates := make([]float64, len(flows))
	for i, r := range refs {
		rates[i] = float64(r.Rate())
	}
	return rates
}

// TestShuffledAdmissionSameRates admits the same flows in shuffled orders
// and requires bit-identical rates: water-filling does not depend on the
// admission order. The first case starts flow A on a long-latency path
// and then flow B on a shorter one, so B, the later seq, is admitted
// first; the second is an all-to-all mix on the Table 6 fabric.
func TestShuffledAdmissionSameRates(t *testing.T) {
	latency := func(eng *sim.Engine) (*Fabric, []string) {
		f := NewFabric(eng)
		for _, v := range []string{"a", "b", "sw", "c", "x", "y"} {
			f.AddVertex(v)
		}
		f.Connect("a", "sw", units.Mbps(100), 10e-3)
		f.Connect("b", "sw", units.Mbps(100), 1e-3)
		f.Connect("sw", "c", units.Mbps(30), 1e-3)
		f.Connect("x", "y", units.Mbps(100), 1e-3)
		return f, nil
	}
	eng := sim.NewEngine()
	f, _ := latency(eng)
	a := f.StartFlow("a", "c", units.GB, nil)
	b := f.StartFlow("b", "c", units.GB, nil)
	eng.RunUntil(5e-3)
	if b.Rate() == 0 || a.Rate() != 0 {
		t.Fatalf("want B admitted before A (rates A %g, B %g)", a.Rate(), b.Rate())
	}

	rng := rand.New(rand.NewSource(1))
	_, hosts := table6Fabric(sim.NewEngine())
	var mix [][2]string
	for range 60 {
		src, dst := rng.Intn(len(hosts)), rng.Intn(len(hosts)-1)
		if dst >= src {
			dst++
		}
		mix = append(mix, [2]string{hosts[src], hosts[dst]})
	}
	for _, tc := range []struct {
		name  string
		build func(*sim.Engine) (*Fabric, []string)
		flows [][2]string
	}{
		{"later-seq-admitted-first", latency, [][2]string{{"a", "c"}, {"b", "c"}, {"x", "y"}, {"b", "c"}}},
		{"table6", table6Fabric, mix},
	} {
		order := make([]int, len(tc.flows))
		for i := range order {
			order[i] = i
		}
		want := startedRates(tc.build, tc.flows, order)
		for trial := range 20 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			got := startedRates(tc.build, tc.flows, order)
			for i := range want {
				if want[i] == 0 {
					t.Fatalf("%s: flow %d not admitted", tc.name, i)
				}
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s trial %d: flow %d rate %v, want %v (admission order %v)",
						tc.name, trial, i, got[i], want[i], order)
				}
			}
		}
	}
}

// randomLeafSpine builds a leaf-spine fabric of random shape and link
// speeds.
func randomLeafSpine(rng *rand.Rand) func(*sim.Engine) (*Fabric, []string) {
	speeds := []units.BytesPerSec{units.Mbps(100), units.Gbps(1), units.Gbps(10)}
	shape := leafSpineShape{
		spines: 1 + rng.Intn(3), leaves: 2 + rng.Intn(3), perLeaf: 2 + rng.Intn(5),
		hostLink: speeds[rng.Intn(2)], uplink: speeds[1+rng.Intn(2)],
		hostDelay: 0.2e-3, uplinkDelay: 0.1e-3,
	}
	return func(eng *sim.Engine) (*Fabric, []string) { return buildLeafSpine(eng, shape) }
}

// TestWaterFillMatchesScan water-fills random components on the Table 6
// fabric and on random leaf-spines, some vertices' links degraded or cut,
// and requires bit-identical rates from the order-free pass, fed its flows
// and links shuffled, and from the round-scan water-fill of the eager
// oracle, fed the flows in admission order.
func TestWaterFillMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for c := range 400 {
		build := table6Fabric
		if c%2 == 1 {
			build = randomLeafSpine(rng)
		}
		eng := sim.NewEngine()
		f, hosts := build(eng)
		for range rng.Intn(4) {
			scale := 0.05 + 0.9*rng.Float64()
			if rng.Intn(8) == 0 {
				scale = 0
			}
			f.SetVertexLinks(f.names[rng.Intn(len(f.names))], scale)
		}
		for range 1 + rng.Intn(80) {
			src, dst := rng.Intn(len(hosts)), rng.Intn(len(hosts)-1)
			if dst >= src {
				dst++
			}
			f.StartFlow(hosts[src], hosts[dst], units.GB, nil)
		}
		eng.RunUntil(50e-3)

		for _, l := range f.links {
			f.markDirty(l)
		}
		flows, links := f.affectedFlows()
		if len(flows) != f.ActiveFlows() {
			t.Fatalf("case %d: sweep found %d flows of %d live", c, len(flows), f.ActiveFlows())
		}
		rng.Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
		rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		f.waterFill(flows, links)

		bySeq := slices.Clone(flows)
		slices.SortFunc(bySeq, func(a, b *Flow) int { return int(a.seq) - int(b.seq) })
		got := make([]float64, len(bySeq))
		for i, fl := range bySeq {
			got[i] = fl.fill
		}
		scanWaterFill(bySeq, nil)
		for i, fl := range bySeq {
			if math.Float64bits(got[i]) != math.Float64bits(fl.fill) {
				t.Fatalf("case %d: flow %s->%s (seq %d) rate %v, scan %v",
					c, fl.Src, fl.Dst, fl.seq, got[i], fl.fill)
			}
		}
	}
}

// BenchmarkShuffleReallocate measures one admission plus one completion
// inside a shuffle: all-to-all flows among the Table 6 fabric's hosts,
// whose one component takes several water-filling rounds (Edison NICs,
// the Dell NIC and the loaded switch uplinks bottleneck in turn). Each op
// re-allocates that whole component twice.
func BenchmarkShuffleReallocate(b *testing.B) {
	eng := sim.NewEngine()
	f, hosts := table6Fabric(eng)
	benchShuffle(b, eng, f, hosts)
}

// benchShuffle starts effectively endless flows between every ordered
// pair of hosts, then times one short flow's admission and completion per
// op.
func benchShuffle(b *testing.B, eng *sim.Engine, f *Fabric, hosts []string) {
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst {
				f.StartFlow(src, dst, units.Bytes(1e18), nil)
			}
		}
	}
	eng.RunUntil(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.StartFlow(hosts[0], hosts[13], units.Bytes(1e4), nil)
		eng.RunUntil(eng.Now() + 1)
	}
}
