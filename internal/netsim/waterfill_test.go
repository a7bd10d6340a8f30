package netsim

import (
	"fmt"
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
