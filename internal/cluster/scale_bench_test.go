package cluster

import (
	"fmt"
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// scaleShape picks leaf-spine dimensions for a target fleet size.
// BenchmarkEagerOracleScaleFlowChurn in internal/netsim repeats the 100 and
// 1024 shapes; keep the two in step.
func scaleShape(nodes int) LeafSpineConfig {
	switch nodes {
	case 100:
		return LeafSpineConfig{Spines: 2, Leaves: 5, HostsPerLeaf: 20}
	case 1024:
		return LeafSpineConfig{Spines: 4, Leaves: 32, HostsPerLeaf: 32}
	case 4096:
		return LeafSpineConfig{Spines: 4, Leaves: 64, HostsPerLeaf: 64}
	default:
		panic(fmt.Sprintf("no shape for %d nodes", nodes))
	}
}

// The background load in both benchmarks is one long-lived flow per host —
// an intra-leaf ring (host i → host i+1 on the same leaf), so the live flow
// set equals the fleet size and components stay leaf-local.

// BenchmarkScaleFlowChurn measures the cost of one flow arrival + departure
// against a datacenter-scale live flow set (one background flow per host):
// the per-event flow path must be independent of the fleet size, so the
// lazy ns/op across 100 → 1024 → 4096 pins sub-linear event cost. The
// O(flows)-per-event eager model runs the same churn as a test oracle in
// internal/netsim (BenchmarkEagerOracleScaleFlowChurn).
func BenchmarkScaleFlowChurn(b *testing.B) {
	for _, nodes := range []int{100, 1024, 4096} {
		b.Run(fmt.Sprintf("nodes=%d/lazy", nodes), func(b *testing.B) {
			cfg := scaleShape(nodes)
			eng := sim.NewEngine()
			f, hosts := LeafSpine(eng, cfg)
			for l := 0; l < cfg.Leaves; l++ {
				base := l * cfg.HostsPerLeaf
				for h := 0; h < cfg.HostsPerLeaf; h++ {
					f.StartFlow(hosts[base+h], hosts[base+(h+1)%cfg.HostsPerLeaf], units.Bytes(1e18), nil)
				}
			}
			eng.RunUntil(eng.Now() + 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Churn inside leaf 0's component, then across the spine.
				f.StartFlow(hosts[0], hosts[1], units.Bytes(1e6), nil)
				eng.RunUntil(eng.Now() + 1)
			}
		})
	}
}

// BenchmarkScaleCrossLeafChurn is the multi-hop variant: the churn flow
// crosses the spine, touching two leaf components plus the spine links.
func BenchmarkScaleCrossLeafChurn(b *testing.B) {
	for _, nodes := range []int{100, 1024} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			cfg := scaleShape(nodes)
			eng := sim.NewEngine()
			f, hosts := LeafSpine(eng, cfg)
			for l := 0; l < cfg.Leaves; l++ {
				base := l * cfg.HostsPerLeaf
				for h := 0; h < cfg.HostsPerLeaf; h++ {
					f.StartFlow(hosts[base+h], hosts[base+(h+1)%cfg.HostsPerLeaf], units.Bytes(1e18), nil)
				}
			}
			eng.RunUntil(eng.Now() + 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.StartFlow(hosts[0], hosts[len(hosts)-1], units.Bytes(1e6), nil)
				eng.RunUntil(eng.Now() + 1)
			}
		})
	}
}
