// Package microbench reproduces the paper's individual-server tests
// (Section 4): Dhrystone and Sysbench for CPU (Figures 2–3), Sysbench
// memory bandwidth sweeps (§4.2), dd/ioping storage tests (Table 5) and
// iperf3/ping network tests (§4.4). The CPU tests run through the DES
// processor-sharing model so thread contention emerges from the same
// substrate the cluster workloads use.
package microbench

import (
	"edisim/internal/hw"
	"edisim/internal/sim"
	"edisim/internal/units"
)

// DhrystoneResult is the §4.1 Dhrystone outcome for one platform.
type DhrystoneResult struct {
	Platform string
	DMIPS    units.DMIPS
	// RunTime is how long 100 million runs take at -O3 on one core.
	RunTime float64
}

// dhrystonesPerDMIPS is the divisor from the paper: DMIPS = loops/s ÷ 1757.
const dhrystonesPerDMIPS = 1757

// Dhrystone reports the single-core Dhrystone result for a platform.
func Dhrystone(spec hw.NodeSpec) DhrystoneResult {
	loopsPerSec := float64(spec.CPU.DMIPS) * dhrystonesPerDMIPS
	return DhrystoneResult{
		Platform: spec.Name,
		DMIPS:    spec.CPU.DMIPS,
		RunTime:  100e6 / loopsPerSec,
	}
}

// CPUPoint is one thread-count sample of the Sysbench CPU test
// (primes < 20000), matching Figures 2 and 3: total completion time and
// the average per-event response time.
type CPUPoint struct {
	Threads     int
	TotalTime   float64 // seconds
	AvgResponse float64 // seconds per event
}

// sysbenchWorkDMIPSSeconds is the total work of "calculate all primes below
// 20000" under Sysbench 0.5, expressed in Dell-measured DMIPS-seconds and
// calibrated so the Dell 1-thread run takes ≈40 s (Figure 3).
const sysbenchWorkDMIPSSeconds = 40 * 11383

// sysbenchEvents is Sysbench's default event count for the CPU test.
const sysbenchEvents = 10000

// sysbenchEfficiency captures that the prime loop is less sensitive to the
// Xeon's deep pipeline than Dhrystone is: per §4.1 the Sysbench single-core
// gap is 15–18× while the Dhrystone gap is 18×. Edison therefore runs this
// benchmark slightly "above" its Dhrystone rating.
func sysbenchEfficiency(spec hw.NodeSpec) float64 {
	if spec.CPU.Clock < 1000 { // Atom-class in-order core
		return 1.15
	}
	return 1.0
}

// SysbenchCPU runs the primes benchmark with the given thread counts on a
// node of platform p (the DES processor model) and reports one point per
// thread count.
func SysbenchCPU(p *hw.Platform, threads []int) []CPUPoint {
	spec := p.Spec
	eff := sysbenchEfficiency(spec)
	points := make([]CPUPoint, 0, len(threads))
	for _, th := range threads {
		eng := sim.NewEngine()
		node := hw.NewNode(eng, p, "bench")
		perThread := sysbenchWorkDMIPSSeconds / eff / float64(th)
		var last sim.Time
		for i := 0; i < th; i++ {
			node.Compute(perThread, func() {
				if eng.Now() > last {
					last = eng.Now()
				}
			})
		}
		eng.Run()
		total := float64(last)
		// Sysbench response time: mean latency of one event. Each thread
		// serves its share of events sequentially at the per-thread rate.
		eventWork := sysbenchWorkDMIPSSeconds / eff / sysbenchEvents
		perThreadRate := float64(spec.CPU.DMIPS)
		if c := spec.CPU.EffectiveCores(); float64(th) > c {
			perThreadRate *= c / float64(th)
		}
		points = append(points, CPUPoint{
			Threads:     th,
			TotalTime:   total,
			AvgResponse: eventWork / perThreadRate,
		})
	}
	return points
}

// MemoryPoint is one (block size, threads) sample of the Sysbench memory
// transfer test (§4.2).
type MemoryPoint struct {
	Block   units.Bytes
	Threads int
	Rate    units.BytesPerSec
}

// memOpOverhead is the fixed per-block software cost that makes small-block
// transfers slow; calibrated so rates saturate between 256 KB and 1 MB as
// the paper observes.
func memOpOverhead(spec hw.NodeSpec) float64 {
	if spec.CPU.Clock < 1000 {
		return 30e-6 // Edison: slow core, higher per-op cost
	}
	return 1.8e-6
}

// SysbenchMemory sweeps block sizes and thread counts, reporting the
// achieved transfer rate for each combination.
func SysbenchMemory(spec hw.NodeSpec, blocks []units.Bytes, threads []int) []MemoryPoint {
	var out []MemoryPoint
	ov := memOpOverhead(spec)
	for _, bl := range blocks {
		for _, th := range threads {
			// Per-thread streaming rate limited by fixed per-op cost...
			perThread := float64(bl) / (float64(bl)/float64(spec.Mem.Bandwidth) + ov)
			// ...scaled by threads until the controller saturates.
			eff := float64(th)
			if sat := float64(spec.Mem.SaturationThreads); eff > sat {
				eff = sat
			}
			rate := perThread * eff
			if max := float64(spec.Mem.Bandwidth); rate > max {
				rate = max
			}
			out = append(out, MemoryPoint{Block: bl, Threads: th, Rate: units.BytesPerSec(rate)})
		}
	}
	return out
}

// PeakMemoryBandwidth reports the saturated rate (large blocks, enough
// threads), which the paper quotes as 2.2 GB/s vs 36 GB/s.
func PeakMemoryBandwidth(spec hw.NodeSpec) units.BytesPerSec {
	pts := SysbenchMemory(spec, []units.Bytes{units.MB}, []int{16})
	return pts[0].Rate
}

// StorageResult is the Table 5 row set for one platform, measured by
// running dd-style streaming transfers and ioping-style single requests
// through the DES disk model.
type StorageResult struct {
	Platform                  string
	Write, BufWrite           units.BytesPerSec
	Read, BufRead             units.BytesPerSec
	WriteLatency, ReadLatency float64
}

// ddBytes is the transfer volume used for throughput measurement.
const ddBytes = 64 * units.MB

// Storage measures the platform's disk with dd and ioping equivalents.
func Storage(spec hw.NodeSpec) StorageResult {
	run := func(write, buffered bool) units.BytesPerSec {
		eng := sim.NewEngine()
		d := hw.NewDisk(eng, spec.Disk)
		var doneAt sim.Time
		record := func() { doneAt = eng.Now() }
		// dd streams in blocks; issue sequentially like dd does.
		const blocks = 64
		block := ddBytes / blocks
		var issue func(i int)
		issue = func(i int) {
			if i == blocks {
				record()
				return
			}
			if write {
				d.Write(block, buffered, func() { issue(i + 1) })
			} else {
				d.Read(block, buffered, func() { issue(i + 1) })
			}
		}
		issue(0)
		eng.Run()
		return units.BytesPerSec(float64(ddBytes) / float64(doneAt))
	}
	lat := func(write bool) float64 {
		eng := sim.NewEngine()
		d := hw.NewDisk(eng, spec.Disk)
		var doneAt sim.Time
		if write {
			d.Write(4*units.KB, false, func() { doneAt = eng.Now() })
		} else {
			d.Read(4*units.KB, false, func() { doneAt = eng.Now() })
		}
		eng.Run()
		return float64(doneAt)
	}
	return StorageResult{
		Platform:     spec.Name,
		Write:        run(true, false),
		BufWrite:     run(true, true),
		Read:         run(false, false),
		BufRead:      run(false, true),
		WriteLatency: lat(true),
		ReadLatency:  lat(false),
	}
}

// NetworkResult is one §4.4 measurement between a pair of hosts.
type NetworkResult struct {
	Pair     string
	TCP, UDP units.BytesPerSec
	RTT      float64
}

// iperfBytes is the paper's 1 GB transfer volume.
const iperfBytes = units.GB
