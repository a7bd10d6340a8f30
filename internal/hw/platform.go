package hw

import (
	"strings"

	"edisim/internal/units"
)

// Platform is one catalog entry: everything the rest of the tree needs to
// know about a server platform, bundled as pure data. The hardware spec
// feeds the simulation substrate; the cost, network and calibration blocks
// feed the cluster builder, the web/Hadoop workload models and the TCO
// model. Adding a platform to the catalog is a data-only change — no
// consumer names platforms explicitly; they resolve entries through
// Platforms/LookupPlatform and iterate.
type Platform struct {
	// Name keys the catalog for LookupPlatform. Catalog entries use it as
	// their NodeSpec.Name too, but nothing looks a platform up by spec
	// name: a node carries its platform (Node.Platform).
	Name string
	// Label is the short display name used in figure legends and table
	// columns ("Edison", "Dell").
	Label string
	// FullName is the long display name used in prose-style titles
	// ("Dell R620").
	FullName string
	// Aliases are extra lookup keys accepted by LookupPlatform (lower-case).
	Aliases []string
	// Micro marks sensor-class platforms (the paper's wimpy side); the
	// baseline pair is the first micro and first non-micro catalog entry.
	Micro bool

	Spec NodeSpec

	// UnitCost is the per-server purchase cost in USD (Table 9's Cs).
	UnitCost float64
	// MeterName names the power instrument metering a cluster of this
	// platform (the paper: a Mastech DC supply / an SNMP rack PDU).
	MeterName string

	Net    NetworkProfile
	Web    WebCosts
	Hadoop HadoopProfile
	Fleet  Fleet
	Boot   BootCosts

	// Energy is the component-level energy and carbon data behind the
	// TDPCurve power model and the embodied-carbon amortization
	// (PLATFORMS.md documents each figure's provenance). The paper's
	// calibrated linear model in Spec.Power stays the default; this block
	// only arms when a config selects PowerTDPCurve.
	Energy EnergyProfile
}

// BootCosts is the platform's provisioning calibration for elasticity:
// what it costs to bring a parked node into service. Values are
// sim-seconds on the same compressed timescale as the load profiles —
// what matters across platforms is the ratio (micro boards boot a minimal
// image in seconds; brawny servers pay BIOS/firmware POST measured in
// minutes), scaled so a compressed diurnal day still contains several
// boot opportunities. During Delay the node draws full busy power.
type BootCosts struct {
	// Delay is power-on → serving, seconds.
	Delay float64
	// Warmup is the cold-start window after joining the rotation, during
	// which the node runs at WarmupFactor speed (empty caches, cold JITs).
	Warmup float64
	// WarmupFactor is the speed factor while warming, in (0,1].
	WarmupFactor float64
}

// NetworkProfile describes how a cluster of this platform is cabled: hosts
// under optional leaf (per-box) switches under one root switch on the core.
// Delays are one-way propagation in seconds; they reproduce the paper's
// measured RTTs for the baseline pair (§4.4).
type NetworkProfile struct {
	// SwitchName is the root switch vertex ("edison-root", "dell-tor").
	SwitchName string
	// CoreUplink is the root switch's link to the core switch.
	CoreUplink units.BytesPerSec
	CoreDelay  float64
	// LeafFanout > 0 groups hosts into boxes of that many under leaf
	// switches named LeafPrefix+index; 0 attaches hosts to the root switch.
	LeafFanout      int
	LeafPrefix      string
	LeafUplink      units.BytesPerSec
	LeafUplinkDelay float64
	// AccessDelay is the host <-> (leaf or root) switch delay.
	AccessDelay float64
	// HostFormat is the fmt pattern for host vertex names ("edison%02d").
	HostFormat string
}

// WebCosts is the per-platform calibration of the §5.1 web-service model.
// CPU costs are single-core seconds; see internal/web for what each knob
// reproduces.
type WebCosts struct {
	BaseCPU        float64 // request parse + cache-lookup dispatch
	ReplyCPU       float64 // upstream reply handling + page assembly
	CacheClientCPU float64 // memcached/MySQL client unmarshal
	PerKBCPU       float64 // extra CPU per KB of reply body
	CacheGetCPU    float64 // memcached GET service time
	DBQueryCPU     float64 // MySQL per-query CPU (applies on DB-tier nodes)
	ConnRate       float64 // sustainable new-connection acceptance rate /s
	ReqRate        float64 // sustainable request admission rate /s
	MaxInflight    int     // per-server bound before 500s
}

// HadoopJobCosts is the per-(platform, workload) Hadoop calibration: MB per
// core-second rates and the fixed per-task-attempt overhead (§5.2).
type HadoopJobCosts struct {
	MapMBps             float64 // 0 for pi (fixed-work maps; see PiSamplesPerSec)
	ReduceMBps          float64
	TaskOverheadSeconds float64
}

// HadoopProfile is the platform's Hadoop deployment tuning (§5.2 lists these
// per platform) plus the per-workload cost table.
type HadoopProfile struct {
	BlockSize units.Bytes // HDFS block size (terasort equalizes separately)
	Replicas  int         // HDFS replication

	// Container sizes in MB: Small for plain per-file maps, Large for
	// combined-input / compute-heavy maps.
	SmallMapMemoryMB int
	LargeMapMemoryMB int
	ReduceMemoryMB   int
	AMMemoryMB       int
	// CombineSplit is the default CombineFileInputFormat split cap (the
	// deployment re-tunes it to one split per vcore at each cluster scale).
	CombineSplit units.Bytes

	// NodeManager capacity and JVM container startup time.
	NodeMemoryMB     int
	VCores           int
	ContainerStartup float64
	// DaemonMem is what datanode+nodemanager (plus OS) pin on a worker.
	DaemonMem units.Bytes
	// MasterPlatform names the platform hosting namenode+RM when this
	// platform cannot ("" = self-hosted master). The paper's Edison cluster
	// runs a Dell master because 1 GB cannot hold the daemons.
	MasterPlatform string

	// FullScaleTasks is one task slot per vcore of the paper-scale
	// cluster (70 on 35 Edisons, 24 on 2 Dells): pi's fixed map count and
	// terasort's reducer count, which the paper sizes identically (§5.2).
	FullScaleTasks int
	// PiSamplesPerSec is the platform's per-core Monte-Carlo sampling rate.
	PiSamplesPerSec float64

	// Jobs maps workload name -> calibrated rates.
	Jobs map[string]HadoopJobCosts
}

// Fleet is the platform's reference deployment for cross-platform scenario
// matrices: web/cache tier sizes and Hadoop slave count chosen so the fleet
// plays the same role the paper's clusters do (a rack-scale service tier).
type Fleet struct {
	Web, Cache int
	Slaves     int
}

// catalog is the ordered platform registry. The first micro and the first
// non-micro entry form the baseline pair (the paper's testbed).
var catalog = []*Platform{edisonPlatform(), dellR620Platform(), pi3Platform(), xeonModernPlatform()}

// Platforms returns all catalog entries in registration order.
func Platforms() []*Platform {
	out := make([]*Platform, len(catalog))
	copy(out, catalog)
	return out
}

// PlatformNames lists the catalog names in registration order (for CLI
// error messages and docs).
func PlatformNames() []string {
	out := make([]string, len(catalog))
	for i, p := range catalog {
		out[i] = p.Name
	}
	return out
}

// LookupPlatform resolves a platform by Name or alias, case-insensitively.
func LookupPlatform(name string) (*Platform, bool) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, p := range catalog {
		if strings.ToLower(p.Name) == key {
			return p, true
		}
		for _, a := range p.Aliases {
			if a == key {
				return p, true
			}
		}
	}
	return nil, false
}

// BaselinePair returns the paper's compared pair: the first micro entry and
// the first brawny entry of the catalog.
func BaselinePair() (micro, brawny *Platform) {
	for _, p := range catalog {
		if p.Micro && micro == nil {
			micro = p
		}
		if !p.Micro && brawny == nil {
			brawny = p
		}
	}
	if micro == nil || brawny == nil {
		panic("hw: catalog lacks a baseline pair")
	}
	return micro, brawny
}

// edisonPlatform is the Intel Edison micro server, entirely from the
// paper's measurements (Sections 3–6). This is the catalog's reference
// micro entry: every constant is cited in the spec and model packages.
func edisonPlatform() *Platform {
	return &Platform{
		Name:     "Edison",
		Label:    "Edison",
		FullName: "Edison",
		Aliases:  nil, // the name itself resolves case-insensitively
		Micro:    true,
		Spec:     EdisonSpec(),

		UnitCost:  120, // Table 9: device+breakout 68 + adapter 15 + SD/board 27 + switch share 10
		MeterName: "mastech-supply",

		Net: NetworkProfile{
			SwitchName:      "edison-root",
			CoreUplink:      units.Gbps(1), // the inter-room bottleneck (§5.1.1)
			CoreDelay:       0,
			LeafFanout:      7, // five boxes of seven (§3, Figure 1)
			LeafPrefix:      "edison-box",
			LeafUplink:      units.Gbps(1),
			LeafUplinkDelay: 0.05e-3,
			AccessDelay:     0.30e-3,
			HostFormat:      "edison%02d",
		},

		Web: WebCosts{
			// ≈5.2 core-ms per request at 1.5 KB replies: 24 servers at ≈86%
			// CPU serve ≈7.5k req/s (Figure 4 peak, §5.1.2).
			BaseCPU:        2.4e-3,
			ReplyCPU:       1.4e-3,
			CacheClientCPU: 1.0e-3,
			PerKBCPU:       0.16e-3,
			// Table 7: 4.61 ms cache delay at 480 req/s; cache servers near
			// 9% CPU at peak (§5.1.2).
			CacheGetCPU: 0.3e-3,
			DBQueryCPU:  1.1e-3,
			// Error onset just beyond 1024 conn/s over 24 servers (§5.1.2).
			ConnRate:    45,
			ReqRate:     400,
			MaxInflight: 96,
		},

		Hadoop: HadoopProfile{
			BlockSize:        16 * units.MB,
			Replicas:         2,
			SmallMapMemoryMB: 150,
			LargeMapMemoryMB: 300,
			ReduceMemoryMB:   300,
			AMMemoryMB:       100,
			CombineSplit:     15 * units.MB,
			NodeMemoryMB:     600,
			VCores:           2,
			ContainerStartup: 12.0, // ≈45 s trace ramp before CPU rises (§5.2.1)
			DaemonMem:        360 * units.MB,
			MasterPlatform:   "DellR620", // 1 GB cannot host RM+namenode (§5.2)
			FullScaleTasks:   70,
			PiSamplesPerSec:  0.97e6,
			Jobs: map[string]HadoopJobCosts{
				"wordcount":  {MapMBps: 0.30, ReduceMBps: 0.24, TaskOverheadSeconds: 26},
				"wordcount2": {MapMBps: 0.26, ReduceMBps: 0.40, TaskOverheadSeconds: 24},
				"logcount":   {MapMBps: 0.70, ReduceMBps: 0.50, TaskOverheadSeconds: 20},
				"logcount2":  {MapMBps: 0.60, ReduceMBps: 0.50, TaskOverheadSeconds: 16},
				"terasort":   {MapMBps: 1.5, ReduceMBps: 0.70, TaskOverheadSeconds: 20},
				"pi":         {ReduceMBps: 1, TaskOverheadSeconds: 10},
			},
		},

		Fleet: Fleet{Web: 24, Cache: 11, Slaves: 35},
		// Minimal Yocto image over a slow eMMC: quick to boot, slow to warm.
		Boot: BootCosts{Delay: 2, Warmup: 3, WarmupFactor: 0.6},

		// Atom-class "Tangier" SoC at ≈1 W scenario design power; the USB
		// Ethernet adapter is the fixed board draw (Table 3 measures it
		// bigger than the SoC). Board-scale embodied footprint.
		Energy: EnergyProfile{
			TDPWatts:         1.0,
			MemWattsPerGB:    0.38,
			Disks:            1,
			DiskWatts:        0.1, // microSD
			FixedWatts:       1.0, // USB Ethernet adapter
			PSUOverhead:      0.10,
			EmbodiedKgCO2e:   15,
			ServiceLifeYears: 3,
		},
	}
}

// dellR620Platform is the Dell PowerEdge R620, the paper's brawny side.
func dellR620Platform() *Platform {
	return &Platform{
		Name:     "DellR620",
		Label:    "Dell",
		FullName: "Dell R620",
		Aliases:  []string{"dell", "r620", "dell-r620"},
		Micro:    false,
		Spec:     DellR620Spec(),

		UnitCost:  2500, // §3.1
		MeterName: "rack-pdu",

		Net: NetworkProfile{
			SwitchName:  "dell-tor",
			CoreUplink:  units.Gbps(10),
			CoreDelay:   0,
			LeafFanout:  0, // hosts directly under the ToR
			AccessDelay: 0.06e-3,
			HostFormat:  "dell%d",
		},

		Web: WebCosts{
			// ≈1.4 core-ms per request: 2 servers plateau near 7.5k req/s at
			// only ≈45% CPU — admission-limited, not CPU-limited (§5.1.2).
			BaseCPU:        0.55e-3,
			ReplyCPU:       0.50e-3,
			CacheClientCPU: 0.05e-3,
			PerKBCPU:       0.018e-3,
			CacheGetCPU:    0.06e-3,
			DBQueryCPU:     1.1e-3, // Table 7: ≈1.6 ms DB delay at low load
			ConnRate:       560,    // error onset beyond 2048 conn/s over 2 servers
			ReqRate:        4200,
			MaxInflight:    1024,
		},

		Hadoop: HadoopProfile{
			BlockSize:        64 * units.MB,
			Replicas:         1,
			SmallMapMemoryMB: 500,
			LargeMapMemoryMB: 1024,
			ReduceMemoryMB:   1024,
			AMMemoryMB:       500,
			CombineSplit:     44 * units.MB,
			NodeMemoryMB:     12 * 1024,
			VCores:           12,
			ContainerStartup: 2.5, // ≈20 s trace ramp (§5.2.1)
			DaemonMem:        4 * units.GB,
			MasterPlatform:   "", // self-hosted master
			FullScaleTasks:   24,
			PiSamplesPerSec:  13e6,
			Jobs: map[string]HadoopJobCosts{
				"wordcount":  {MapMBps: 2.2, ReduceMBps: 1.5, TaskOverheadSeconds: 12},
				"wordcount2": {MapMBps: 2.0, ReduceMBps: 2.0, TaskOverheadSeconds: 10},
				"logcount":   {MapMBps: 4.5, ReduceMBps: 4.0, TaskOverheadSeconds: 6.5},
				"logcount2":  {MapMBps: 3.2, ReduceMBps: 4.0, TaskOverheadSeconds: 10},
				"terasort":   {MapMBps: 8.0, ReduceMBps: 6.0, TaskOverheadSeconds: 8},
				"pi":         {ReduceMBps: 8, TaskOverheadSeconds: 4},
			},
		},

		Fleet: Fleet{Web: 2, Cache: 1, Slaves: 2},
		// Server-class BIOS/RAID POST dominates: 5× the Edison delay on the
		// compressed timescale (minutes vs seconds in real fleets).
		Boot: BootCosts{Delay: 10, Warmup: 4, WarmupFactor: 0.7},

		// Xeon E5-2620 published TDP 95 W; one 15K SAS spindle at the HDD
		// class draw; fans/baseboard/RAID as fixed draw. Rack-server-class
		// embodied footprint (Dell LCA reports ≈1 tCO2e manufacturing).
		Energy: EnergyProfile{
			TDPWatts:         95,
			MemWattsPerGB:    0.38,
			Disks:            1,
			DiskWatts:        7.5, // HDD
			FixedWatts:       20,
			PSUOverhead:      0.08,
			EmbodiedKgCO2e:   1000,
			ServiceLifeYears: 3,
		},
	}
}

// pi3Platform is the Raspberry Pi 3 Model B: a catalog entry beyond the
// paper's testbed, calibrated from published data (ARM's 2.3 DMIPS/MHz
// Cortex-A53 figure, measured STREAM bandwidth, the Foundation's $35 list
// price and published idle/load power measurements — PLATFORMS.md cites
// each). Per-core ≈4.3× an Edison core; the same 100 Mbps NIC class and
// SD-card storage keep it in the paper's sensor-class envelope.
func pi3Platform() *Platform {
	return &Platform{
		Name:     "RPi3",
		Label:    "Pi3",
		FullName: "Raspberry Pi 3",
		Aliases:  []string{"pi3", "raspberry-pi-3"},
		Micro:    true,
		Spec: NodeSpec{
			Name: "RPi3",
			CPU: CPUSpec{
				Cores:   4,
				Clock:   1200,
				DMIPS:   2760, // ≈2.3 DMIPS/MHz Cortex-A53
				Threads: 4,
				HTYield: 0,
			},
			Mem: MemSpec{
				Capacity: 1 * units.GB,
				// Measured STREAM-class copy rate on the 32-bit LPDDR2-900
				// bus (~60% of the 3.6 GB/s nameplate), per the published
				// RPi3 memory benchmarks cited in PLATFORMS.md.
				Bandwidth:         units.BytesPerSec(2.2 * float64(units.GBps)),
				ClockMHz:          900,
				SaturationThreads: 4,
			},
			Disk: DiskSpec{ // class-10 microSD
				Write:        units.BytesPerSec(10 * float64(units.MBps)),
				BufWrite:     units.BytesPerSec(18 * float64(units.MBps)),
				Read:         units.BytesPerSec(22 * float64(units.MBps)),
				BufRead:      units.BytesPerSec(900 * float64(units.MBps)),
				WriteLatency: 14.0e-3,
				ReadLatency:  5.0e-3,
				Capacity:     32 * units.GB,
			},
			NIC: NICSpec{ // built-in 100 Mbps (USB-attached internally)
				Bandwidth:  units.Mbps(100),
				TCPGoodput: units.Mbps(94.1),
				UDPGoodput: units.Mbps(95.0),
			},
			// Published board measurements: ≈1.4 W idle (≈270 mA at 5.1 V),
			// ≈3.7 W under full CPU load (≈730 mA). No external adapter.
			Power: PowerSpec{Idle: 1.4, Busy: 3.7},
			Cost:  55,
		},

		UnitCost:  55, // board 35 + PSU/SD/switch share 20
		MeterName: "pi3-supply",

		Net: NetworkProfile{
			SwitchName:      "pi3-root",
			CoreUplink:      units.Gbps(1),
			CoreDelay:       0,
			LeafFanout:      8, // shelves of eight
			LeafPrefix:      "pi3-shelf",
			LeafUplink:      units.Gbps(1),
			LeafUplinkDelay: 0.05e-3,
			AccessDelay:     0.25e-3,
			HostFormat:      "pi3-%02d",
		},

		Web: WebCosts{
			// Edison web costs scaled by the ≈4.3× per-core gap, with the
			// same thread/port ceilings scaled by core count.
			BaseCPU:        0.65e-3,
			ReplyCPU:       0.40e-3,
			CacheClientCPU: 0.28e-3,
			PerKBCPU:       0.045e-3,
			CacheGetCPU:    0.09e-3,
			DBQueryCPU:     1.1e-3,
			ConnRate:       120,
			ReqRate:        1000,
			MaxInflight:    256,
		},

		Hadoop: HadoopProfile{
			BlockSize:        32 * units.MB,
			Replicas:         2,
			SmallMapMemoryMB: 150,
			LargeMapMemoryMB: 300,
			ReduceMemoryMB:   300,
			AMMemoryMB:       100,
			CombineSplit:     20 * units.MB,
			NodeMemoryMB:     700, // 1 GB minus OS + daemons
			VCores:           4,
			ContainerStartup: 5.0,
			DaemonMem:        360 * units.MB,
			MasterPlatform:   "DellR620", // 1 GB: same hybrid-master constraint
			FullScaleTasks:   48,
			PiSamplesPerSec:  4.2e6,
			Jobs: map[string]HadoopJobCosts{
				// Edison rates scaled by ≈3.3× (Java/I/O paths close less of
				// the gap than raw DMIPS, as the paper observes for Edison
				// vs Dell), overheads shrunk by the faster cores.
				"wordcount":  {MapMBps: 1.0, ReduceMBps: 0.80, TaskOverheadSeconds: 10},
				"wordcount2": {MapMBps: 0.90, ReduceMBps: 1.3, TaskOverheadSeconds: 9},
				"logcount":   {MapMBps: 2.2, ReduceMBps: 1.7, TaskOverheadSeconds: 8},
				"logcount2":  {MapMBps: 2.0, ReduceMBps: 1.7, TaskOverheadSeconds: 7},
				"terasort":   {MapMBps: 4.5, ReduceMBps: 2.2, TaskOverheadSeconds: 8},
				"pi":         {ReduceMBps: 3, TaskOverheadSeconds: 5},
			},
		},

		Fleet: Fleet{Web: 8, Cache: 4, Slaves: 12},
		// SD-card Linux boot: board-class delay, Edison-class warm-up.
		Boot: BootCosts{Delay: 3, Warmup: 3, WarmupFactor: 0.6},

		// BCM2837 package power under sustained load (no official TDP is
		// published; ≈2.5 W reproduces the measured 1.4→3.7 W board
		// envelope once LPDDR2, SD and the USB/LAN bridge are added).
		Energy: EnergyProfile{
			TDPWatts:         2.5,
			MemWattsPerGB:    0.38,
			Disks:            1,
			DiskWatts:        0.1, // microSD
			FixedWatts:       0.5, // USB hub + LAN9514 bridge
			PSUOverhead:      0.10,
			EmbodiedKgCO2e:   20,
			ServiceLifeYears: 3,
		},
	}
}

// xeonModernPlatform is a modern high-core-count Xeon server, anchored to
// the published Intel Xeon Gold 6248R datasheet (24C/48T at 3.0 GHz base,
// 205 W TDP, six DDR4-2933 channels, $2700 list) in a single-socket 1U
// chassis; PLATFORMS.md cites each figure. The brawny end-point for
// cross-platform scenarios.
func xeonModernPlatform() *Platform {
	return &Platform{
		Name:     "XeonModern",
		Label:    "Xeon",
		FullName: "modern Xeon (Gold 6248R class)",
		Aliases:  []string{"xeon-modern", "xeon"},
		Micro:    false,
		Spec: NodeSpec{
			Name: "XeonModern",
			CPU: CPUSpec{
				Cores:   24,
				Clock:   3000,  // 6248R base clock
				DMIPS:   32000, // ≈10.7 DMIPS/MHz server-core estimate
				Threads: 48,
				HTYield: 0.30,
			},
			Mem: MemSpec{
				Capacity: 128 * units.GB,
				// Published single-socket STREAM triad for six DDR4-2933
				// channels (≈75% of the 140.8 GB/s nameplate).
				Bandwidth:         units.BytesPerSec(105 * float64(units.GBps)),
				ClockMHz:          2933,
				SaturationThreads: 48,
			},
			Disk: DiskSpec{ // datacenter NVMe
				Write:        units.BytesPerSec(1.2 * float64(units.GBps)),
				BufWrite:     units.BytesPerSec(2.0 * float64(units.GBps)),
				Read:         units.BytesPerSec(2.5 * float64(units.GBps)),
				BufRead:      units.BytesPerSec(8.0 * float64(units.GBps)),
				WriteLatency: 0.05e-3,
				ReadLatency:  0.08e-3,
				Capacity:     2 * units.TB,
			},
			NIC: NICSpec{
				Bandwidth:  units.Gbps(10),
				TCPGoodput: units.Gbps(9.4),
				UDPGoodput: units.Gbps(9.6),
			},
			// Wall endpoints derived from the published 205 W TDP through
			// the Boavizta 12%/102%-of-TDP mapping plus 0.38 W/GB DRAM,
			// one NVMe SSD and fan/board draw at 90% PSU efficiency —
			// the same component model the TDPCurve uses (PLATFORMS.md).
			Power: PowerSpec{Idle: 122, Busy: 325},
			Cost:  9000,
		},

		UnitCost:  9000,
		MeterName: "xeon-pdu",

		Net: NetworkProfile{
			SwitchName:  "xeon-tor",
			CoreUplink:  units.Gbps(40),
			CoreDelay:   0,
			LeafFanout:  0,
			AccessDelay: 0.03e-3,
			HostFormat:  "xeon%d",
		},

		Web: WebCosts{
			// ≈3× the R620 per-core speed with 48 hardware threads; the
			// kernel connection/thread-churn ceilings rise with core count
			// but remain the binding constraint, as on the R620.
			BaseCPU:        0.18e-3,
			ReplyCPU:       0.16e-3,
			CacheClientCPU: 0.015e-3,
			PerKBCPU:       0.006e-3,
			CacheGetCPU:    0.02e-3,
			DBQueryCPU:     0.4e-3,
			ConnRate:       2200,
			ReqRate:        16000,
			MaxInflight:    4096,
		},

		Hadoop: HadoopProfile{
			BlockSize:        128 * units.MB,
			Replicas:         1,
			SmallMapMemoryMB: 1024,
			LargeMapMemoryMB: 2048,
			ReduceMemoryMB:   2048,
			AMMemoryMB:       1024,
			CombineSplit:     128 * units.MB,
			NodeMemoryMB:     96 * 1024,
			VCores:           48,
			ContainerStartup: 1.2,
			DaemonMem:        6 * units.GB,
			MasterPlatform:   "",
			FullScaleTasks:   48,
			PiSamplesPerSec:  40e6,
			Jobs: map[string]HadoopJobCosts{
				"wordcount":  {MapMBps: 6.5, ReduceMBps: 4.5, TaskOverheadSeconds: 4},
				"wordcount2": {MapMBps: 6.0, ReduceMBps: 6.0, TaskOverheadSeconds: 3.5},
				"logcount":   {MapMBps: 13, ReduceMBps: 12, TaskOverheadSeconds: 2.5},
				"logcount2":  {MapMBps: 9.5, ReduceMBps: 12, TaskOverheadSeconds: 3.5},
				"terasort":   {MapMBps: 24, ReduceMBps: 18, TaskOverheadSeconds: 3},
				"pi":         {ReduceMBps: 24, TaskOverheadSeconds: 1.5},
			},
		},

		Fleet: Fleet{Web: 1, Cache: 1, Slaves: 1},
		// Longest POST of the catalog — the amortization end-point: one huge
		// box that cannot scale in anyway (Fleet.Web is 1).
		Boot: BootCosts{Delay: 15, Warmup: 5, WarmupFactor: 0.7},

		// Published 6248R TDP; one datacenter NVMe drive at the SSD class
		// draw; fans/BMC/baseboard as fixed draw. Rack-server LCA-class
		// embodied footprint, heavier than the R620 for the larger DIMM
		// population.
		Energy: EnergyProfile{
			TDPWatts:         205,
			MemWattsPerGB:    0.38,
			Disks:            1,
			DiskWatts:        3.0, // SSD
			FixedWatts:       35,
			PSUOverhead:      0.10,
			EmbodiedKgCO2e:   1300,
			ServiceLifeYears: 3,
		},
	}
}
