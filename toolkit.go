package edisim

import (
	"edisim/internal/cluster"
	"edisim/internal/core"
	"edisim/internal/hdfs"
	"edisim/internal/hw"
	"edisim/internal/jobs"
	"edisim/internal/mapred"
	"edisim/internal/tco"
	"edisim/internal/units"
	"edisim/internal/web"
)

// This file is the composition toolkit: typed access to the simulation
// substrate for programs that need more than a declarative Scenario —
// custom testbeds, direct web deployments, HDFS failure injection, the TCO
// model and the functional MapReduce executor. Everything aliases internal
// types, so external consumers never import edisim/internal/...; the
// Scenario API (edisim.go) remains the front door for measurements.

// --- Units -----------------------------------------------------------------

// Bytes is a byte count; BytesPerSec a rate; Watts and Joules power and
// energy.
type (
	Bytes       = units.Bytes
	BytesPerSec = units.BytesPerSec
	Watts       = units.Watts
	Joules      = units.Joules
)

// Byte-size constants for building workloads and testbeds.
const (
	KB = units.KB
	MB = units.MB
	GB = units.GB
	TB = units.TB
)

// --- Testbeds --------------------------------------------------------------

// Node is one simulated machine (CPU scheduler, memory, disk, power model).
type Node = hw.Node

// Testbed is a full experimental setup — per-platform node groups, the
// infrastructure tier, one engine and one network fabric.
type Testbed = cluster.Testbed

// ClusterConfig sizes a testbed; ClusterGroup is one platform's node group.
type (
	ClusterConfig = cluster.Config
	ClusterGroup  = cluster.GroupConfig
)

// NewTestbed builds a testbed on a fresh simulation engine.
func NewTestbed(cfg ClusterConfig) *Testbed { return cluster.New(cfg) }

// PaperTestbedConfig is the paper's full setup: 35 Edisons, 3 Dells, 2
// database servers, 8 client machines.
func PaperTestbedConfig() ClusterConfig { return cluster.DefaultConfig() }

// --- Web deployments -------------------------------------------------------

// WebTier sizes a web testbed: NWeb web servers on the Web platform and
// NCache cache servers on the Cache platform, in front of DBNodes database
// servers and Clients load generators. tier.Build(PowerLinear, nil, seed)
// builds it on a fresh testbed without checking it; tier.Validate reports
// the sizes Build cannot take.
type WebTier = web.Tier

// WebScale is one row of the paper's Table 6 scale ladder: the compared
// platforms' tiers at one scale factor, by position — Tiers[0] is the
// micro tier and Tiers[1], in the rows that have one, the brawny tier.
type WebScale = web.Scale

// Table6 returns the paper's web cluster scale configurations over the
// baseline pair, each tier in front of 2 database servers and 8 clients.
func Table6() []WebScale { return web.Table6(hw.BaselinePair()) }

// WebDeployment is the paper's LLMP middle tier (Lighttpd + memcached +
// MySQL behind HAProxy) deployed on a testbed.
type WebDeployment = web.Deployment

// WebRunConfig drives one httperf measurement; WebResult is its outcome.
type (
	WebRunConfig = web.RunConfig
	WebResult    = web.Result
)

// --- MapReduce -------------------------------------------------------------

// JobResult is a simulated Hadoop run: duration, energy, task counts and
// the 1 Hz utilization/power/progress series.
type JobResult = mapred.JobResult

// RunJob simulates one named Hadoop job (see JobNames) on a cluster of
// `slaves` workers of platform p, staging input and running YARN, HDFS and
// the shuffle in full.
func RunJob(job string, p *Platform, slaves int, seed int64) (*JobResult, error) {
	return jobs.Run(job, p, slaves, seed, hw.PowerLinear, nil)
}

// TraceFigure converts a JobResult's sampled series (CPU/memory/progress/
// power at the 1 Hz power sample times) into a figure — the paper's
// Figure 12–17 shape.
func TraceFigure(name string, r *JobResult) *Figure { return core.TraceFigure(name, r) }

// JobDef is a runnable MapReduce program definition; LocalResult is what
// the in-process functional executor reports.
type (
	JobDef      = mapred.JobDef
	LocalResult = mapred.LocalResult
)

// WordcountJob builds the paper's wordcount program (real map/reduce
// functions over real records) for functional checks with LocalRun.
func WordcountJob(reduces int, p *Platform) *JobDef { return jobs.Wordcount(reduces, p) }

// LocalRun executes a JobDef functionally in-process: real records through
// the map, combine, shuffle and reduce phases, no simulation.
func LocalRun(job *JobDef, inputs map[string][]string) (*LocalResult, error) {
	return mapred.LocalRun(job, inputs)
}

// GenerateTextLines returns deterministic pseudo-text input for functional
// MapReduce runs.
func GenerateTextLines(seed int64, lines, wordsPerLine int) []string {
	return jobs.GenerateTextLines(seed, lines, wordsPerLine)
}

// --- HDFS ------------------------------------------------------------------

// FileSystem is the simulated HDFS namespace (placement, replication,
// re-replication on failure); HDFSDataNode is one datanode's state.
type (
	FileSystem   = hdfs.FileSystem
	HDFSDataNode = hdfs.DataNode
)

// NewHDFS builds a filesystem over the given datanodes, with the master
// (namenode) on the named testbed vertex.
func NewHDFS(tb *Testbed, master string, datanodes []*Node, blockSize Bytes, replication int, seed int64) *FileSystem {
	return hdfs.New(tb.Fab, master, datanodes, blockSize, replication, seed)
}

// --- TCO -------------------------------------------------------------------

// TCOInputs parameterizes the paper's 3-year cost model (Equation 1);
// TCOResult is the equipment + electricity split it produces.
type (
	TCOInputs = tco.Inputs
	TCOResult = tco.Result
)

// TCOScenario is one published Table 10 row: a named micro-vs-brawny
// comparison.
type TCOScenario = tco.Scenario

// TCOForPlatform builds cost-model inputs for n nodes of platform p at the
// given utilization, at the paper's Table 9 pricing (linear power
// endpoints, $0.10/kWh, no facility overhead or carbon).
func TCOForPlatform(p *Platform, n int, utilization float64) TCOInputs {
	return tco.Pricing{}.Inputs(p, n, utilization)
}

// ComputeTCO evaluates the cost model. Invalid inputs — a non-positive
// server count, utilization outside [0,1], negative costs — return an
// error rather than panicking or pricing a negative fleet.
func ComputeTCO(in TCOInputs) (TCOResult, error) { return tco.Compute(in) }

// SizeFleetForBudget reports the largest fleet of platform p whose 3-year
// TCO at the given utilization fits within budgetUSD — the equal-spend
// sizing behind the paper's 35-Edisons-vs-3-Dells comparison (§6), priced
// as TCOForPlatform prices. Zero means one server already exceeds the
// budget.
func SizeFleetForBudget(p *Platform, budgetUSD, utilization float64) (int, error) {
	return tco.Pricing{}.Size(p, budgetUSD, utilization)
}

// TCOTable10 returns the paper's four published TCO scenarios over the
// baseline pair.
func TCOTable10() []TCOScenario { return tco.Table10(hw.BaselinePair()) }
