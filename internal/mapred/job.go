// Package mapred implements the MapReduce execution engine used for the
// paper's §5.2 experiments: input splits (per-file and combined à la
// CombineFileInputFormat), YARN container scheduling, the
// map→combine→spill→shuffle→sort→reduce pipeline with real byte accounting
// through the HDFS/network/disk models, and per-phase progress tracking
// (Figures 12–17).
//
// The engine separates semantics from timing: LocalRun executes a job's
// real Map/Reduce functions on real records (functional correctness —
// wordcount counts, terasort sorts), while Cluster.Run plays the same job
// through the discrete-event simulation with calibrated per-platform cost
// models (timing and energy — Table 8).
package mapred

import (
	"fmt"
	"math"

	"edisim/internal/hw"
	"edisim/internal/units"
)

// KV is one key/value record.
type KV struct {
	Key, Value string
}

// MapFunc consumes one input record and emits intermediate pairs.
type MapFunc func(record string, emit func(k, v string))

// ReduceFunc folds all values of one key and emits output pairs.
type ReduceFunc func(key string, values []string, emit func(k, v string))

// CostModel carries the calibrated rates for a job on the worker platform
// it runs on (internal/jobs resolves it from the platform's Hadoop profile).
// Rates are per container running on one dedicated core; oversubscription
// slowdowns (4 containers on 2 Edison cores, 24 on ≈11 Dell
// core-equivalents) emerge from the processor-sharing CPU model. On a
// homogeneous cluster JobDef.Cost is the whole story; mixed-platform slave
// sets add per-platform rate overrides via JobDef.PlatformCosts, resolved
// per container node at run time.
type CostModel struct {
	// MapMBps is map-function throughput over its split, MB per core-second.
	MapMBps float64
	// MapFixedSeconds, when positive, replaces the rate model (pi estimation
	// has no meaningful input bytes).
	MapFixedSeconds float64
	// ReduceMBps is sort+merge+reduce throughput over shuffled bytes.
	ReduceMBps float64
	// OutputRatio is map-output bytes per input byte before the combiner.
	OutputRatio float64
	// CombineRatio scales map output when the job's combiner runs (1 = no
	// combiner configured, as in the original wordcount).
	CombineRatio float64
	// ReduceOutputRatio is final-output bytes per shuffled byte.
	ReduceOutputRatio float64
	// TaskOverheadSeconds is the fixed wall-clock cost of every task
	// attempt beyond the JVM launch: scheduler round-trips, split
	// localization, task setup/commit. This is what makes 200 tiny maps so
	// much more expensive than 24 big ones (§5.2.1's container-allocation
	// overhead, the original-vs-optimized wordcount gap).
	TaskOverheadSeconds float64
}

// JobDef is a complete MapReduce job description.
type JobDef struct {
	Name string

	// Inputs are HDFS file names (already written).
	Inputs []string

	NumReduces int

	// CombineInput merges small files into splits of at most MaxSplitSize
	// (the wordcount2/logcount2 optimization).
	CombineInput bool
	MaxSplitSize units.Bytes

	// UseCombiner runs the reducer as a combiner on map output.
	UseCombiner bool

	// MapMemoryMB / ReduceMemoryMB / AMMemoryMB are the YARN container
	// sizes (§5.2 lists them for every job and platform).
	MapMemoryMB, ReduceMemoryMB, AMMemoryMB int

	Cost CostModel

	// PlatformCosts overrides Cost's compute rates per worker platform
	// (keyed by the node's Platform, so two platforms that share a spec
	// name keep their own rates) for mixed-platform slave sets: a task's
	// map/reduce rate, fixed map seconds and per-attempt overhead follow
	// the node its container lands on. The byte-shape ratios (OutputRatio,
	// CombineRatio, ReduceOutputRatio) are properties of the workload, not
	// the platform, and always come from Cost. Nil on the paper's
	// homogeneous clusters.
	PlatformCosts map[*hw.Platform]CostModel

	// FT enables failure recovery for the job: task-attempt watchdogs,
	// re-execution, node blacklisting and (optionally) speculative backup
	// attempts. Nil (the default) runs the pre-fault-injection engine with a
	// byte-identical event stream; a healthy cluster never needs it, a
	// faulty one deadlocks without it.
	FT *FaultTolerance

	// Functional implementations for LocalRun.
	Map    MapFunc
	Reduce ReduceFunc
}

// FaultTolerance is the job's recovery policy, mirroring the Hadoop knobs
// that matter for availability-under-failure: mapreduce.task.timeout,
// mapreduce.map/reduce.maxattempts, the AM's node blacklisting threshold and
// speculative execution.
type FaultTolerance struct {
	// TaskTimeout declares a task attempt dead when it has not completed
	// this many seconds after its container was granted. Required (> 0): it
	// is the only way a task stranded on a crashed node is ever noticed.
	TaskTimeout float64
	// MaxAttempts bounds attempts per task before the whole job fails
	// (0 = 4, Hadoop's default).
	MaxAttempts int
	// BlacklistAfter excludes a node from further placement once this many
	// attempts have failed on it for reasons other than a detected crash
	// (0 = 3, mirroring yarn.app.mapreduce.am.job.node-blacklisting).
	BlacklistAfter int
	// Speculative launches one backup attempt for a straggling map task
	// (running > 2× the mean completed-map duration once half the maps are
	// done); the first attempt to finish wins, the loser is killed.
	Speculative bool
}

// withDefaults fills the Hadoop-default knobs.
func (ft FaultTolerance) withDefaults() FaultTolerance {
	if ft.MaxAttempts == 0 {
		ft.MaxAttempts = 4
	}
	if ft.BlacklistAfter == 0 {
		ft.BlacklistAfter = 3
	}
	return ft
}

// Validate rejects the silent-failure values: a zero, negative or non-finite
// timeout would disable the only crash detector without saying so.
func (ft *FaultTolerance) Validate() error {
	if ft == nil {
		return nil
	}
	if math.IsNaN(ft.TaskTimeout) || math.IsInf(ft.TaskTimeout, 0) || ft.TaskTimeout <= 0 {
		return fmt.Errorf("mapred: task timeout %g must be positive and finite", ft.TaskTimeout)
	}
	if ft.MaxAttempts < 0 {
		return fmt.Errorf("mapred: max attempts %d must be non-negative", ft.MaxAttempts)
	}
	if ft.BlacklistAfter < 0 {
		return fmt.Errorf("mapred: blacklist threshold %d must be non-negative", ft.BlacklistAfter)
	}
	return nil
}

// rates resolves the compute-rate model for a container on node n: the
// per-platform override when the slave set is mixed, Cost otherwise.
func (j *JobDef) rates(n *hw.Node) CostModel {
	if c, ok := j.PlatformCosts[n.Platform]; ok {
		return c
	}
	return j.Cost
}

// Validate reports a configuration error, if any.
func (j *JobDef) Validate() error {
	switch {
	case j.Name == "":
		return errString("job needs a name")
	case len(j.Inputs) == 0:
		return errString("job needs inputs")
	case j.NumReduces <= 0:
		return errString("job needs reducers")
	case j.CombineInput && j.MaxSplitSize <= 0:
		return errString("combined input needs MaxSplitSize")
	case j.MapMemoryMB <= 0 || j.ReduceMemoryMB <= 0 || j.AMMemoryMB <= 0:
		return errString("job needs container memory sizes")
	}
	return j.FT.Validate()
}

type errString string

func (e errString) Error() string { return string(e) }

// partition assigns a key to a reducer, Hadoop's default hash partitioner.
func partition(key string, numReduces int) int {
	var h uint32 = 0
	for i := 0; i < len(key); i++ {
		h = h*31 + uint32(key[i])
	}
	return int(h%uint32(numReduces)+uint32(numReduces)) % numReduces
}
