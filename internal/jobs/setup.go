package jobs

import (
	"errors"
	"fmt"
	"slices"

	"edisim/internal/cluster"
	"edisim/internal/faults"
	"edisim/internal/hw"
	"edisim/internal/mapred"
	"edisim/internal/sim"
	"edisim/internal/units"
)

// Hadoop configuration from §5.2: block size and replication live in each
// platform's catalog entry, chosen so clusters see ≈95% data-local maps;
// terasort equalizes block size across platforms for fairness.
const TeraBlockSize = 64 * units.MB

// SlaveGroup sizes one platform's share of a Hadoop slave set. A
// deployment built from several groups is the mixed-platform cluster the
// paper could not build (its hybrid stops at a Dell master over Edison
// slaves): YARN places containers against each node's own platform
// capacity, and task rates resolve per slave platform.
type SlaveGroup struct {
	Platform *hw.Platform
	Nodes    int
}

// Hadoop is a ready-to-run deployment: cluster + staged inputs.
type Hadoop struct {
	*mapred.Cluster
	// Platform is the primary (first-group) platform: cluster-global job
	// tuning — block size, replication, container memory sizes, reducer
	// scaling — follows it, exactly as one mapred-site.xml governs a real
	// mixed cluster.
	Platform *hw.Platform
	// Slaves is the total worker count across all groups.
	Slaves int
	// Groups is the slave set; a single entry is the paper's homogeneous
	// deployment.
	Groups []SlaveGroup
}

// NewHadoop builds a homogeneous Hadoop deployment of n slaves on platform
// p with the paper's linear power model — one-group shorthand for
// NewHadoopGroups.
func NewHadoop(p *hw.Platform, n int, blockSize units.Bytes, seed int64) (*Hadoop, error) {
	return NewHadoopGroups([]SlaveGroup{{Platform: p, Nodes: n}}, blockSize, seed, hw.PowerLinear)
}

// MasterGroupIndex reports which slave group's platform hosts the
// namenode + ResourceManager as one extra node of that group: the first
// group able to self-host (catalog MasterPlatform empty). -1 means no
// group can, and NewHadoopGroups deploys the first group's catalog-named
// master platform as its own extra group — the paper's hybrid.
func MasterGroupIndex(groups []SlaveGroup) int {
	for i, g := range groups {
		if g.Platform != nil && g.Platform.Hadoop.MasterPlatform == "" {
			return i
		}
	}
	return -1
}

// CheckJob reports whether job is one of Names().
func CheckJob(job string) error {
	if !slices.Contains(Names(), job) {
		return fmt.Errorf("unknown job %q (valid: %v)", job, Names())
	}
	return nil
}

// Validate reports why job cannot run on groups, or nil. It owns every
// slave-set rule: the job is known, there is at least one group, each
// group has a platform and a positive node count, no platform repeats, a
// hybrid's master platform is in the catalog, each group stays within
// cluster.MaxGroupNodes, counting the self-hosted master (MasterGroupIndex)
// as one more node of its group, and no two group platforms, a hybrid's
// master included, share network names (cluster.CheckNames). RunGroups
// and RunGroupsFaulty call it; callers with input from outside the
// program call it to fail early.
func Validate(job string, groups []SlaveGroup) error {
	if err := CheckJob(job); err != nil {
		return err
	}
	_, err := masterFor(groups)
	return err
}

// masterFor checks the slave set against every Validate rule but the job
// name and returns the platform that hosts the master.
func masterFor(groups []SlaveGroup) (*hw.Platform, error) {
	if len(groups) == 0 {
		return nil, errors.New("needs at least one slave group")
	}
	plats := make([]*hw.Platform, 0, len(groups)+1)
	for i, g := range groups {
		if g.Platform == nil {
			return nil, fmt.Errorf("slave group %d without a platform (each group needs an explicit platform)", i)
		}
		if g.Nodes <= 0 {
			return nil, fmt.Errorf("slave group %d (%s) needs a positive node count (got %d)", i, g.Platform.Name, g.Nodes)
		}
		if slices.Contains(plats, g.Platform) {
			return nil, fmt.Errorf("duplicate slave group for %s", g.Platform.Name)
		}
		plats = append(plats, g.Platform)
	}
	self := MasterGroupIndex(groups)
	for i, g := range groups {
		n, detail := g.Nodes, fmt.Sprintf("%d slaves", g.Nodes)
		if i == self {
			n, detail = n+1, detail+" plus the self-hosted master"
		}
		if n > cluster.MaxGroupNodes {
			return nil, fmt.Errorf("%s group of %s exceeds the %d-node group cap", g.Platform.Name, detail, cluster.MaxGroupNodes)
		}
	}
	if self >= 0 {
		return groups[self].Platform, cluster.CheckNames(plats)
	}
	mp := groups[0].Platform.Hadoop.MasterPlatform
	master, ok := hw.LookupPlatform(mp)
	if !ok {
		return nil, fmt.Errorf("%s names unknown master platform %q", groups[0].Platform.Name, mp)
	}
	return master, cluster.CheckNames(append(plats, master))
}

// NewHadoopGroups builds a Hadoop deployment over a (possibly mixed) slave
// set. The master is the first group platform able to host namenode +
// ResourceManager (micro servers cannot, §5.2), deployed as one extra node
// of that platform; when no group platform can, the first group's catalog
// MasterPlatform hosts it — the paper's hybrid configuration. HDFS
// placement, YARN capacities and container startup times all resolve per
// node from its platform, so a hybrid Edison+Dell slave set schedules
// exactly like the real thing would. energy selects the power model armed
// on every node, slaves and master alike (the zero value is the paper's
// linear model). A slave
// set that breaks a Validate rule is an error.
func NewHadoopGroups(groups []SlaveGroup, blockSize units.Bytes, seed int64, energy hw.PowerModelKind) (*Hadoop, error) {
	masterPlat, err := masterFor(groups)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	selfIdx := MasterGroupIndex(groups)

	gcs := make([]cluster.GroupConfig, 0, len(groups)+1)
	for i, g := range groups {
		n := g.Nodes
		if i == selfIdx {
			n++ // the master shares its platform's group
		}
		gcs = append(gcs, cluster.GroupConfig{Platform: g.Platform, Nodes: n})
	}
	if selfIdx < 0 {
		gcs = append(gcs, cluster.GroupConfig{Platform: masterPlat, Nodes: 1})
	}
	tb := cluster.New(cluster.Config{Groups: gcs, Energy: energy})

	var master *hw.Node
	var workers []*hw.Node
	for i, g := range groups {
		ns := tb.Nodes(g.Platform)
		if i == selfIdx {
			master, ns = ns[0], ns[1:]
		}
		workers = append(workers, ns...)
	}
	if selfIdx < 0 {
		master = tb.Nodes(masterPlat)[0]
	}

	primary := groups[0].Platform
	c, err := mapred.NewCluster(tb.Eng, tb.Fab, master, workers, blockSize, primary.Hadoop.Replicas, seed)
	if err != nil {
		return nil, err
	}
	return &Hadoop{Cluster: c, Platform: primary, Slaves: len(workers), Groups: groups}, nil
}

// Stage registers a job's input files in HDFS (the datasets pre-exist when
// the paper's jobs start).
func (h *Hadoop) Stage(job string) {
	switch job {
	case "wordcount", "wordcount2":
		per := units.Bytes(int64(WordcountBytes) / WordcountFiles)
		for _, name := range InputFiles("wordcount", WordcountFiles) {
			h.FS.CreateInstant(name, per)
		}
	case "logcount", "logcount2":
		per := units.Bytes(int64(LogcountBytes) / LogcountFiles)
		for _, name := range InputFiles("logcount", LogcountFiles) {
			h.FS.CreateInstant(name, per)
		}
	case "pi":
		for _, name := range InputFiles("pi", h.Platform.Hadoop.FullScaleTasks) {
			h.FS.CreateInstant(name, 4*units.KB)
		}
	case "terasort":
		h.FS.CreateInstant(InputFiles("terasort", 1)[0], TerasortBytes)
	default:
		panic(fmt.Sprintf("jobs: unknown job %q", job))
	}
}

// Def builds the JobDef for this deployment. Reducer counts follow §5.2:
// one per vcore (70 on the full Edison cluster, 24 on Dell), summed across
// mixed groups; pi uses a single reducer. On mixed slave sets the primary
// platform provides the cluster-global container sizes while map/reduce
// rates and task overheads attach per slave platform.
func (h *Hadoop) Def(job string) *mapred.JobDef {
	reduces := 0
	for _, g := range h.Groups {
		reduces += g.Platform.Hadoop.VCores * g.Nodes
	}
	var j *mapred.JobDef
	switch job {
	case "wordcount":
		j = Wordcount(reduces, h.Platform)
	case "wordcount2":
		j = Wordcount2(reduces, h.Platform)
	case "logcount":
		j = Logcount(reduces, h.Platform)
	case "logcount2":
		j = Logcount2(reduces, h.Platform)
	case "pi":
		j = Pi(h.Platform)
	case "terasort":
		j = Terasort(h.Platform)
	default:
		panic(fmt.Sprintf("jobs: unknown job %q", job))
	}
	if j.CombineInput {
		// The paper re-tunes split sizes at each cluster scale so every
		// vcore gets exactly one map container.
		total := int64(WordcountBytes)
		j.MaxSplitSize = units.Bytes(total/int64(reduces) + 1)
	}
	if len(h.Groups) > 1 {
		j.PlatformCosts = make(map[*hw.Platform]mapred.CostModel, len(h.Groups))
		for _, g := range h.Groups {
			if job == "pi" {
				j.PlatformCosts[g.Platform] = piCost(len(j.Inputs), g.Platform)
				continue
			}
			j.PlatformCosts[g.Platform] = costFor(job, g.Platform)
		}
	}
	return j
}

// BlockSizeFor reports the paper's block size for a job on a platform.
func BlockSizeFor(job string, p *hw.Platform) units.Bytes {
	if job == "terasort" {
		return TeraBlockSize
	}
	return p.Hadoop.BlockSize
}

// Names lists the six workloads in the paper's order.
func Names() []string {
	return []string{"wordcount", "wordcount2", "logcount", "logcount2", "pi", "terasort"}
}

// Run stages and executes one named job on a fresh homogeneous deployment
// under the given node power model, returning the result. This is the
// one-call path used by experiments and benches; interrupt (nil: never) is
// polled by the engine for cooperative cancellation.
func Run(job string, p *hw.Platform, slaves int, seed int64, energy hw.PowerModelKind, interrupt func() bool) (*mapred.JobResult, error) {
	return RunGroups(job, []SlaveGroup{{Platform: p, Nodes: slaves}}, seed, energy, interrupt)
}

// RunGroups stages and executes one named job on a fresh deployment over a
// (possibly mixed-platform) slave set — the heterogeneous-cluster
// counterpart of Run. Job tuning follows the first group's platform;
// experiments thread core Config.Energy through energy and
// Config.Interrupt through interrupt.
func RunGroups(job string, groups []SlaveGroup, seed int64, energy hw.PowerModelKind, interrupt func() bool) (*mapred.JobResult, error) {
	h, err := stage(job, groups, seed, energy, interrupt)
	if err != nil {
		return nil, err
	}
	return h.Cluster.Run(h.Def(job))
}

// stage builds a deployment for job over groups, arms interrupt on its
// engine and stages the job's input.
func stage(job string, groups []SlaveGroup, seed int64, energy hw.PowerModelKind, interrupt func() bool) (*Hadoop, error) {
	if err := Validate(job, groups); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	h, err := NewHadoopGroups(groups, BlockSizeFor(job, groups[0].Platform), seed, energy)
	if err != nil {
		return nil, err
	}
	h.Eng.SetInterrupt(interrupt)
	h.Stage(job)
	return h, nil
}

// FaultRoster maps the deployment's nodes to fault-plan roles: "slave" (the
// workers, in cluster order) and "master". Every target carries the fabric,
// so link faults against either role resolve too.
func (h *Hadoop) FaultRoster() map[string][]faults.Target {
	slaves := make([]faults.Target, len(h.Workers))
	for i, w := range h.Workers {
		slaves[i] = faults.Target{Node: w, Fab: h.Fab}
	}
	return map[string][]faults.Target{
		"slave":  slaves,
		"master": {{Node: h.Master, Fab: h.Fab}},
	}
}

// RunGroupsFaulty stages and executes one named job under an injected fault
// plan with the given recovery policy, cutting the run off at deadline
// simulated seconds (a job that cannot recover — say, fault tolerance
// disabled under a permanent crash — heartbeats forever, so the engine is
// bounded rather than drained). interrupt (optional) is polled by the engine
// for cooperative cancellation. The result always reports completion state:
// Failed with FailReason "deadline exceeded" when the deadline fired first.
func RunGroupsFaulty(job string, groups []SlaveGroup, seed int64, energy hw.PowerModelKind, plan *faults.Plan,
	ft *mapred.FaultTolerance, deadline float64, interrupt func() bool) (*mapred.JobResult, error) {
	h, err := stage(job, groups, seed, energy, interrupt)
	if err != nil {
		return nil, err
	}
	def := h.Def(job)
	def.FT = ft
	faults.Schedule(h.Eng, plan, seed, h.FaultRoster())
	res, err := h.Cluster.Start(def, nil)
	if err != nil {
		return nil, err
	}
	h.Eng.RunUntil(sim.Time(deadline))
	if !res.Completed && !res.Failed {
		res.Failed = true
		res.FailReason = "deadline exceeded"
	}
	return res, nil
}
