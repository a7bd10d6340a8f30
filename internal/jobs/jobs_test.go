package jobs

import (
	"maps"
	"math"
	"sort"
	"strings"
	"testing"

	"edisim/internal/cluster"
	"edisim/internal/hw"
	"edisim/internal/mapred"
)

// microP is the baseline micro platform used across the functional tests
// (the cost model is irrelevant to LocalRun correctness).
func microP() *hw.Platform {
	m, _ := hw.BaselinePair()
	return m
}

func TestWordcountLocalCorrectness(t *testing.T) {
	job := Wordcount(4, microP())
	inputs := map[string][]string{
		"f1": GenerateTextLines(1, 50, 8),
		"f2": GenerateTextLines(2, 50, 8),
	}
	res, err := mapred.LocalRun(job, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Reference count.
	want := map[string]int{}
	total := 0
	for _, lines := range inputs {
		for _, l := range lines {
			for _, w := range strings.Fields(l) {
				want[w]++
				total++
			}
		}
	}
	gotTotal := 0
	for _, kv := range res.Output() {
		n := atoi(t, kv.Value)
		if want[kv.Key] != n {
			t.Fatalf("count[%s] = %d, want %d", kv.Key, n, want[kv.Key])
		}
		gotTotal += n
	}
	if gotTotal != total {
		t.Fatalf("total words %d, want %d", gotTotal, total)
	}
}

func TestWordcount2MatchesWordcount(t *testing.T) {
	inputs := map[string][]string{
		"f1": GenerateTextLines(3, 40, 6),
		"f2": GenerateTextLines(4, 40, 6),
	}
	r1, err := mapred.LocalRun(Wordcount(4, microP()), inputs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mapred.LocalRun(Wordcount2(4, microP()), inputs)
	if err != nil {
		t.Fatal(err)
	}
	o1, o2 := r1.Output(), r2.Output()
	if len(o1) != len(o2) {
		t.Fatalf("optimized wordcount changed output size: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("optimized wordcount changed results at %d: %v vs %v", i, o1[i], o2[i])
		}
	}
}

func TestLogcountExtractsDateLevel(t *testing.T) {
	job := Logcount(2, microP())
	res, err := mapred.LocalRun(job, map[string][]string{
		"log": {
			"2016-02-01 10:00:00,123 INFO some.Class: message",
			"2016-02-01 11:00:00,456 INFO other.Class: message",
			"2016-02-02 09:00:00,789 ERROR bad.Class: oops",
			"garbage line",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range res.Output() {
		got[kv.Key] = kv.Value
	}
	if got["2016-02-01 INFO"] != "2" || got["2016-02-02 ERROR"] != "1" {
		t.Fatalf("logcount output %v", got)
	}
	if len(got) != 2 {
		t.Fatalf("unexpected keys: %v", got)
	}
}

func TestLogcountGeneratedInput(t *testing.T) {
	job := Logcount(4, microP())
	lines := GenerateLogLines(5, 500)
	res, err := mapred.LocalRun(job, map[string][]string{"l": lines})
	if err != nil {
		t.Fatal(err)
	}
	var sum int
	for _, kv := range res.Output() {
		if !strings.HasPrefix(kv.Key, "2016-02-") {
			t.Fatalf("bad key %q", kv.Key)
		}
		sum += atoi(t, kv.Value)
	}
	if sum != 500 {
		t.Fatalf("counted %d entries, want 500", sum)
	}
}

func TestPiEstimateConverges(t *testing.T) {
	job := Pi(microP())
	// 8 map tasks × 40k samples.
	inputs := map[string][]string{}
	for i := 0; i < 8; i++ {
		inputs[InputFiles("pi", 8)[i]] = []string{itoa(int64(i*40000)) + " 40000"}
	}
	res, err := mapred.LocalRun(job, inputs)
	if err != nil {
		t.Fatal(err)
	}
	pi := PiEstimate(res.Output())
	if math.Abs(pi-math.Pi) > 0.01 {
		t.Fatalf("pi estimate %v too far from π (Halton sequence should converge fast)", pi)
	}
}

func TestTerasortOutputSorted(t *testing.T) {
	job := Terasort(microP())
	recs := GenerateTeraRecords(6, 500)
	res, err := mapred.LocalRun(job, map[string][]string{"t": recs})
	if err != nil {
		t.Fatal(err)
	}
	// TeraValidate: concatenating partitions in key-range order must yield
	// a key-sorted sequence; with a hash partitioner we validate per
	// partition plus global multiset equality.
	var all []string
	for _, p := range res.Partitions {
		for i := 1; i < len(p); i++ {
			if p[i-1].Key > p[i].Key {
				t.Fatal("partition not sorted by key")
			}
		}
		for _, kv := range p {
			all = append(all, kv.Value)
		}
	}
	if len(all) != len(recs) {
		t.Fatalf("record count changed: %d vs %d", len(all), len(recs))
	}
	sort.Strings(all)
	want := append([]string(nil), recs...)
	sort.Strings(want)
	for i := range want {
		if all[i] != want[i] {
			t.Fatal("terasort lost or corrupted records")
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenerateTextLines(42, 10, 5)
	b := GenerateTextLines(42, 10, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("text generator not deterministic")
		}
	}
	if GenerateLogLines(1, 5)[0] == GenerateLogLines(2, 5)[0] {
		t.Fatal("different seeds gave identical log lines")
	}
	if len(GenerateTeraRecords(1, 3)[0]) != TeraRecordLen {
		t.Fatalf("tera record length %d", len(GenerateTeraRecords(1, 3)[0]))
	}
}

func TestDefMaxSplitSizeScalesWithCluster(t *testing.T) {
	h35, err := NewHadoop(microP(), 35, microP().Hadoop.BlockSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	h8, err := NewHadoop(microP(), 8, microP().Hadoop.BlockSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	j35 := h35.Def("wordcount2")
	j8 := h8.Def("wordcount2")
	if j8.MaxSplitSize <= j35.MaxSplitSize {
		t.Fatalf("smaller cluster should use larger splits: %v vs %v (§5.3)",
			j8.MaxSplitSize, j35.MaxSplitSize)
	}
}

func TestRunSmallClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation in -short mode")
	}
	r, err := Run("logcount2", microP(), 4, 1, hw.PowerLinear, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Duration <= 0 || r.Energy <= 0 {
		t.Fatalf("bad result: %+v", r)
	}
	if r.LocalityFraction() < 0.2 {
		t.Fatalf("locality %.2f suspiciously low", r.LocalityFraction())
	}
}

func pair() (micro, brawny *hw.Platform) { return hw.BaselinePair() }

// TestMixedSlaveGroupsEndToEnd runs terasort on a hybrid Edison+Dell slave
// set: the heterogeneous cluster the paper's hybrid (Dell master over
// Edison slaves) stops short of. The run must complete, be deterministic
// for a fixed seed, and actually use per-platform task rates — adding one
// Dell slave to an Edison group must beat adding one more Edison.
func TestMixedSlaveGroupsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation in -short mode")
	}
	micro, brawny := pair()
	mixed := []SlaveGroup{{Platform: micro, Nodes: 3}, {Platform: brawny, Nodes: 1}}
	r1, err := RunGroups("terasort", mixed, 1, hw.PowerLinear, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Duration <= 0 || r1.Energy <= 0 || r1.ReduceTasks <= 0 {
		t.Fatalf("bad mixed result: %+v", r1)
	}
	r2, err := RunGroups("terasort", mixed, 1, hw.PowerLinear, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Duration != r2.Duration || r1.Energy != r2.Energy {
		t.Fatalf("mixed run not deterministic: %v/%v vs %v/%v", r1.Duration, r1.Energy, r2.Duration, r2.Energy)
	}
	allMicro, err := RunGroups("terasort", []SlaveGroup{{Platform: micro, Nodes: 4}}, 1, hw.PowerLinear, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Duration >= allMicro.Duration {
		t.Fatalf("swapping an Edison slave for a Dell did not speed terasort up: mixed %.0f s vs all-Edison %.0f s",
			r1.Duration, allMicro.Duration)
	}
}

// TestMixedGroupsResolvePerPlatformCosts checks the JobDef carries one rate
// model per slave platform, keyed so mapred resolves them per container
// node, and that a mixed deployment's reducer count sums vcores across
// groups.
func TestMixedGroupsResolvePerPlatformCosts(t *testing.T) {
	micro, brawny := pair()
	h, err := NewHadoopGroups([]SlaveGroup{{Platform: micro, Nodes: 2}, {Platform: brawny, Nodes: 1}},
		micro.Hadoop.BlockSize, 1, hw.PowerLinear)
	if err != nil {
		t.Fatal(err)
	}
	j := h.Def("wordcount")
	if len(j.PlatformCosts) != 2 {
		t.Fatalf("PlatformCosts has %d entries, want 2", len(j.PlatformCosts))
	}
	em, ok1 := j.PlatformCosts[micro]
	dm, ok2 := j.PlatformCosts[brawny]
	if !ok1 || !ok2 {
		t.Fatalf("PlatformCosts missing a platform: %v", j.PlatformCosts)
	}
	if em.MapMBps >= dm.MapMBps {
		t.Fatalf("micro map rate %v should be below brawny %v", em.MapMBps, dm.MapMBps)
	}
	wantReduces := micro.Hadoop.VCores*2 + brawny.Hadoop.VCores*1
	if j.NumReduces != wantReduces {
		t.Fatalf("mixed reducer count %d, want %d (vcores summed across groups)", j.NumReduces, wantReduces)
	}
	// Homogeneous deployments keep the flat model: no per-platform table.
	hh, err := NewHadoop(micro, 2, micro.Hadoop.BlockSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	if jj := hh.Def("wordcount"); jj.PlatformCosts != nil {
		t.Fatalf("homogeneous JobDef grew PlatformCosts: %v", jj.PlatformCosts)
	}

	// A custom copy of the micro platform keeps its spec name but runs
	// wordcount2 at a quarter of the rates, on its own network names.
	// Rates are keyed by platform, so in either group order each half
	// runs at its own rates and the mixed run lies strictly between the
	// all-fast and all-slow runs.
	slow := *micro
	slow.Name, slow.Label = "edison-slow", "Slow Edison"
	slow.Net.SwitchName, slow.Net.LeafPrefix, slow.Net.HostFormat = "slow-root", "slow-box", "slow%02d"
	slow.Hadoop.Jobs = maps.Clone(micro.Hadoop.Jobs)
	wc := slow.Hadoop.Jobs["wordcount2"]
	wc.MapMBps, wc.ReduceMBps = wc.MapMBps/4, wc.ReduceMBps/4
	slow.Hadoop.Jobs["wordcount2"] = wc
	run := func(groups ...SlaveGroup) float64 {
		t.Helper()
		r, err := RunGroups("wordcount2", groups, 1, hw.PowerLinear, nil)
		if err != nil || !r.Completed {
			t.Fatalf("wordcount2 on %v: %v", groups, err)
		}
		return r.Duration
	}
	fast, slowest := run(SlaveGroup{micro, 8}), run(SlaveGroup{&slow, 8})
	if fast >= slowest {
		t.Fatalf("quarter-rate copy ran in %.1f s, not slower than the catalog's %.1f s", slowest, fast)
	}
	for _, groups := range [][]SlaveGroup{{{micro, 4}, {&slow, 4}}, {{&slow, 4}, {micro, 4}}} {
		h, err := NewHadoopGroups(groups, micro.Hadoop.BlockSize, 1, hw.PowerLinear)
		if err != nil {
			t.Fatal(err)
		}
		j := h.Def("wordcount2")
		if len(j.PlatformCosts) != 2 || j.PlatformCosts[micro] != costFor("wordcount2", micro) ||
			j.PlatformCosts[&slow] != costFor("wordcount2", &slow) {
			t.Errorf("%s first: PlatformCosts %v, want each platform's own rates", groups[0].Platform.Name, j.PlatformCosts)
		}
		if mixed := run(groups...); mixed <= fast || mixed >= slowest {
			t.Errorf("%s first: mixed run %.1f s, want strictly between all-fast %.1f s and all-slow %.1f s",
				groups[0].Platform.Name, mixed, fast, slowest)
		}
	}
}

// TestSlaveGroupValidation pins the slave-set rules: empty sets, nil
// platforms, non-positive node counts, duplicate groups, an unknown hybrid
// master and groups over the cap (a self-hosted master counted as one more
// node of its group) must error, not panic, in both Validate and the
// builder; the sets at the cap are valid.
func TestSlaveGroupValidation(t *testing.T) {
	micro, brawny := pair()
	orphan := *micro
	orphan.Name = "orphan"
	orphan.Hadoop.MasterPlatform = "nowhere"
	limit := cluster.MaxGroupNodes
	cases := []struct {
		name   string
		groups []SlaveGroup
		want   string // error substring; "" = valid
	}{
		{"empty", nil, "at least one"},
		{"nil platform", []SlaveGroup{{Platform: nil, Nodes: 2}}, "without a platform"},
		{"zero nodes", []SlaveGroup{{Platform: micro, Nodes: 0}}, "positive node count"},
		{"negative nodes", []SlaveGroup{{Platform: micro, Nodes: -3}}, "positive node count"},
		{"duplicate group", []SlaveGroup{{Platform: micro, Nodes: 2}, {Platform: micro, Nodes: 1}}, "duplicate"},
		{"unknown master platform", []SlaveGroup{{Platform: &orphan, Nodes: 2}}, `unknown master platform "nowhere"`},
		{"external master at the cap", []SlaveGroup{{Platform: micro, Nodes: limit}}, ""},
		{"over the cap", []SlaveGroup{{Platform: micro, Nodes: limit + 1}}, "exceeds the"},
		{"self-hosted master at the cap", []SlaveGroup{{Platform: brawny, Nodes: limit - 1}}, ""},
		{"self-hosted master over the cap", []SlaveGroup{{Platform: brawny, Nodes: limit}}, "slaves plus the self-hosted master exceeds"},
		{"mixed, master on the second group", []SlaveGroup{{Platform: micro, Nodes: limit}, {Platform: brawny, Nodes: limit}}, brawny.Name + " group of"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate("pi", tc.groups)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid slave set rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate: want error containing %q, got %v", tc.want, err)
			}
			_, err = NewHadoopGroups(tc.groups, microP().Hadoop.BlockSize, 1, hw.PowerLinear)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewHadoopGroups: want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestRunGroupsUnknownJob: an unknown job is an error from RunGroups, not
// a panic while staging its input.
func TestRunGroupsUnknownJob(t *testing.T) {
	_, err := RunGroups("sort9000", []SlaveGroup{{Platform: microP(), Nodes: 2}}, 1, hw.PowerLinear, nil)
	if err == nil || !strings.Contains(err.Error(), `unknown job "sort9000"`) {
		t.Fatalf("want an unknown-job error, got %v", err)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("non-numeric %q", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
