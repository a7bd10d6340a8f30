package edisim

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"edisim/internal/cluster"
)

// TestParsePlatformRefs pins the shared -platforms parsing: whitespace
// trimmed, empties dropped, duplicates (alias spellings included) collapsed
// to their first occurrence, unknown names preserved for resolution errors.
func TestParsePlatformRefs(t *testing.T) {
	names := func(refs []PlatformRef) []string {
		var out []string
		for _, r := range refs {
			out = append(out, r.Name)
		}
		return out
	}
	cases := []struct {
		name string
		in   string
		want []string
	}{
		{"plain", "edison,dell", []string{"edison", "dell"}},
		{"whitespace", " edison , dell-r620 ", []string{"edison", "dell-r620"}},
		{"duplicates", "edison,edison", []string{"edison"}},
		{"case-insensitive dup", "Edison,EDISON", []string{"Edison"}},
		{"alias dup", "dell,r620,dell-r620", []string{"dell"}},
		{"empties dropped", ",edison,,dell,", []string{"edison", "dell"}},
		{"only separators", " , ,", nil},
		{"unknown preserved", "edison,pdp11", []string{"edison", "pdp11"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := names(ParsePlatformRefs(tc.in))
			if len(got) != len(tc.want) {
				t.Fatalf("ParsePlatformRefs(%q) = %v, want %v", tc.in, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("ParsePlatformRefs(%q) = %v, want %v", tc.in, got, tc.want)
				}
			}
		})
	}
}

// TestWhitespacePlatformRefResolves: a ref with stray spaces (the CLI shape
// "edison, dell-r620") must resolve instead of failing lookup.
func TestWhitespacePlatformRefResolves(t *testing.T) {
	scn := Scenario{Quick: true,
		Matrix:    []PlatformRef{Ref(" edison "), Ref(" dell-r620")},
		Workloads: []Workload{&TCOStudy{Platforms: []PlatformRef{Ref(" dell-r620 ")}}}}
	var col Collector
	if err := Run(context.Background(), scn, &col); err != nil {
		t.Fatalf("whitespace refs did not resolve: %v", err)
	}
	if got := col.Artifacts[0].Tables[0].Rows[0][0].String(); got != "Dell" {
		t.Fatalf("resolved platform %q, want Dell", got)
	}
}

// mixedTerasortScenario is the hybrid Edison+Dell slave set of the
// acceptance criteria: a mixed-platform Hadoop cluster run end to end
// through the public API.
func mixedTerasortScenario(workers int) Scenario {
	return Scenario{
		Quick:   true,
		Workers: workers,
		Workloads: []Workload{&MapReduceJob{
			Job: "terasort",
			SlaveGroups: []TierSpec{
				{Platform: Ref("edison"), Nodes: 3},
				{Platform: Ref("dell"), Nodes: 1},
			},
			Trace: true,
		}},
	}
}

// TestMixedSlaveGroupTerasort runs terasort on a hybrid Edison+Dell slave
// set through the scenario API and requires byte-identical output across
// worker counts (the -j 1 / -j 4 determinism contract).
func TestMixedSlaveGroupTerasort(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a Hadoop job")
	}
	render := func(workers int) string {
		var buf bytes.Buffer
		if err := Run(context.Background(), mixedTerasortScenario(workers), NewTextSink(&buf)); err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		return buf.String()
	}
	serial := render(1)
	if !strings.Contains(serial, "terasort on 3 Edison + 1 Dell slaves") {
		t.Fatalf("mixed title missing:\n%s", serial)
	}
	if parallel := render(4); serial != parallel {
		t.Fatalf("mixed slave set output depends on worker count:\n-- -j 1 --\n%s\n-- -j 4 --\n%s", serial, parallel)
	}
	var col Collector
	if err := Run(context.Background(), mixedTerasortScenario(2), &col); err != nil {
		t.Fatal(err)
	}
	a := col.Artifacts[0]
	if a.ID != "mapreduce_terasort" || len(a.Figures) != 1 {
		t.Fatalf("artifact shape: %q figures=%d", a.ID, len(a.Figures))
	}
	if dur, ok := a.Tables[0].Rows[0][3].Float(); !ok || dur <= 0 {
		t.Fatalf("mixed job duration cell bogus: %#v", a.Tables[0].Rows[0][3])
	}
	if lbl := a.Tables[0].Rows[0][1].String(); lbl != "mixed" {
		t.Fatalf("platform cell %q, want mixed", lbl)
	}
}

// TestSlaveGroupValidationErrors pins the public-API guards for mixed
// slave sets: every failure is an expansion error, never a worker panic.
func TestSlaveGroupValidationErrors(t *testing.T) {
	mk := func(groups ...TierSpec) Scenario {
		return Scenario{Quick: true,
			Workloads: []Workload{&MapReduceJob{Job: "terasort", SlaveGroups: groups}}}
	}
	cases := []struct {
		name string
		scn  Scenario
		want string
	}{
		{"zero nodes", mk(TierSpec{Platform: Ref("edison"), Nodes: 0}), "positive node count"},
		{"negative nodes", mk(TierSpec{Platform: Ref("edison"), Nodes: -2}), "positive node count"},
		{"empty platform", mk(TierSpec{Nodes: 2}), "explicit platform"},
		{"unknown platform", mk(TierSpec{Platform: Ref("pdp11"), Nodes: 2}), `"pdp11"`},
		{"duplicate group", mk(TierSpec{Platform: Ref("edison"), Nodes: 2}, TierSpec{Platform: Ref("Edison"), Nodes: 1}), "duplicate slave group"},
		{"over group cap", mk(TierSpec{Platform: Ref("edison"), Nodes: cluster.MaxGroupNodes + 300}), "group cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Run(context.Background(), tc.scn, &Collector{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestFleetComparisonScenario runs the equal-budget comparison over the
// baseline pair through the public API: every table populated, and the
// Dell-budget-sized Dell fleet must (by construction) match its own
// catalog fleet cost.
func TestFleetComparisonScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates web sweeps and a Hadoop job")
	}
	var col Collector
	scn := Scenario{Quick: true, Workers: 2, Workloads: []Workload{
		&FleetComparison{Platforms: []PlatformRef{Ref("edison"), Ref("dell")}},
	}}
	if err := Run(context.Background(), scn, &col); err != nil {
		t.Fatalf("Run: %v", err)
	}
	a := col.Artifacts[0]
	if a.ID != "fleet_comparison" {
		t.Fatalf("artifact ID %q", a.ID)
	}
	// Sizing, web matrix, scale ladder, Hadoop matrix.
	if len(a.Tables) != 4 {
		t.Fatalf("got %d tables, want 4", len(a.Tables))
	}
	sizing := a.Tables[0]
	if len(sizing.Rows) != 2 {
		t.Fatalf("sizing rows = %d, want 2", len(sizing.Rows))
	}
	// The Edison fleet bought by the Dell web budget must be paper-scale
	// (tens of web nodes) and every sized fleet must have spent > 0.
	if webNodes, ok := sizing.Rows[0][2].Float(); !ok || webNodes < 20 {
		t.Fatalf("Edison web fleet %v nodes; want the paper's tens-of-nodes scale", sizing.Rows[0][2])
	}
	for _, row := range sizing.Rows {
		if cost, ok := row[5].Float(); !ok || cost <= 0 {
			t.Fatalf("web fleet cost cell bogus: %#v", row[5])
		}
	}
	// Web matrix: one row per platform, peak throughput and per-dollar
	// columns live.
	if len(a.Tables[1].Rows) != 2 {
		t.Fatalf("web matrix rows = %d, want 2", len(a.Tables[1].Rows))
	}
	for _, row := range a.Tables[1].Rows {
		if peak, ok := row[4].Float(); !ok || peak <= 0 {
			t.Fatalf("web peak cell bogus: %#v", row[4])
		}
		if perK, ok := row[7].Float(); !ok || perK <= 0 {
			t.Fatalf("req/s per TCO-k$ cell bogus: %#v", row[7])
		}
	}
	// Hadoop matrix: both platforms ran the job.
	if len(a.Tables[3].Rows) != 2 {
		t.Fatalf("hadoop matrix rows = %d, want 2", len(a.Tables[3].Rows))
	}
	for _, row := range a.Tables[3].Rows {
		if dur, ok := row[3].Float(); !ok || dur <= 0 {
			t.Fatalf("hadoop duration cell bogus: %#v", row[3])
		}
	}
	if len(a.Comparisons) != 0 {
		t.Fatalf("fleet comparison recorded %d ledger rows; it is beyond the paper", len(a.Comparisons))
	}
}

// TestFleetComparisonValidation pins the expansion guards.
func TestFleetComparisonValidation(t *testing.T) {
	cases := []struct {
		name string
		fc   *FleetComparison
		want string
	}{
		{"negative budget", &FleetComparison{Budget: -100}, "must be positive"},
		{"NaN budget", &FleetComparison{Budget: math.NaN()}, "finite"},
		{"unknown job", &FleetComparison{Job: "sort9000"}, `"sort9000"`},
		{"unknown baseline", &FleetComparison{Baseline: Ref("pdp11")}, `"pdp11"`},
		{"empty platform ref", &FleetComparison{Platforms: []PlatformRef{{}}}, "empty platform ref"},
		{"fleet-less baseline", &FleetComparison{Baseline: Custom(&Platform{Name: "bare"})}, "no catalog fleet"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scn := Scenario{Quick: true, Workloads: []Workload{tc.fc}}
			err := Run(context.Background(), scn, &Collector{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestTCOStudyBudgetSizing: Budget sizes fleets instead of Nodes, a
// platform whose single server exceeds the budget prices as a zero-node
// row, and the guards hold.
func TestTCOStudyBudgetSizing(t *testing.T) {
	var col Collector
	scn := Scenario{Workloads: []Workload{&TCOStudy{
		Platforms:   []PlatformRef{Ref("edison"), Ref("xeon")},
		Budget:      5000,
		Utilization: 0.75,
	}}}
	if err := Run(context.Background(), scn, &col); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tab := col.Artifacts[0].Tables[0]
	if n, ok := tab.Rows[0][1].Float(); !ok || n < 30 {
		t.Fatalf("$5000 should buy tens of Edisons, got %v", tab.Rows[0][1])
	}
	if total, ok := tab.Rows[0][4].Float(); !ok || total <= 0 || total > 5000 {
		t.Fatalf("sized Edison fleet total $%v must be positive and within budget", total)
	}
	if n, ok := tab.Rows[1][1].Float(); !ok || n != 0 {
		t.Fatalf("a $5000 budget cannot buy a Xeon; got %v nodes", tab.Rows[1][1])
	}
	found := false
	for _, note := range col.Artifacts[0].Notes {
		found = found || strings.Contains(note, "exceeds")
	}
	if !found {
		t.Fatalf("zero-node row not explained in notes: %v", col.Artifacts[0].Notes)
	}

	for name, study := range map[string]*TCOStudy{
		"negative budget":  {Budget: -10},
		"NaN budget":       {Budget: math.NaN()},
		"infinite budget":  {Budget: math.Inf(1)},
		"budget and nodes": {Platforms: []PlatformRef{Ref("edison")}, Nodes: []int{3}, Budget: 1000},
		"negative nodes":   {Platforms: []PlatformRef{Ref("edison")}, Nodes: []int{-5}},
	} {
		t.Run(name, func(t *testing.T) {
			err := Run(context.Background(), Scenario{Workloads: []Workload{study}}, &Collector{})
			if err == nil {
				t.Fatalf("%s accepted", name)
			}
		})
	}
}
