package edisim

import (
	"strings"
	"testing"
)

func TestParseFaultPlan(t *testing.T) {
	fp, err := ParseFaultPlan("node_crash@30+120:slave[1]; straggler@10+60x0.25:web[2] ;link_degrade@5x0.5:slave;link_cut@7:master")
	if err != nil {
		t.Fatalf("ParseFaultPlan: %v", err)
	}
	want := []FaultEvent{
		{Kind: "node_crash", At: 30, Duration: 120, Role: "slave", Index: 1},
		{Kind: "straggler", At: 10, Duration: 60, Factor: 0.25, Role: "web", Index: 2},
		{Kind: "link_degrade", At: 5, Factor: 0.5, Role: "slave"},
		{Kind: "link_cut", At: 7, Role: "master"},
	}
	if len(fp.Events) != len(want) {
		t.Fatalf("%d events, want %d", len(fp.Events), len(want))
	}
	for i := range want {
		if fp.Events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, fp.Events[i], want[i])
		}
	}
}

func TestParseFaultPlanEmpty(t *testing.T) {
	for _, spec := range []string{"", "  ", ";;"} {
		fp, err := ParseFaultPlan(spec)
		if err != nil || fp != nil {
			t.Fatalf("ParseFaultPlan(%q) = (%v, %v), want (nil, nil)", spec, fp, err)
		}
	}
}

func TestParseFaultPlanErrors(t *testing.T) {
	cases := []struct{ spec, wantErr string }{
		{"node_crash:web", "missing '@AT'"},
		{"node_crash@30", "missing ':ROLE'"},
		{"node_crash@abc:web", "bad time"},
		{"node_crash@1+abc:web", "bad duration"},
		{"straggler@1x?:web", "bad factor"},
		{"node_crash@1:web[2", "unclosed index"},
		{"node_crash@1:web[two]", "bad index"},
		{"meteor@1:web", "unknown kind"},
		{"straggler@1:web", "factor"},          // validation: straggler needs a factor
		{"node_crash@-5:web", "time"},          // validation: negative time
		{"node_crash@1+2:web[-1]", "negative"}, // validation: negative index
	}
	for _, c := range cases {
		if _, err := ParseFaultPlan(c.spec); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParseFaultPlan(%q) = %v, want error containing %q", c.spec, err, c.wantErr)
		}
	}
}

func TestRollingCrashFaults(t *testing.T) {
	fp := RollingCrashFaults("web", 3, 10, 5, 4)
	if len(fp.Events) != 3 {
		t.Fatalf("%d events, want 3", len(fp.Events))
	}
	for i, e := range fp.Events {
		want := FaultEvent{Kind: "node_crash", At: 10 + float64(i)*5, Duration: 4, Role: "web", Index: i}
		if e != want {
			t.Fatalf("event %d = %+v, want %+v", i, e, want)
		}
	}
	if err := fp.Validate(); err != nil {
		t.Fatalf("rolling plan invalid: %v", err)
	}
}

func TestScheduleWebFaults(t *testing.T) {
	micro, _ := BaselinePair()
	tier := WebTier{Web: micro, Cache: micro, NWeb: 6, NCache: 3, DBNodes: 2, Clients: 4}
	build := func() *WebDeployment { return tier.Build(PowerLinear, nil, 1) }
	d := build()
	if err := ScheduleWebFaults(d, RollingCrashFaults("web", 2, 5, 2, 2), 1); err != nil {
		t.Fatalf("ScheduleWebFaults: %v", err)
	}
	if err := ScheduleWebFaults(build(), nil, 1); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
	err := ScheduleWebFaults(build(), RollingCrashFaults("slave", 1, 5, 2, 2), 1)
	if err == nil || !strings.Contains(err.Error(), `role "slave"`) {
		t.Fatalf("foreign role error = %v", err)
	}
	bad := &FaultPlan{Events: []FaultEvent{{Kind: "straggler", Role: "web"}}}
	if err := ScheduleWebFaults(build(), bad, 1); err == nil {
		t.Fatal("invalid plan accepted")
	}
}
