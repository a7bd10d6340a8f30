package faults

import (
	"math"
	"strings"
	"testing"

	"edisim/internal/hw"
	"edisim/internal/sim"
)

func TestValidateTable(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	ok := Event{Kind: NodeCrash, At: 1, Duration: 10, Role: "web"}
	cases := []struct {
		name    string
		plan    *Plan
		wantErr string // substring; "" means valid
	}{
		{"nil plan", nil, ""},
		{"empty plan", &Plan{}, ""},
		{"good crash", &Plan{Events: []Event{ok}}, ""},
		{"good straggler", &Plan{Events: []Event{{Kind: Straggler, At: 0, Factor: 0.5, Role: "slave"}}}, ""},
		{"good jitter", &Plan{Events: []Event{ok}, Jitter: 2}, ""},
		{"unknown kind", &Plan{Events: []Event{{Kind: "meteor_strike", Role: "web"}}}, "unknown kind"},
		{"nan at", &Plan{Events: []Event{{Kind: NodeCrash, At: nan, Role: "web"}}}, "time"},
		{"negative at", &Plan{Events: []Event{{Kind: NodeCrash, At: -1, Role: "web"}}}, "time"},
		{"inf duration", &Plan{Events: []Event{{Kind: NodeCrash, Duration: inf, Role: "web"}}}, "duration"},
		{"negative duration", &Plan{Events: []Event{{Kind: NodeCrash, Duration: -5, Role: "web"}}}, "duration"},
		{"nan jitter", &Plan{Events: []Event{ok}, Jitter: nan}, "jitter"},
		{"negative jitter", &Plan{Events: []Event{ok}, Jitter: -1}, "jitter"},
		{"straggler zero factor", &Plan{Events: []Event{{Kind: Straggler, Role: "slave"}}}, "factor"},
		{"straggler negative factor", &Plan{Events: []Event{{Kind: Straggler, Factor: -0.5, Role: "slave"}}}, "factor"},
		{"degrade nan factor", &Plan{Events: []Event{{Kind: LinkDegrade, Factor: nan, Role: "slave"}}}, "factor"},
		{"crash ignores factor", &Plan{Events: []Event{{Kind: NodeCrash, Factor: -1, Role: "web"}}}, ""},
		{"empty role", &Plan{Events: []Event{{Kind: LinkCut}}}, "empty role"},
		{"negative index", &Plan{Events: []Event{{Kind: NodeCrash, Role: "web", Index: -1}}}, "negative index"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.plan.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

func TestFilterAndRoles(t *testing.T) {
	p := &Plan{
		Jitter: 3,
		Events: []Event{
			{Kind: NodeCrash, At: 1, Role: "web"},
			{Kind: NodeCrash, At: 2, Role: "slave"},
			{Kind: Straggler, At: 3, Factor: 0.5, Role: "web"},
			{Kind: LinkCut, At: 4, Role: "master"},
		},
	}
	got := p.Roles()
	want := []string{"master", "slave", "web"}
	if len(got) != len(want) {
		t.Fatalf("Roles() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Roles() = %v, want %v", got, want)
		}
	}

	sub := p.Filter("web")
	if len(sub.Events) != 2 || sub.Events[0].At != 1 || sub.Events[1].At != 3 {
		t.Fatalf("Filter(web) = %+v, want the two web events in order", sub.Events)
	}
	if sub.Jitter != 3 {
		t.Fatalf("Filter dropped jitter: %g", sub.Jitter)
	}
	if s := p.Filter("nope"); !s.Empty() {
		t.Fatalf("Filter(nope) = %+v, want empty", s.Events)
	}
	var nilPlan *Plan
	if s := nilPlan.Filter("web"); !s.Empty() {
		t.Fatal("nil.Filter should be empty")
	}
	if r := nilPlan.Roles(); r != nil {
		t.Fatalf("nil.Roles() = %v, want nil", r)
	}
}

func TestRollingCrashes(t *testing.T) {
	p := RollingCrashes("web", 3, 10, 5, 4)
	if err := p.Validate(); err != nil {
		t.Fatalf("RollingCrashes plan invalid: %v", err)
	}
	if len(p.Events) != 3 {
		t.Fatalf("%d events, want 3", len(p.Events))
	}
	for i, e := range p.Events {
		wantAt := 10 + float64(i)*5
		if e.Kind != NodeCrash || e.At != wantAt || e.Duration != 4 || e.Role != "web" || e.Index != i {
			t.Fatalf("event %d = %+v, want crash at %g for 4 s on web[%d]", i, e, wantAt, i)
		}
	}
}

func TestScheduleCrashAndReboot(t *testing.T) {
	eng := sim.NewEngine()
	n := hw.NewNode(eng, &hw.Platform{Spec: hw.EdisonSpec()}, "e0")
	plan := &Plan{Events: []Event{
		{Kind: NodeCrash, At: 1, Duration: 2, Role: "web"},
	}}
	Schedule(eng, plan, 42, map[string][]Target{"web": {{Node: n}}})
	var downAt, upAt bool
	eng.After(1.5, func() { downAt = !n.Up() })
	eng.After(3.5, func() { upAt = n.Up() })
	eng.Run()
	if !downAt || !upAt {
		t.Fatalf("node down@1.5=%v up@3.5=%v, want both true", downAt, upAt)
	}
}

func TestScheduleStraggler(t *testing.T) {
	eng := sim.NewEngine()
	n := hw.NewNode(eng, &hw.Platform{Spec: hw.EdisonSpec()}, "e0")
	plan := &Plan{Events: []Event{
		{Kind: Straggler, At: 1, Duration: 2, Factor: 0.25, Role: "slave"},
	}}
	Schedule(eng, plan, 42, map[string][]Target{"slave": {{Node: n}}})
	var during, after float64
	eng.After(2, func() { during = n.SlowFactor() })
	eng.After(4, func() { after = n.SlowFactor() })
	eng.Run()
	if during != 0.25 || after != 1 {
		t.Fatalf("slow factor during=%g after=%g, want 0.25 then 1", during, after)
	}
}

func TestScheduleJitterIsSeedDeterministic(t *testing.T) {
	// Same seed → same jittered crash time; different seed → (almost surely)
	// a different one.
	crashAt := func(seed int64) sim.Time {
		eng := sim.NewEngine()
		n := hw.NewNode(eng, &hw.Platform{Spec: hw.EdisonSpec()}, "e0")
		plan := &Plan{
			Jitter: 5,
			Events: []Event{{Kind: NodeCrash, At: 1, Role: "web"}},
		}
		Schedule(eng, plan, seed, map[string][]Target{"web": {{Node: n}}})
		var at sim.Time
		prev := true
		var tick func()
		tick = func() {
			if prev && !n.Up() {
				at = eng.Now()
				return
			}
			prev = n.Up()
			eng.After(0.01, tick)
		}
		eng.After(0, tick)
		eng.Run()
		return at
	}
	a, b, c := crashAt(7), crashAt(7), crashAt(8)
	if a != b {
		t.Fatalf("same seed gave different crash times: %v vs %v", a, b)
	}
	if a == c {
		t.Fatalf("seeds 7 and 8 gave the identical jitter %v; derivation looks seed-independent", a)
	}
}

func TestScheduleUnknownRolePanics(t *testing.T) {
	eng := sim.NewEngine()
	n := hw.NewNode(eng, &hw.Platform{Spec: hw.EdisonSpec()}, "e0")
	plan := &Plan{Events: []Event{{Kind: NodeCrash, Role: "ghost"}}}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Schedule against an unknown role did not panic")
		}
	}()
	Schedule(eng, plan, 1, map[string][]Target{"web": {{Node: n}}})
}

func TestScheduleEmptyRolePanics(t *testing.T) {
	eng := sim.NewEngine()
	plan := &Plan{Events: []Event{{Kind: NodeCrash, Role: "web"}}}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Schedule against an empty role did not panic")
		}
	}()
	Schedule(eng, plan, 1, map[string][]Target{"web": {}})
}

func TestScheduleLinkEventWithoutFabricPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := hw.NewNode(eng, &hw.Platform{Spec: hw.EdisonSpec()}, "e0")
	plan := &Plan{Events: []Event{{Kind: LinkCut, Role: "web"}}}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("link event against a fabric-less target did not panic")
		}
	}()
	Schedule(eng, plan, 1, map[string][]Target{"web": {{Node: n}}})
}

func TestScheduleNilPlanIsNoOp(t *testing.T) {
	eng := sim.NewEngine()
	Schedule(eng, nil, 1, nil)
	eng.Run()
	if eng.Now() != 0 {
		t.Fatalf("nil plan advanced the clock to %v", eng.Now())
	}
}
