package cluster

import (
	"math"
	"strings"
	"testing"

	"edisim/internal/hw"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func pair() (micro, brawny *hw.Platform) { return hw.BaselinePair() }

func TestTestbedSizes(t *testing.T) {
	micro, brawny := pair()
	tb := New(DefaultConfig())
	if len(tb.Nodes(micro)) != 35 || len(tb.Nodes(brawny)) != 3 || len(tb.DB) != 2 || len(tb.Clients) != 8 {
		t.Fatalf("sizes: %d micro, %d brawny, %d db, %d clients",
			len(tb.Nodes(micro)), len(tb.Nodes(brawny)), len(tb.DB), len(tb.Clients))
	}
}

func TestMeasuredRTTsMatchSection44(t *testing.T) {
	micro, brawny := pair()
	tb := New(DefaultConfig())
	mn, bn := tb.Nodes(micro), tb.Nodes(brawny)
	// Micro <-> micro across boxes: paper measures ≈1.3 ms.
	ee := tb.Fab.RTT(mn[0].ID, mn[34].ID)
	if ee < 1.0e-3 || ee > 1.5e-3 {
		t.Errorf("micro-micro RTT %.2fms, want ≈1.3ms", ee*1e3)
	}
	// Brawny <-> brawny: ≈0.24 ms.
	dd := tb.Fab.RTT(bn[0].ID, bn[1].ID)
	if dd < 0.20e-3 || dd > 0.30e-3 {
		t.Errorf("brawny-brawny RTT %.2fms, want ≈0.24ms", dd*1e3)
	}
	// Brawny <-> micro: ≈0.8 ms.
	de := tb.Fab.RTT(bn[0].ID, mn[0].ID)
	if de < 0.6e-3 || de > 1.0e-3 {
		t.Errorf("brawny-micro RTT %.2fms, want ≈0.8ms", de*1e3)
	}
}

func TestClusterIdlePowerMatchesTable3(t *testing.T) {
	micro, brawny := pair()
	tb := New(DefaultConfig())
	if got := float64(tb.Group(micro).Meter.Power()); !almost(got, 49.0, 0.01) {
		t.Errorf("micro cluster idle power %.2fW, want 49.0W", got)
	}
	if got := float64(tb.Group(brawny).Meter.Power()); !almost(got, 156, 0.01) {
		t.Errorf("brawny cluster idle power %.2fW, want 156W", got)
	}
}

func TestTable3Rows(t *testing.T) {
	rows := Table3()
	want := []struct{ idle, busy float64 }{
		{0.36, 0.75}, {1.40, 1.68}, {49.0, 58.8}, {52, 109}, {156, 327},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, w := range want {
		if !almost(float64(rows[i].Idle), w.idle, 1e-6) || !almost(float64(rows[i].Busy), w.busy, 1e-6) {
			t.Errorf("row %q: %.2f/%.2f, want %.2f/%.2f",
				rows[i].Label, float64(rows[i].Idle), float64(rows[i].Busy), w.idle, w.busy)
		}
	}
}

func TestMicroUplinkIsBottleneck(t *testing.T) {
	// The client room reaches the micro room through a single 1 Gbps path;
	// each individual link to a brawny host is also ≈1 Gbps. Verify topology
	// wiring by comparing hop counts.
	micro, brawny := pair()
	tb := New(DefaultConfig())
	pEd := tb.Fab.Route("client0", tb.Nodes(micro)[0].ID)
	pDl := tb.Fab.Route("client0", tb.Nodes(brawny)[0].ID)
	if len(pEd) <= len(pDl) {
		t.Fatalf("micro path (%d hops) should be longer than brawny path (%d hops)",
			len(pEd), len(pDl))
	}
}

func TestScaledDownCluster(t *testing.T) {
	micro, brawny := pair()
	tb := New(Config{
		Groups:  []GroupConfig{{Platform: micro, Nodes: 8}, {Platform: brawny, Nodes: 1}},
		DBNodes: 2, Clients: 4,
	})
	if len(tb.Nodes(micro)) != 8 || len(tb.Nodes(brawny)) != 1 {
		t.Fatal("scaled config not honored")
	}
	// All nodes still mutually routable.
	tb.Fab.Route(tb.Nodes(micro)[7].ID, tb.DB[1].ID)
	tb.Fab.Route(tb.Nodes(micro)[0].ID, tb.Nodes(micro)[7].ID)
}

func TestNodesUseCorrectSpecs(t *testing.T) {
	micro, brawny := pair()
	tb := New(DefaultConfig())
	if tb.Nodes(micro)[0].Spec.Name != micro.Spec.Name {
		t.Fatal("micro node has wrong spec")
	}
	if tb.Nodes(brawny)[0].Spec.CPU.Cores != 6 {
		t.Fatal("brawny node has wrong spec")
	}
	if tb.Nodes(micro)[0].Platform != micro || tb.Nodes(brawny)[0].Platform != brawny || tb.DB[0].Platform != tb.Infra {
		t.Fatal("a node does not carry the platform it was built from")
	}
}

// TestCheckNames: two group platforms may not share a root switch, a
// leaf-switch prefix or a host name format, and NewOn panics on such a
// set instead of wiring one group's hosts into the other's.
func TestCheckNames(t *testing.T) {
	micro, brawny := pair()
	clone := func(edit func(*hw.NetworkProfile)) *hw.Platform {
		c := *micro
		c.Name = "edison-clone"
		edit(&c.Net)
		return &c
	}
	cases := []struct {
		name  string
		plats []*hw.Platform
		want  string // error substring; "" = valid
	}{
		{"baseline pair", []*hw.Platform{micro, brawny}, ""},
		{"whole catalog", hw.Platforms(), ""},
		{"own network names", []*hw.Platform{micro, clone(func(n *hw.NetworkProfile) {
			n.SwitchName, n.LeafPrefix, n.HostFormat = "clone-root", "clone-box", "clone%02d"
		})}, ""},
		{"flat group reuses a leaf prefix", []*hw.Platform{micro, clone(func(n *hw.NetworkProfile) {
			n.SwitchName, n.LeafFanout, n.HostFormat = "clone-root", 0, "clone%02d"
		})}, ""},
		{"platform twice", []*hw.Platform{micro, brawny, micro}, `groups Edison and Edison share the root switch "edison-root"`},
		{"same root switch", []*hw.Platform{micro, clone(func(*hw.NetworkProfile) {})}, `share the root switch "edison-root"`},
		{"same leaf prefix", []*hw.Platform{micro, clone(func(n *hw.NetworkProfile) { n.SwitchName = "clone-root" })},
			`share the leaf-switch prefix "edison-box"`},
		{"same host format", []*hw.Platform{micro, clone(func(n *hw.NetworkProfile) {
			n.SwitchName, n.LeafPrefix = "clone-root", "clone-box"
		})}, `share the host name format "edison%02d"`},
		{"hosts named like the DB servers", []*hw.Platform{micro, clone(func(n *hw.NetworkProfile) {
			n.SwitchName, n.LeafPrefix, n.HostFormat = "clone-root", "clone-box", "db%d"
		})}, `group edison-clone names a vertex "db0"`},
		{"zero-padded hosts reach the DB names", []*hw.Platform{clone(func(n *hw.NetworkProfile) { n.HostFormat = "db%02d" })},
			`names a vertex "db10"`},
		{"hosts named like the clients", []*hw.Platform{clone(func(n *hw.NetworkProfile) { n.HostFormat = "client1%d" })},
			`names a vertex "client10"`},
		{"leaf switches named like the clients", []*hw.Platform{clone(func(n *hw.NetworkProfile) { n.LeafPrefix = "client" })},
			`names a vertex "client0"`},
		{"root switch named core", []*hw.Platform{clone(func(n *hw.NetworkProfile) { n.SwitchName = "core" })},
			`names a vertex "core"`},
		{"names that only start like the DB servers", []*hw.Platform{clone(func(n *hw.NetworkProfile) {
			n.SwitchName, n.LeafPrefix, n.HostFormat = "dbroot", "db-box", "db0%d"
		})}, ""},
		{"shares the infra root switch", []*hw.Platform{clone(func(n *hw.NetworkProfile) { n.SwitchName = brawny.Net.SwitchName })}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckNames(tc.plats)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("CheckNames = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("CheckNames = %v, want an error containing %q", err, tc.want)
			}
			var groups []GroupConfig
			for _, p := range tc.plats {
				groups = append(groups, GroupConfig{Platform: p, Nodes: 2})
			}
			defer func() {
				if r := recover(); (r != nil) != (tc.want != "") {
					t.Fatalf("NewOn panic %v, want one exactly when CheckNames fails", r)
				}
			}()
			New(Config{Groups: groups})
		})
	}
}

// TestAnyCatalogPlatformDeploys: the testbed builder must handle every
// catalog entry — leaf-switched or flat — with DB/client infra present.
func TestAnyCatalogPlatformDeploys(t *testing.T) {
	for _, p := range hw.Platforms() {
		tb := New(Config{
			Groups:  []GroupConfig{{Platform: p, Nodes: 9}},
			DBNodes: 1, Clients: 2,
		})
		nodes := tb.Nodes(p)
		if len(nodes) != 9 {
			t.Fatalf("%s: %d nodes", p.Name, len(nodes))
		}
		// Mutually routable and reachable from infra.
		tb.Fab.Route(nodes[0].ID, nodes[8].ID)
		tb.Fab.Route("client0", nodes[0].ID)
		tb.Fab.Route(nodes[8].ID, tb.DB[0].ID)
		if g := tb.Group(p); g.Meter == nil {
			t.Fatalf("%s: no meter", p.Name)
		}
	}
}

// TestInfraSwitchNotDuplicated: deploying a group on the infra platform
// must reuse its root switch rather than panicking or double-adding.
func TestInfraSwitchNotDuplicated(t *testing.T) {
	_, brawny := pair()
	tb := New(Config{
		Groups:  []GroupConfig{{Platform: brawny, Nodes: 3}},
		DBNodes: 2, Clients: 2,
	})
	tb.Fab.Route(tb.Nodes(brawny)[0].ID, tb.DB[1].ID)
}
