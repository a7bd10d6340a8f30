package web

import (
	"reflect"
	"strings"
	"testing"

	"edisim/internal/cluster"
	"edisim/internal/hw"
)

func TestTable6Configuration(t *testing.T) {
	micro, brawny := hw.BaselinePair()
	rows := Table6(micro, brawny)
	full := rows[0]
	mt, bt := full.Tiers[0], full.Tiers[1]
	if mt.Web != micro || mt.NWeb != 24 || mt.NCache != 11 || bt.Web != brawny || bt.NWeb != 2 || bt.NCache != 1 {
		t.Fatalf("full-scale row wrong: %+v", full)
	}
	for i, want := range []int{2, 2, 1, 1} {
		if got := len(rows[i].Tiers); got != want {
			t.Fatalf("scale %s has %d tiers, want %d (micro, then brawny where the paper ran one)", rows[i].Name, got, want)
		}
	}
	for _, r := range rows {
		// Web servers ≈ 2× cache servers throughout (paper's provisioning rule).
		mt := r.Tiers[0]
		if mt.NWeb < mt.NCache || mt.NWeb > 3*mt.NCache {
			t.Errorf("scale %s: web/cache ratio off: %d/%d", r.Name, mt.NWeb, mt.NCache)
		}
		for _, tier := range r.Tiers {
			if tier.Web != tier.Cache || tier.DBNodes != 2 || tier.Clients != 8 {
				t.Errorf("scale %s: %+v is not a single-platform tier with 2 DB servers and 8 clients", r.Name, tier)
			}
			if err := tier.Validate(); err != nil {
				t.Errorf("scale %s %s: %v", r.Name, tier.Web.Name, err)
			}
			d := tier.Build(hw.PowerLinear, nil, 1)
			if len(d.Web) != tier.NWeb || len(d.Cache) != tier.NCache || len(d.DBs) != 2 || len(d.clients) != 8 {
				t.Errorf("scale %s %s: built %d web, %d cache, %d DB, %d clients",
					r.Name, tier.Web.Name, len(d.Web), len(d.Cache), len(d.DBs), len(d.clients))
			}
			for _, w := range d.Web {
				if w.Node.Spec != tier.Web.Spec {
					t.Errorf("scale %s: web server %s is not on %s", r.Name, w.Node.ID, tier.Web.Name)
				}
			}
		}
	}
}

// TestLadderHalvesByCeil pins the one ladder rule: ceil-halving both
// tiers, stopping at 1/1 or at the rung cap, and Table 6 as that rule
// applied to the baseline pair's catalog fleets — the paper's 24/11 →
// 12/6 → 6/3 → 3/2 Edison rows beside 2/1 → 1/1 Dells.
func TestLadderHalvesByCeil(t *testing.T) {
	for _, tc := range []struct {
		web, cache, max int
		want            [][2]int
	}{
		{24, 11, 4, [][2]int{{24, 11}, {12, 6}, {6, 3}, {3, 2}}},
		{2, 1, 4, [][2]int{{2, 1}, {1, 1}}},
		{24, 11, 2, [][2]int{{24, 11}, {12, 6}}},
		{1, 1, 4, [][2]int{{1, 1}}},
	} {
		if got := Ladder(tc.web, tc.cache, tc.max); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Ladder(%d, %d, %d) = %v, want %v", tc.web, tc.cache, tc.max, got, tc.want)
		}
	}
	micro, brawny := hw.BaselinePair()
	want := [][][2]int{{{24, 11}, {2, 1}}, {{12, 6}, {1, 1}}, {{6, 3}}, {{3, 2}}}
	rows := Table6(micro, brawny)
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		var got [][2]int
		for _, tier := range r.Tiers {
			got = append(got, [2]int{tier.NWeb, tier.NCache})
		}
		if r.Name != ScaleNames[i] || !reflect.DeepEqual(got, want[i]) {
			t.Errorf("row %d: %s %v, want %s %v", i, r.Name, got, ScaleNames[i], want[i])
		}
	}
}

// clone copies p as "edison-clone"; a non-empty prefix renames its root
// and leaf switches but keeps its host names.
func clone(p *hw.Platform, prefix string) *hw.Platform {
	c := *p
	c.Name = "edison-clone"
	if prefix != "" {
		c.Net.SwitchName, c.Net.LeafPrefix = prefix+"-root", prefix+"-box"
	}
	return &c
}

func TestTierValidate(t *testing.T) {
	micro, brawny := hw.BaselinePair()
	ok := TierOn(micro, 6, 3)
	split := Tier{Web: micro, Cache: brawny, NWeb: 6, NCache: 1, DBNodes: 2, Clients: 8}
	with := func(base Tier, edit func(*Tier)) Tier { edit(&base); return base }
	cases := []struct {
		name string
		tier Tier
		want string // error substring; "" = valid
	}{
		{"paper shape", ok, ""},
		{"split platforms", split, ""},
		{"split groups each at the cap", with(split, func(t *Tier) { t.NWeb, t.NCache = cluster.MaxGroupNodes, cluster.MaxGroupNodes }), ""},
		{"no web platform", with(ok, func(t *Tier) { t.Web = nil }), "need a platform"},
		{"no cache platform", with(ok, func(t *Tier) { t.Cache = nil }), "need a platform"},
		{"no web servers", with(ok, func(t *Tier) { t.NWeb = 0 }), "at least one node (got 0 web, 3 cache)"},
		{"negative cache servers", with(ok, func(t *Tier) { t.NCache = -1 }), "at least one node (got 6 web, -1 cache)"},
		{"shared group over the cap", with(ok, func(t *Tier) { t.NWeb = cluster.MaxGroupNodes }), "tier group of 10003 nodes exceeds the 10000-node group cap"},
		{"split group over the cap", with(split, func(t *Tier) { t.NCache = cluster.MaxGroupNodes + 1 }), "tier group of 10001 nodes"},
		{"no DB servers", with(ok, func(t *Tier) { t.DBNodes = 0 }), "DBNodes and Clients must be positive (got 0, 8)"},
		{"negative clients", with(ok, func(t *Tier) { t.Clients = -2 }), "DBNodes and Clients must be positive (got 2, -2)"},
		{"cache on a copy sharing the root switch", with(ok, func(t *Tier) { t.Cache = clone(micro, "") }),
			`groups Edison and edison-clone share the root switch "edison-root"`},
		{"cache on a copy sharing host names", with(ok, func(t *Tier) { t.Cache = clone(micro, "clone") }),
			`share the host name format "edison%02d"`},
		{"cache hosts named like the DB servers", with(ok, func(t *Tier) {
			c := clone(micro, "clone")
			c.Net.HostFormat = "db%d"
			t.Cache = c
		}), `group edison-clone names a vertex "db0"`},
		{"one platform with hosts named like the clients", func() Tier {
			c := clone(micro, "clone")
			c.Net.HostFormat = "client%d"
			return TierOn(c, 6, 3)
		}(), `group edison-clone names a vertex "client0"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tier.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Validate() = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Validate() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestBuildMatchesNewDeployment checks the two ways onto a testbed agree:
// Tier.Build (every experiment) and cluster.New + NewDeployment (perfbench's
// web-open workload) give the same Result for the same shape and seed.
func TestBuildMatchesNewDeployment(t *testing.T) {
	micro, brawny := hw.BaselinePair()
	rc := RunConfig{Concurrency: 128, ImageFrac: 0.1, Duration: 3, RequestTimeout: 0.5}
	for _, tier := range []Tier{TierOn(micro, 6, 3), TierOn(brawny, 1, 1)} {
		built := tier.Build(hw.PowerLinear, nil, 7)
		tb := cluster.New(cluster.Config{
			Groups:  []cluster.GroupConfig{{Platform: tier.Web, Nodes: tier.NWeb + tier.NCache}},
			DBNodes: tier.DBNodes, Clients: tier.Clients,
		})
		byHand := NewDeployment(tb, tier.Web, tier.NWeb, tier.NCache, 7)
		built.WarmFor(rc)
		byHand.WarmFor(rc)
		a, b := built.Run(rc), byHand.Run(rc)
		if a.Throughput == 0 {
			t.Fatalf("%s: no throughput", tier.Web.Name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: Tier.Build result %+v\n!= NewDeployment result %+v", tier.Web.Name, a, b)
		}
	}
}
