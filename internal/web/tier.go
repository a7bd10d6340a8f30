package web

import (
	"errors"
	"fmt"

	"edisim/internal/cluster"
	"edisim/internal/hw"
)

// Tier sizes a web testbed: NWeb web servers on the Web platform and
// NCache cache servers on the Cache platform, plus DBNodes database
// servers and Clients load generators on the infra platform. The paper's
// tiers are in Table6.
type Tier struct {
	Web, Cache       *hw.Platform
	NWeb, NCache     int
	DBNodes, Clients int
}

// TierOn is a single-platform tier of nWeb web and nCache cache servers in
// front of the paper's 2 database servers and 8 clients.
func TierOn(p *hw.Platform, nWeb, nCache int) Tier {
	return Tier{Web: p, Cache: p, NWeb: nWeb, NCache: nCache, DBNodes: 2, Clients: 8}
}

// Validate reports why Build would reject the tier, or nil. Both tiers
// need a platform and at least one node, each node group stays within
// cluster.MaxGroupNodes (web and cache share one group when their
// platforms match), the infra tier needs a database server and a client,
// and no platform may take the testbed's or the other platform's network
// names (cluster.CheckNames).
func (t Tier) Validate() error {
	if t.Web == nil || t.Cache == nil {
		return errors.New("web and cache tiers need a platform")
	}
	if t.NWeb <= 0 || t.NCache <= 0 {
		return fmt.Errorf("web and cache tiers need at least one node (got %d web, %d cache)", t.NWeb, t.NCache)
	}
	grp := max(t.NWeb, t.NCache)
	if t.Web == t.Cache {
		grp = t.NWeb + t.NCache
	}
	if grp > cluster.MaxGroupNodes {
		return fmt.Errorf("tier group of %d nodes exceeds the %d-node group cap", grp, cluster.MaxGroupNodes)
	}
	if t.DBNodes <= 0 || t.Clients <= 0 {
		return fmt.Errorf("DBNodes and Clients must be positive (got %d, %d)", t.DBNodes, t.Clients)
	}
	plats := []*hw.Platform{t.Web}
	if t.Cache != t.Web {
		plats = append(plats, t.Cache)
	}
	return cluster.CheckNames(plats)
}

// Build builds the tier on a fresh testbed and returns its deployment. The
// web and cache tiers share one node group when their platforms match (the
// paper's shape) and get one group each otherwise. Every node runs the
// energy power model, and the engine polls interrupt (nil: never) so a
// cancelled caller stops the run promptly. Build does not check the tier:
// call Validate first on sizes that come from outside the program.
func (t Tier) Build(energy hw.PowerModelKind, interrupt func() bool, seed int64) *Deployment {
	groups := []cluster.GroupConfig{{Platform: t.Web, Nodes: t.NWeb + t.NCache}}
	if t.Cache != t.Web {
		groups = []cluster.GroupConfig{{Platform: t.Web, Nodes: t.NWeb}, {Platform: t.Cache, Nodes: t.NCache}}
	}
	tb := cluster.New(cluster.Config{Groups: groups, DBNodes: t.DBNodes, Clients: t.Clients, Energy: energy, Interrupt: interrupt})
	return t.deploy(tb, seed)
}

// Scale is one row of the paper's Table 6: the middle tiers the compared
// platforms contribute at one cluster scale factor, read by position:
// Tiers[0] is the micro tier and Tiers[1], when the row has one, the
// brawny tier.
type Scale struct {
	Name  string
	Tiers []Tier
}

// ScaleNames labels the rungs of a scale ladder: the full fleet, then each
// halving.
var ScaleNames = []string{"full", "1/2", "1/4", "1/8"}

// Ladder builds a fleet's scale ladder by successively halving its nWeb
// web and nCache cache servers (ceil, as the paper's Table 6 does: 24/11 →
// 12/6 → 6/3 → 3/2), stopping once both tiers are down to one node or at
// maxRungs rungs (at most len(ScaleNames)).
func Ladder(nWeb, nCache, maxRungs int) [][2]int {
	rungs := [][2]int{{nWeb, nCache}}
	for len(rungs) < maxRungs {
		prev := rungs[len(rungs)-1]
		if prev[0] == 1 && prev[1] == 1 {
			break
		}
		rungs = append(rungs, [2]int{(prev[0] + 1) / 2, (prev[1] + 1) / 2})
	}
	return rungs
}

// Table6 returns the paper's cluster scale ladder over a compared pair:
// the platforms are the caller's, the tier sizes the paper's, which a
// custom pair keeps too. The full row is the baseline pair's catalog
// fleets (24/11 Edisons, 2/1 Dells); each lower row halves them by Ladder.
func Table6(micro, brawny *hw.Platform) []Scale {
	bm, bb := hw.BaselinePair()
	mRungs := Ladder(bm.Fleet.Web, bm.Fleet.Cache, len(ScaleNames))
	bRungs := Ladder(bb.Fleet.Web, bb.Fleet.Cache, len(ScaleNames))
	rows := make([]Scale, len(mRungs))
	for i, r := range mRungs {
		rows[i] = Scale{Name: ScaleNames[i], Tiers: []Tier{TierOn(micro, r[0], r[1])}}
		if i < len(bRungs) {
			rows[i].Tiers = append(rows[i].Tiers, TierOn(brawny, bRungs[i][0], bRungs[i][1]))
		}
	}
	return rows
}
