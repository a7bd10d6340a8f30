package netsim_test

import (
	"fmt"
	"slices"
	"testing"

	"edisim/internal/cluster"
	"edisim/internal/hw"
	"edisim/internal/units"
)

// TestSlackLinksOnHadoopTestbeds classifies the links of the Hadoop
// testbeds that cluster.New builds, once every node has sent a flow: the
// slaves and the master, a Dell for the micro platforms (§5.2). On 35E the
// ten Edison box uplink directions and dell-tor↔core are slack: a box's
// seven 100 Mb/s NICs cannot fill its 1 Gb/s uplink, nor the one Dell NIC
// the 10 Gb/s ToR uplink. edison-root↔core, fed by five box uplinks and
// the ToR, stays binding, as does every NIC link. The Dell-only and Pi 3
// testbeds follow the same rule.
func TestSlackLinksOnHadoopTestbeds(t *testing.T) {
	edison, dell := hw.BaselinePair()
	pi3, ok := hw.LookupPlatform("pi3")
	if !ok {
		t.Fatal("no pi3 platform")
	}
	boxes := func(prefix, root string, n int) []string {
		var s []string
		for b := range n {
			box := fmt.Sprintf("%s%d", prefix, b)
			s = append(s, box+"->"+root, root+"->"+box)
		}
		return s
	}
	tor := []string{"dell-tor->core", "core->dell-tor"}
	for _, tc := range []struct {
		name   string
		groups []cluster.GroupConfig
		slack  []string
	}{
		{"35E", []cluster.GroupConfig{{Platform: edison, Nodes: 35}, {Platform: dell, Nodes: 1}},
			append(boxes("edison-box", "edison-root", 5), tor...)},
		{"2D", []cluster.GroupConfig{{Platform: dell, Nodes: 3}}, tor},
		{"pi3", []cluster.GroupConfig{{Platform: pi3, Nodes: 24}, {Platform: dell, Nodes: 1}},
			append(boxes("pi3-shelf", "pi3-root", 3), tor...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := cluster.New(cluster.Config{Groups: tc.groups})
			var nodes []string
			for _, g := range tb.Groups {
				for _, n := range g.Nodes {
					nodes = append(nodes, n.ID)
				}
			}
			for i, n := range nodes {
				tb.Fab.StartFlow(n, nodes[(i+1)%len(nodes)], units.GB, nil)
			}
			tb.Eng.RunUntil(10e-3)
			var slack []string
			for _, l := range tb.Fab.Links() {
				if l.Slack() {
					slack = append(slack, l.Src+"->"+l.Dst)
				}
			}
			slices.Sort(slack)
			want := slices.Sorted(slices.Values(tc.slack))
			if !slices.Equal(slack, want) {
				t.Fatalf("slack links %v, want %v", slack, want)
			}
		})
	}
}
