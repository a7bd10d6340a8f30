package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// boxFabric builds the paper's Hadoop testbed shape (§3, Figure 1): 35
// Edison-class hosts on 100 Mb/s NICs in five boxes of seven, each box
// under a 1 Gb/s uplink to a root switch. Each uplink carries at most the
// 700 Mb/s of its box, so all ten uplink directions are slack once the
// hosts send.
func boxFabric(eng *sim.Engine) (*Fabric, []string) {
	f := NewFabric(eng)
	f.AddVertex("root")
	var hosts []string
	for b := 0; b < 5; b++ {
		box := fmt.Sprintf("box%d", b)
		f.AddVertex(box)
		f.Connect(box, "root", units.Gbps(1), 0.05e-3)
		for h := 0; h < 7; h++ {
			host := fmt.Sprintf("e%02d", len(hosts))
			f.AddVertex(host)
			f.Connect(host, box, units.Mbps(100), 0.3e-3)
			hosts = append(hosts, host)
		}
	}
	return f, hosts
}

// slackLinks returns the fabric's slack links.
func slackLinks(f *Fabric) []*Link {
	var s []*Link
	for _, l := range f.links {
		if l.slack {
			s = append(s, l)
		}
	}
	return s
}

// slackUplinks counts the box testbed's slack box uplink directions.
func slackUplinks(f *Fabric) int {
	n := 0
	for _, l := range slackLinks(f) {
		if l.Src == "root" || l.Dst == "root" {
			n++
		}
	}
	return n
}

// TestSlackPruningMatchesBindingEveryLink drives random flow traces
// through link cut, degrade and restore storms on two fabrics: one that
// leaves slack links out of the sharing graph, and one whose every link
// binds (bindEveryLink). The fabrics are the box testbed, whose storms
// cut and degrade the root and so every box uplink, and random
// leaf-spines, some with one spine and slack uplinks. Every sampled rate,
// every completion time (an aborted flow never completes) and every
// link's byte count must be bit-identical.
func TestSlackPruningMatchesBindingEveryLink(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pruned := 0
	for c := range 12 {
		build := boxFabric
		victims := []string{"root", "box1", "e03"}
		if c%2 == 1 {
			build = randomLeafSpine(rng)
			victims = []string{"spine0", "leaf1", "h0-1"}
		}
		_, hosts := build(sim.NewEngine())
		trace := randomTrace(rng, hosts, 150)

		run := func(bindAll bool) ([]sim.Time, []float64, []units.Bytes, *Fabric) {
			eng := sim.NewEngine()
			f, _ := build(eng)
			if bindAll {
				f.bindEveryLink()
			}
			faultStorm(eng, f, victims)
			done, rates := driveTrace(eng, f, trace)
			f.FlushProgress()
			bytes := make([]units.Bytes, len(f.links))
			for i, l := range f.links {
				bytes[i] = l.bytes
			}
			return done, rates, bytes, f
		}
		doneP, ratesP, bytesP, fp := run(false)
		doneB, ratesB, bytesB, fb := run(true)

		if n := len(slackLinks(fb)); n != 0 {
			t.Fatalf("case %d: %d slack links with every link binding", c, n)
		}
		pruned += len(slackLinks(fp))
		finished := 0
		for i := range doneP {
			if math.Float64bits(float64(doneP[i])) != math.Float64bits(float64(doneB[i])) {
				t.Fatalf("case %d: flow %d (%s->%s) done at %v pruned, %v binding every link",
					c, i, trace[i].src, trace[i].dst, doneP[i], doneB[i])
			}
			if doneP[i] != 0 {
				finished++
			}
		}
		if finished == 0 || finished == len(trace) {
			t.Fatalf("case %d: %d of %d flows finished; the storm must abort some and spare some", c, finished, len(trace))
		}
		for i := range ratesP {
			if math.Float64bits(ratesP[i]) != math.Float64bits(ratesB[i]) {
				t.Fatalf("case %d: rate sample %d is %v pruned, %v binding every link", c, i, ratesP[i], ratesB[i])
			}
		}
		for i := range bytesP {
			if bytesP[i] != bytesB[i] {
				t.Fatalf("case %d: link %s->%s carried %d bytes pruned, %d binding every link",
					c, fp.links[i].Src, fp.links[i].Dst, bytesP[i], bytesB[i])
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no fabric had a slack link; the traces do not exercise pruning")
	}
}

// fillAlone water-fills each connected component of the given flows on
// its own, from one of its links, and returns every flow's share.
func fillAlone(f *Fabric, flows []*Flow) map[*Flow]float64 {
	alone := map[*Flow]float64{}
	for _, fl := range flows {
		if _, ok := alone[fl]; ok {
			continue
		}
		f.markDirty(fl.links[0].l)
		cf, cl := f.affectedFlows()
		cf, cl = slices.Clone(cf), slices.Clone(cl)
		f.waterFill(cf, cl)
		for _, g := range cf {
			alone[g] = g.fill
		}
	}
	return alone
}

// TestFillingComponentsTogetherMatchesAlone water-fills several disjoint
// components in one pass and each component alone, and requires
// bit-identical shares. The first case has two one-link components whose
// shares differ by one part in 1e13, so a tie tolerance would freeze one
// at the other's share; the rest are random flows, mostly inside a box,
// on the box testbed with some vertices degraded.
func TestFillingComponentsTogetherMatchesAlone(t *testing.T) {
	nearTie := func(eng *sim.Engine) (*Fabric, [][2]string) {
		f := NewFabric(eng)
		for _, v := range []string{"a", "b", "c", "d"} {
			f.AddVertex(v)
		}
		f.Connect("a", "b", units.Mbps(100), 0)
		f.Connect("c", "d", units.Mbps(100)*(1+1e-13), 0)
		return f, [][2]string{{"a", "b"}, {"a", "b"}, {"c", "d"}, {"c", "d"}}
	}
	rng := rand.New(rand.NewSource(17))
	randomBoxes := func(eng *sim.Engine) (*Fabric, [][2]string) {
		f, hosts := boxFabric(eng)
		for range rng.Intn(4) {
			f.SetVertexLinks(f.names[rng.Intn(len(f.names))], 0.05+0.9*rng.Float64())
		}
		var pairs [][2]string
		for range 2 + rng.Intn(40) {
			src, dst := rng.Intn(len(hosts)), rng.Intn(len(hosts)-1)
			if rng.Intn(6) != 0 {
				dst = src/7*7 + rng.Intn(6) // same box
			}
			if dst >= src {
				dst++
			}
			pairs = append(pairs, [2]string{hosts[src], hosts[dst]})
		}
		return f, pairs
	}
	multi := 0
	for c := range 200 {
		build := randomBoxes
		if c == 0 {
			build = nearTie
		}
		eng := sim.NewEngine()
		f, pairs := build(eng)
		for _, p := range pairs {
			f.StartFlow(p[0], p[1], units.GB, nil)
		}
		eng.RunUntil(50e-3)

		for _, l := range f.links {
			f.markDirty(l)
		}
		flows, links := f.affectedFlows()
		flows, links = slices.Clone(flows), slices.Clone(links)
		f.waterFill(flows, links)
		together := map[*Flow]float64{}
		for _, fl := range flows {
			together[fl] = fl.fill
		}
		alone := fillAlone(f, flows)
		shares := map[float64]bool{}
		for fl, share := range together {
			if math.Float64bits(share) != math.Float64bits(alone[fl]) {
				t.Fatalf("case %d: flow %s->%s share %v filled together, %v alone", c, fl.Src, fl.Dst, share, alone[fl])
			}
			shares[share] = true
		}
		if c == 0 && len(shares) != 2 {
			t.Fatalf("near-tie case: %d distinct shares, want 2", len(shares))
		}
		if len(shares) > 1 {
			multi++
		}
	}
	if multi < 100 {
		t.Fatalf("only %d of 200 cases filled flows at more than one share", multi)
	}
}

// TestBoxUplinksAreSlack: on the box testbed, once every host has sent,
// exactly the ten box uplink directions are slack, and a flow between
// boxes is listed on its two NIC links only.
func TestBoxUplinksAreSlack(t *testing.T) {
	eng := sim.NewEngine()
	f, hosts := boxFabric(eng)
	for i, h := range hosts {
		f.StartFlow(h, hosts[(i+7)%len(hosts)], units.GB, nil)
	}
	eng.RunUntil(10e-3)
	slack := slackLinks(f)
	if len(slack) != 10 {
		t.Fatalf("%d slack links %v, want the 10 box uplink directions", len(slack), slack)
	}
	for _, l := range slack {
		if !(l.Src == "root") && !(l.Dst == "root") {
			t.Fatalf("slack link %s->%s is not a box uplink", l.Src, l.Dst)
		}
	}
	ref := f.StartFlow("e00", "e08", units.GB, nil)
	eng.RunUntil(20e-3)
	if n := len(ref.fl.links); n != 2 {
		t.Fatalf("cross-box flow listed on %d links, want its 2 NIC links", n)
	}
}

// TestCutSlackUplinksAbortsCrossingFlows: cutting the box testbed's root
// cuts every box uplink, all slack until then. The cut links turn binding
// and list their crossing flows first, so exactly the flows between boxes
// abort, as in the eager oracle, and the flows inside a box finish.
func TestCutSlackUplinksAbortsCrossingFlows(t *testing.T) {
	run := func(m flowModel, eng *sim.Engine, hosts []string) []bool {
		done := make([]bool, 2*len(hosts))
		for i, h := range hosts {
			box := i / 7 * 7
			inside, across := hosts[box+(i-box+1)%7], hosts[(i+7)%len(hosts)]
			m.StartFlow(h, inside, 10*units.MB, func() { done[2*i] = true })
			m.StartFlow(h, across, 10*units.MB, func() { done[2*i+1] = true })
		}
		eng.At(0.05, func() { m.SetVertexLinks("root", 0) })
		eng.Run()
		return done
	}
	eng := sim.NewEngine()
	f, hosts := boxFabric(eng)
	eng.At(0.04, func() {
		if n := slackUplinks(f); n != 10 {
			t.Errorf("%d slack box uplinks before the cut, want 10", n)
		}
	})
	got := run(f, eng, hosts)
	oeng := sim.NewEngine()
	of, _ := boxFabric(oeng)
	want := run(newEagerOracle(oeng, of), oeng, hosts)
	for i := range got {
		crosses := i%2 == 1
		if got[i] == crosses || want[i] == crosses {
			t.Fatalf("flow %d (crosses boxes: %v): finished %v, oracle %v", i, crosses, got[i], want[i])
		}
	}
	if n := f.ActiveFlows(); n != 0 {
		t.Fatalf("%d flows left active", n)
	}
}

// TestDegradedSlackUplinkBinds: degrading the root to half makes each box
// uplink (500 Mb/s) narrower than its seven 100 Mb/s feeders, so it turns
// binding and caps box 0's seven flows to box 1 at a seventh of it. Their
// rates equal the eager oracle's bit for bit, and restoring the root
// frees them and makes the uplinks slack again.
func TestDegradedSlackUplinkBinds(t *testing.T) {
	type sample struct{ healthy, degraded, restored []float64 }
	run := func(m flowModel, eng *sim.Engine, hosts []string, check func(slack int)) sample {
		var refs []FlowRef
		for i := 0; i < 7; i++ {
			refs = append(refs, m.StartFlow(hosts[i], hosts[7+i], units.Bytes(1e18), nil))
			refs = append(refs, m.StartFlow(hosts[14+i], hosts[14+(i+1)%7], units.Bytes(1e18), nil))
		}
		rates := func() []float64 {
			r := make([]float64, len(refs))
			for i, ref := range refs {
				r[i] = float64(ref.Rate())
			}
			return r
		}
		var s sample
		eng.At(0.04, func() { s.healthy = rates(); check(10) })
		eng.At(0.05, func() { m.SetVertexLinks("root", 0.5) })
		eng.At(0.06, func() { s.degraded = rates(); check(0) })
		eng.At(0.07, func() { m.SetVertexLinks("root", 1) })
		eng.At(0.08, func() { s.restored = rates(); check(10) })
		eng.RunUntil(0.1)
		return s
	}
	eng := sim.NewEngine()
	f, hosts := boxFabric(eng)
	got := run(f, eng, hosts, func(want int) {
		if n := slackUplinks(f); n != want {
			t.Errorf("at %v: %d slack box uplinks, want %d", eng.Now(), n, want)
		}
	})
	oeng := sim.NewEngine()
	of, _ := boxFabric(oeng)
	want := run(newEagerOracle(oeng, of), oeng, hosts, func(int) {})
	nic, capped := float64(units.Mbps(100)), float64(units.Mbps(500))/7
	for i := range got.degraded {
		for _, c := range []struct {
			name      string
			got, want []float64
			expect    float64
		}{
			{"healthy", got.healthy, want.healthy, nic},
			{"degraded", got.degraded, want.degraded, nic},
			{"restored", got.restored, want.restored, nic},
		} {
			expect := c.expect
			if c.name == "degraded" && i%2 == 0 {
				expect = capped // box 0 to box 1, through the halved uplink
			}
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) || !almost(c.got[i], expect, 1e-12) {
				t.Fatalf("%s flow %d: rate %v, oracle %v, want %v", c.name, i, c.got[i], c.want[i], expect)
			}
		}
	}
}

// BenchmarkShuffleReallocateBoxes is BenchmarkShuffleReallocate on the
// box testbed: all-to-all flows among 35 hosts in five boxes of seven,
// whose 1 Gb/s box uplinks are slack, so each flow is listed on its two
// NIC links only. Each op admits and completes one flow.
func BenchmarkShuffleReallocateBoxes(b *testing.B) {
	eng := sim.NewEngine()
	f, hosts := boxFabric(eng)
	benchShuffle(b, eng, f, hosts)
}

// TestScaledUpFeederKeepsLinkBinding: a link scaled above its nameplate
// feeds more than its nameplate. On h1 -100- s1 -150- s2 -100- h2 with
// both hosts' links scaled to 200 Mb/s, the 150 Mb/s middle link limits
// the flow, and the host links, which it feeds or is fed by, are slack.
// Judged by its feeders' nameplates (100 Mb/s) the middle link would be
// slack too, and the flow would be listed nowhere.
func TestScaledUpFeederKeepsLinkBinding(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng)
	for _, v := range []string{"h1", "s1", "s2", "h2"} {
		f.AddVertex(v)
	}
	f.Connect("h1", "s1", units.Mbps(100), 0)
	f.Connect("s1", "s2", units.Mbps(150), 0)
	f.Connect("s2", "h2", units.Mbps(100), 0)
	f.SetVertexLinks("h1", 2)
	f.SetVertexLinks("h2", 2)
	ref := f.StartFlow("h1", "h2", units.GB, nil)
	eng.RunUntil(1e-3)
	if got, want := float64(ref.Rate()), float64(units.Mbps(150)); got != want {
		t.Fatalf("rate %v, want the middle link's %v", got, want)
	}
	if links := ref.fl.links; len(links) != 1 || links[0].l.Src != "s1" {
		t.Fatalf("flow listed on %d links, want only s1->s2", len(links))
	}
}
