package netsim_test

import (
	"math"
	"math/rand"
	"testing"

	"edisim/internal/cluster"
	"edisim/internal/netsim"
	"edisim/internal/sim"
	"edisim/internal/units"
)

// oracle is the store-and-forward model that planned legs replace.
// Each link is a capacity-1 sim.Resource and every hop costs two engine
// events: transmitted, when the last byte leaves the link, and propagated,
// when it reaches the far end. A message is dropped when its link is down
// at the moment it acquires it; its transmission time uses the capacity
// of that moment. The oracle reads topology, capacity and scale from its
// own fabric, which carries no messages.
type oracle struct {
	eng   *sim.Engine
	fab   *netsim.Fabric
	links map[*netsim.Link]*oracleLink
}

type oracleLink struct {
	q     *sim.Resource
	bytes units.Bytes
}

func (o *oracle) link(l *netsim.Link) *oracleLink {
	ol := o.links[l]
	if ol == nil {
		ol = &oracleLink{q: sim.NewResource(o.eng, 1)}
		o.links[l] = ol
	}
	return ol
}

func (o *oracle) send(src, dst string, size units.Bytes, done func()) {
	if src == dst {
		o.eng.After(0, done)
		return
	}
	path := o.fab.Route(src, dst)
	var hop func(i int)
	hop = func(i int) {
		if i == len(path) {
			done()
			return
		}
		l := path[i]
		ol := o.link(l)
		ol.q.Acquire(func() {
			if l.Down() {
				ol.q.Release()
				return
			}
			o.eng.After(float64(size)/(float64(l.Capacity)*l.Scale()), func() {
				ol.q.Release()
				ol.bytes += size
				o.eng.After(l.Delay, func() { hop(i + 1) })
			})
		})
	}
	hop(0)
}

func (o *oracle) roundTrip(src, dst string, req, resp units.Bytes, done func()) {
	o.send(src, dst, req, func() { o.send(dst, src, resp, done) })
}

func (o *oracle) totalBytes() units.Bytes {
	var total units.Bytes
	for _, ol := range o.links {
		total += ol.bytes
	}
	return total
}

// oracleNet builds a network on eng and returns it with the hosts that
// send; each test builds it twice, for the fabric under test and for the
// oracle.
type oracleNet func(eng *sim.Engine) (f *netsim.Fabric, hosts []string)

func table6Net(eng *sim.Engine) (*netsim.Fabric, []string) {
	tb := cluster.NewOn(eng, cluster.DefaultConfig())
	var hosts []string
	for _, g := range tb.Groups {
		for _, n := range g.Nodes {
			hosts = append(hosts, n.ID)
		}
	}
	for _, n := range tb.DB {
		hosts = append(hosts, n.ID)
	}
	return tb.Fab, append(hosts, tb.Clients...)
}

func leafSpineNet(eng *sim.Engine) (*netsim.Fabric, []string) {
	return cluster.LeafSpine(eng, cluster.LeafSpineConfig{Spines: 2, Leaves: 4, HostsPerLeaf: 6,
		HostLink: units.Mbps(100), Uplink: units.Gbps(1)})
}

// roundTrip sends a request from src to dst and, when it arrives, the
// reply back; done runs when the reply arrives.
func roundTrip(f *netsim.Fabric, src, dst string, req, resp units.Bytes, done func()) {
	s, d := f.Vertex(src), f.Vertex(dst)
	f.Send(s, d, req, func() { f.Send(d, s, resp, done) })
}

// TestClosedFormHopsMatchOracle drives the fabric and the two-event oracle
// with the same random traffic: Sends and round trips (a request Send
// whose delivery sends the reply) of random sizes at
// random times, a few hot destinations so that links queue, and random
// cuts, heals and degrades of hosts and switches. Random times make exact
// ties vanishingly unlikely, so every message must be delivered at exactly
// the same time in both, the same messages must be dropped, and TotalBytes
// must agree at random instants.
func TestClosedFormHopsMatchOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  oracleNet
	}{
		{"table6", table6Net},
		{"leafspine", leafSpineNet},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			checkAgainstOracle(t, tc.name, tc.net, seed)
		}
	}
}

func checkAgainstOracle(t *testing.T, name string, build oracleNet, seed int64) {
	t.Helper()
	eng, oeng := sim.NewEngine(), sim.NewEngine()
	f, hosts := build(eng)
	of, _ := build(oeng)
	o := &oracle{eng: oeng, fab: of, links: map[*netsim.Link]*oracleLink{}}

	// Fault targets: every vertex on a route between hosts, switches too.
	seen := map[string]bool{}
	var vertices []string
	for _, h := range hosts {
		for _, l := range f.Route(hosts[0], h) {
			for _, v := range []string{l.Src, l.Dst} {
				if !seen[v] {
					seen[v] = true
					vertices = append(vertices, v)
				}
			}
		}
	}

	rnd := rand.New(rand.NewSource(seed))
	const horizon = 1.0
	const msgs = 3000
	got := make([]float64, msgs)
	want := make([]float64, msgs)
	for i := range got {
		got[i], want[i] = -1, -1
	}
	hot := []string{hosts[rnd.Intn(len(hosts))], hosts[rnd.Intn(len(hosts))]}
	for i := 0; i < msgs; i++ {
		at := sim.Time(rnd.Float64() * horizon)
		src := hosts[rnd.Intn(len(hosts))]
		dst := hosts[rnd.Intn(len(hosts))]
		if rnd.Intn(2) == 0 {
			dst = hot[rnd.Intn(len(hot))]
		}
		size := units.Bytes(math.Exp(rnd.Float64() * math.Log(128e3)))
		i := i
		gotFn := func() { got[i] = float64(eng.Now()) }
		wantFn := func() { want[i] = float64(oeng.Now()) }
		if rnd.Intn(4) == 0 {
			resp := units.Bytes(rnd.Intn(4000))
			eng.At(at, func() { roundTrip(f, src, dst, size, resp, gotFn) })
			oeng.At(at, func() { o.roundTrip(src, dst, size, resp, wantFn) })
		} else {
			eng.At(at, func() { f.Send(f.Vertex(src), f.Vertex(dst), size, gotFn) })
			oeng.At(at, func() { o.send(src, dst, size, wantFn) })
		}
	}
	// Fault episodes: a cut or degrade, restored a few milliseconds later;
	// episodes on one vertex may overlap.
	fault := func(at sim.Time, v string, scale float64) {
		eng.At(at, func() { f.SetVertexLinks(v, scale) })
		oeng.At(at, func() { of.SetVertexLinks(v, scale) })
	}
	scales := []float64{0, 0, 0.3, 0.7}
	for i := 0; i < 60; i++ {
		at := sim.Time(rnd.Float64() * horizon)
		v := vertices[rnd.Intn(len(vertices))]
		fault(at, v, scales[rnd.Intn(len(scales))])
		fault(at+sim.Time(rnd.ExpFloat64()*0.01), v, 1)
	}
	const samples = 200
	var gotBytes, wantBytes [samples]units.Bytes
	for i := 0; i < samples; i++ {
		at := sim.Time(rnd.Float64() * 1.2 * horizon)
		eng.At(at, func() { gotBytes[i] = f.TotalBytes() })
		oeng.At(at, func() { wantBytes[i] = o.totalBytes() })
	}
	eng.Run()
	oeng.Run()

	delivered, dropped := 0, 0
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s seed %d: message %d delivered at %v, oracle %v", name, seed, i, got[i], want[i])
		}
		if got[i] < 0 {
			dropped++
		} else {
			delivered++
		}
	}
	for i := range gotBytes {
		if gotBytes[i] != wantBytes[i] {
			t.Fatalf("%s seed %d: sample %d TotalBytes %v, oracle %v", name, seed, i, gotBytes[i], wantBytes[i])
		}
	}
	if f.TotalBytes() != o.totalBytes() {
		t.Fatalf("%s seed %d: final TotalBytes %v, oracle %v", name, seed, f.TotalBytes(), o.totalBytes())
	}
	if dropped == 0 || delivered < msgs/2 {
		t.Fatalf("%s seed %d: %d delivered, %d dropped; the traffic does not exercise faults", name, seed, delivered, dropped)
	}
	t.Logf("%s seed %d: %d delivered, %d dropped, %d events (oracle %d)", name, seed, delivered, dropped, eng.Fired(), oeng.Fired())
}

// slimSpineNet is leafSpineNet with uplinks no faster than the hosts'
// links, so legs merging from several leaves queue at the spine.
func slimSpineNet(eng *sim.Engine) (*netsim.Fabric, []string) {
	return cluster.LeafSpine(eng, cluster.LeafSpineConfig{Spines: 2, Leaves: 4, HostsPerLeaf: 6,
		HostLink: units.Mbps(100), Uplink: units.Mbps(100)})
}

// TestOvertakingMatchesOracle drives traffic built to overtake against the
// two-event oracle. Hosts two hops from one hot host (on its leaf, or on
// its switch) and hosts four or more hops away (across a spine, or across
// the zero-delay edison-root↔core hop of the Table 6 net) send to it in
// bursts: legs from several far hosts, then near legs sent a moment later
// that reach the shared links first. Far legs from different hosts also
// overtake each other where they merge upstream, pushing back legs that
// still have hops to go. Cuts and degrades run throughout. Every delivery
// must match the oracle exactly, and the fabric must have both reordered
// plans and carried re-plans down later hops, so the test fails if either
// path goes unexercised.
func TestOvertakingMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  oracleNet
		hot  func(hosts []string) string
	}{
		{"leafspine", slimSpineNet, func(hosts []string) string { return hosts[0] }},
		{"table6", table6Net, func([]string) string { return "db0" }},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			checkOvertaking(t, tc.name, tc.net, tc.hot, seed)
		}
	}
}

func checkOvertaking(t *testing.T, name string, build oracleNet, pickHot func([]string) string, seed int64) {
	t.Helper()
	eng, oeng := sim.NewEngine(), sim.NewEngine()
	f, hosts := build(eng)
	of, _ := build(oeng)
	o := &oracle{eng: oeng, fab: of, links: map[*netsim.Link]*oracleLink{}}
	hot := pickHot(hosts)
	var near, far, vertices []string
	seen := map[string]bool{}
	for _, h := range hosts {
		switch n := len(f.Route(h, hot)); {
		case n == 2:
			near = append(near, h)
		case n >= 4:
			far = append(far, h)
		}
		for _, l := range f.Route(h, hot) {
			if !seen[l.Src] {
				seen[l.Src] = true
				vertices = append(vertices, l.Src)
			}
		}
	}
	if len(near) == 0 || len(far) == 0 {
		t.Fatalf("%s: %d near and %d far senders to %s", name, len(near), len(far), hot)
	}

	rnd := rand.New(rand.NewSource(seed))
	const horizon = 0.5
	var got, want []float64
	send := func(at sim.Time, src string, size units.Bytes, reply bool) {
		i := len(got)
		got, want = append(got, -1), append(want, -1)
		gotFn := func() { got[i] = float64(eng.Now()) }
		wantFn := func() { want[i] = float64(oeng.Now()) }
		if reply {
			eng.At(at, func() { roundTrip(f, src, hot, size, 1500, gotFn) })
			oeng.At(at, func() { o.roundTrip(src, hot, size, 1500, wantFn) })
			return
		}
		eng.At(at, func() { f.Send(f.Vertex(src), f.Vertex(hot), size, gotFn) })
		oeng.At(at, func() { o.send(src, hot, size, wantFn) })
	}
	for b := 0; b < 400; b++ {
		at := sim.Time(rnd.Float64() * horizon)
		for k := rnd.Intn(4); k >= 0; k-- {
			size := units.Bytes(math.Exp(rnd.Float64() * math.Log(64e3)))
			send(at, far[rnd.Intn(len(far))], size, rnd.Intn(4) == 0)
			at += sim.Time(rnd.ExpFloat64() * 2e-4)
		}
		for k := rnd.Intn(3); k >= 0; k-- {
			send(at, near[rnd.Intn(len(near))], units.Bytes(100+rnd.Intn(2000)), rnd.Intn(4) == 0)
			at += sim.Time(rnd.ExpFloat64() * 2e-4)
		}
	}
	scales := []float64{0, 0.3, 0.7}
	for i := 0; i < 30; i++ {
		at := sim.Time(rnd.Float64() * horizon)
		v := vertices[rnd.Intn(len(vertices))]
		scale := scales[rnd.Intn(len(scales))]
		heal := at + sim.Time(rnd.ExpFloat64()*0.005)
		eng.At(at, func() { f.SetVertexLinks(v, scale) })
		oeng.At(at, func() { of.SetVertexLinks(v, scale) })
		eng.At(heal, func() { f.SetVertexLinks(v, 1) })
		oeng.At(heal, func() { of.SetVertexLinks(v, 1) })
	}
	eng.Run()
	oeng.Run()

	dropped := 0
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s seed %d: message %d delivered at %v, oracle %v", name, seed, i, got[i], want[i])
		}
		if got[i] < 0 {
			dropped++
		}
	}
	if f.TotalBytes() != o.totalBytes() {
		t.Fatalf("%s seed %d: TotalBytes %v, oracle %v", name, seed, f.TotalBytes(), o.totalBytes())
	}
	st := f.PlanStats()
	if st.Reorders == 0 || st.Replans == 0 || dropped == 0 {
		t.Fatalf("%s seed %d: %d reorders, %d re-plans, %d dropped; the traffic must overtake, re-plan and hit faults",
			name, seed, st.Reorders, st.Replans, dropped)
	}
	t.Logf("%s seed %d: %d messages, %d dropped, %d reorders, %d re-plans", name, seed, len(got), dropped, st.Reorders, st.Replans)
}
