package netsim

import (
	"fmt"
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// TestMessageRecordsRecycled: a delivered message returns its record to the
// pool and the next Send reuses it.
func TestMessageRecordsRecycled(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	f.Send(f.Vertex("a"), f.Vertex("b"), 1000, nil)
	eng.Run()
	if got := len(f.freeMsgs); got != msgChunk {
		t.Fatalf("free list has %d records after delivery, want %d", got, msgChunk)
	}
	m1 := f.freeMsgs[len(f.freeMsgs)-1]
	f.Send(f.Vertex("a"), f.Vertex("b"), 1000, nil)
	if len(f.freeMsgs) != msgChunk-1 {
		t.Fatal("record not taken from the pool")
	}
	eng.Run()
	if m2 := f.freeMsgs[len(f.freeMsgs)-1]; m1 != m2 {
		t.Fatal("record not reused from the pool")
	}
	if m1.done != nil || m1.path != nil {
		t.Fatal("recycled record retains its callback or path")
	}
}

// TestRoundTripSameHost: a self request/reply, two self Sends, still
// completes asynchronously, after two zero-delay events (request leg,
// reply leg).
func TestRoundTripSameHost(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	a := f.Vertex("a")
	done := false
	f.Send(a, a, 100, func() { f.Send(a, a, 100, func() { done = true }) })
	if done {
		t.Fatal("self round trip completed synchronously")
	}
	eng.Run()
	if !done {
		t.Fatal("self round trip never completed")
	}
	if eng.Fired() != 2 {
		t.Fatalf("self round trip fired %d events, want 2", eng.Fired())
	}
}

// TestSendSteadyStateNoAlloc: after warm-up, the per-request hot path —
// Send, a request Send whose delivery sends the reply, and
// ProcShare.Submit — must not allocate, including when messages queue
// behind a busy link (the saturated-sweep regime).
func TestSendSteadyStateNoAlloc(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	cpu := sim.NewProcShare(eng, 2, 1000)
	mf := mergeFabric(eng)
	a, b := f.Vertex("a"), f.Vertex("b")
	fn := func() {}
	reply := func() { f.Send(b, a, 100, fn) }
	// Warm the pools, the route cache and the waiter ring.
	for i := 0; i < 10; i++ {
		f.Send(a, b, 1000, fn)
		f.Send(a, b, 100, reply)
		cpu.Submit(1, fn)
		sendMerge(mf, fn)
		eng.Run()
	}
	cases := []struct {
		name string
		op   func()
	}{
		{"Send", func() { f.Send(a, b, 1000, fn) }},
		{"Send + reply", func() { f.Send(a, b, 100, reply) }},
		{"ProcShare.Submit", func() { cpu.Submit(1, fn) }},
		{"Send burst (queued)", func() {
			for j := 0; j < 8; j++ {
				f.Send(a, b, 1000, fn)
			}
		}},
		{"Send merge (overtaking)", func() { sendMerge(mf, fn) }},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(500, func() {
			c.op()
			eng.Run()
		})
		if allocs > 0 {
			t.Errorf("%s allocates %.1f objects per op in steady state, want 0", c.name, allocs)
		}
	}
}

// BenchmarkSend measures the store-and-forward messaging path: one
// RPC-sized message over two hops, start to delivery.
func BenchmarkSend(b *testing.B) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Gbps(1), 0)
	src, dst := f.Vertex("a"), f.Vertex("b")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(src, dst, 1000, nil)
		eng.Run()
	}
}

// BenchmarkSendQueued keeps 8 messages contending for the access link per
// round, the saturated shape where waiters queue.
func BenchmarkSendQueued(b *testing.B) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Gbps(1), 0)
	src, dst := f.Vertex("a"), f.Vertex("b")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			f.Send(src, dst, 1000, nil)
		}
		eng.Run()
	}
}

// BenchmarkSendReply measures a full request/reply exchange: a request
// Send whose delivery sends the reply, which reuses the request's pooled
// record.
func BenchmarkSendReply(b *testing.B) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Gbps(1), 0)
	src, dst := f.Vertex("a"), f.Vertex("b")
	reply := func() { f.Send(dst, src, 100, nil) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(src, dst, 100, reply)
		eng.Run()
	}
}

// mergeNet is two leaves under one spine, every link 1 Gbps: near hosts
// n0..n3 and the hot host h on leaf la, far hosts f0..f3 on leaf lb.
type mergeNet struct {
	*Fabric
	near, far [4]Vertex
	h         Vertex
}

// mergeFabric builds a mergeNet on eng.
func mergeFabric(eng *sim.Engine) *mergeNet {
	f := NewFabric(eng)
	for _, v := range []string{"spine", "la", "lb", "h", "n0", "n1", "n2", "n3", "f0", "f1", "f2", "f3"} {
		f.AddVertex(v)
	}
	f.Connect("la", "spine", units.Gbps(1), 5e-6)
	f.Connect("lb", "spine", units.Gbps(1), 5e-6)
	f.Connect("h", "la", units.Gbps(1), 1e-6)
	for i := 0; i < 4; i++ {
		f.Connect(fmt.Sprintf("n%d", i), "la", units.Gbps(1), 1e-6)
		f.Connect(fmt.Sprintf("f%d", i), "lb", units.Gbps(1), 1e-6)
	}
	m := &mergeNet{Fabric: f, h: f.Vertex("h")}
	for i := range 4 {
		m.near[i], m.far[i] = f.Vertex(fmt.Sprintf("n%d", i)), f.Vertex(fmt.Sprintf("f%d", i))
	}
	return m
}

// sendMerge sends one round of legs that merge on their way to h: four
// far legs (4 hops), largest first, so each smaller one reaches lb→spine
// ahead of the larger ones sent before it and pushes them back down the
// rest of their paths; then four near legs (2 hops) that reach la→h
// ahead of every far leg.
func sendMerge(m *mergeNet, done func()) {
	for i, src := range m.far {
		m.Send(src, m.h, units.Bytes(4000-900*i), done)
	}
	for _, src := range m.near {
		m.Send(src, m.h, 600, done)
	}
}

// BenchmarkSendMerge measures multi-hop legs from several sources that
// merge on shared links, the shape where legs sent later arrive first and
// plans are reordered and re-planned. One op is one round of sendMerge,
// start to the last delivery.
func BenchmarkSendMerge(b *testing.B) {
	eng := sim.NewEngine()
	f := mergeFabric(eng)
	sendMerge(f, nil)
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendMerge(f, nil)
		eng.Run()
	}
}
