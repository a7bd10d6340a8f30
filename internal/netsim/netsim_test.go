package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"edisim/internal/sim"
	"edisim/internal/units"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// lineFabric builds a -- sw -- b with the given access capacity and delay.
func lineFabric(eng *sim.Engine, capacity units.BytesPerSec, delay float64) *Fabric {
	f := NewFabric(eng)
	for _, v := range []string{"a", "sw", "b"} {
		f.AddVertex(v)
	}
	f.Connect("a", "sw", capacity, delay)
	f.Connect("b", "sw", capacity, delay)
	return f
}

func TestRouteShortestPath(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 1e-3)
	p := f.Route("a", "b")
	if len(p) != 2 || p[0].Src != "a" || p[1].Dst != "b" {
		t.Fatalf("route %v", p)
	}
	if f.Route("a", "a") != nil {
		t.Fatal("self route not nil")
	}
}

func TestRouteMissingPanics(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng)
	f.AddVertex("a")
	f.AddVertex("b") // not connected
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unroutable pair")
		}
	}()
	f.Route("a", "b")
}

func TestLatencyAndRTT(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0.3e-3)
	if !almost(f.Latency("a", "b"), 0.6e-3, 1e-12) {
		t.Fatalf("latency %g", f.Latency("a", "b"))
	}
	if !almost(f.RTT("a", "b"), 1.2e-3, 1e-12) {
		t.Fatalf("rtt %g", f.RTT("a", "b"))
	}
}

func TestSendTransferTime(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0) // 12.5e6 B/s decimal
	var doneAt sim.Time
	f.Send(f.Vertex("a"), f.Vertex("b"), units.Bytes(12.5e6), func() { doneAt = eng.Now() })
	eng.Run()
	// Store-and-forward over two hops: 1 s per hop.
	if !almost(float64(doneAt), 2.0, 1e-9) {
		t.Fatalf("transfer done at %v, want 2.0", doneAt)
	}
}

func TestSendQueueingDelay(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	var first, second sim.Time
	size := units.Bytes(12.5e6) // 1s per hop
	f.Send(f.Vertex("a"), f.Vertex("b"), size, func() { first = eng.Now() })
	f.Send(f.Vertex("a"), f.Vertex("b"), size, func() { second = eng.Now() })
	eng.Run()
	if !almost(float64(first), 2.0, 1e-9) {
		t.Fatalf("first at %v", first)
	}
	// Second waits 1s for the access link, then pipelines behind the first.
	if !almost(float64(second), 3.0, 1e-9) {
		t.Fatalf("second at %v, want 3.0", second)
	}
}

func TestSendToSelf(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	done := false
	f.Send(f.Vertex("a"), f.Vertex("a"), units.MB, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("self-send never completed")
	}
}

// TestRoundTrip: a request/reply exchange is two Sends, the reply sent
// when the request arrives.
func TestRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(800), 0.5e-3)
	a, b := f.Vertex("a"), f.Vertex("b")
	var doneAt sim.Time
	f.Send(a, b, 100, func() { f.Send(b, a, 100, func() { doneAt = eng.Now() }) })
	eng.Run()
	// Four propagation delays dominate: 4 × 0.5ms = 2ms (+tiny tx).
	if float64(doneAt) < 2e-3 || float64(doneAt) > 2.1e-3 {
		t.Fatalf("round trip %v, want ≈2ms", doneAt)
	}
}

func TestFlowSingleBottleneck(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	var doneAt sim.Time
	f.StartFlow("a", "b", units.Bytes(12.5e6), func() { doneAt = eng.Now() })
	eng.Run()
	if !almost(float64(doneAt), 1.0, 1e-6) {
		t.Fatalf("flow done at %v, want 1.0", doneAt)
	}
}

func TestFlowFairSharing(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	var t1, t2 sim.Time
	size := units.Bytes(12.5e6)
	f.StartFlow("a", "b", size, func() { t1 = eng.Now() })
	f.StartFlow("a", "b", size, func() { t2 = eng.Now() })
	eng.Run()
	// Two flows share the a->sw link: both take ≈2s.
	if !almost(float64(t1), 2.0, 1e-6) || !almost(float64(t2), 2.0, 1e-6) {
		t.Fatalf("flows done at %v, %v, want 2.0", t1, t2)
	}
}

func TestFlowMaxMinUnsharedPath(t *testing.T) {
	// a--sw--b and c--sw--d: flows a->b and c->d do not share links.
	eng := sim.NewEngine()
	f := NewFabric(eng)
	for _, v := range []string{"a", "b", "c", "d", "sw"} {
		f.AddVertex(v)
	}
	for _, h := range []string{"a", "b", "c", "d"} {
		f.Connect(h, "sw", units.Mbps(100), 0)
	}
	var t1, t2 sim.Time
	size := units.Bytes(12.5e6)
	f.StartFlow("a", "b", size, func() { t1 = eng.Now() })
	f.StartFlow("c", "d", size, func() { t2 = eng.Now() })
	eng.Run()
	if !almost(float64(t1), 1.0, 1e-6) || !almost(float64(t2), 1.0, 1e-6) {
		t.Fatalf("disjoint flows done at %v, %v, want 1.0", t1, t2)
	}
}

func TestFlowBottleneckRelease(t *testing.T) {
	// A short flow and a long flow share a link; when the short one ends the
	// long one speeds up: total time < sequential but > unshared.
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	const mbps = 12.5e6
	var longDone sim.Time
	f.StartFlow("a", "b", units.Bytes(2*mbps), func() { longDone = eng.Now() })
	f.StartFlow("a", "b", units.Bytes(0.5*mbps), nil)
	eng.Run()
	// Short: 0.5 at half rate → done at t=1. Long: 0.5 done by t=1,
	// remaining 1.5 at full rate → done at 2.5.
	if !almost(float64(longDone), 2.5, 1e-6) {
		t.Fatalf("long flow done at %v, want 2.5", longDone)
	}
}

func TestFlowZeroSize(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	done := false
	f.StartFlow("a", "b", 0, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("zero-size flow never completed")
	}
}

func TestLinkByteAccounting(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	f.Send(f.Vertex("a"), f.Vertex("b"), units.MB, nil)
	eng.Run()
	// Message crosses 2 links.
	if got := f.TotalBytes(); got != 2*units.MB {
		t.Fatalf("total bytes %v, want 2MB", got)
	}
}

// Property: with n equal flows over one shared bottleneck, all finish at
// n × single-flow time (work conservation + fairness).
func TestFlowFairnessProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%6) + 1
		eng := sim.NewEngine()
		fab := lineFabric(eng, units.Mbps(100), 0)
		size := units.Bytes(12.5e6 / 4) // 0.25s alone
		times := make([]sim.Time, 0, n)
		for i := 0; i < n; i++ {
			fab.StartFlow("a", "b", size, func() { times = append(times, eng.Now()) })
		}
		eng.Run()
		want := 0.25 * float64(n)
		for _, at := range times {
			if !almost(float64(at), want, 1e-6) {
				return false
			}
		}
		return len(times) == n && fab.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}
