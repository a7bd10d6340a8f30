package netsim

import (
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

func TestSetVertexLinksDegradeSlowsFlow(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, 10*units.MBps, 0)
	var doneAt sim.Time
	// 10 MB at 10 MB/s = 1 s healthy. Halving b's links at t=0.5 leaves
	// 5 MB to drain at 5 MB/s: done at 1.5 s.
	f.StartFlow("a", "b", 10*units.MB, func() { doneAt = eng.Now() })
	eng.After(0.5, func() { f.SetVertexLinks("b", 0.5) })
	eng.Run()
	if !almost(float64(doneAt), 1.5, 1e-9) {
		t.Fatalf("degraded flow done at %v, want 1.5", doneAt)
	}
}

func TestSetVertexLinksRestoreIsExact(t *testing.T) {
	// A degrade-and-restore cycle on an idle vertex must leave behavior
	// bit-identical to an untouched fabric (scale 1 multiplies exactly).
	run := func(touch bool) sim.Time {
		eng := sim.NewEngine()
		f := lineFabric(eng, 10*units.MBps, 1e-3)
		if touch {
			f.SetVertexLinks("b", 0.25)
			f.SetVertexLinks("b", 1)
		}
		var doneAt sim.Time
		f.StartFlow("a", "b", 7*units.MB, func() { doneAt = eng.Now() })
		eng.Run()
		return doneAt
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("restored fabric differs from untouched: %v vs %v", a, b)
	}
}

func TestLinkCutAbortsCrossingFlows(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, 10*units.MBps, 0)
	done := false
	f.StartFlow("a", "b", 10*units.MB, func() { done = true })
	eng.After(0.5, func() { f.SetVertexLinks("b", 0) })
	eng.Run()
	if done {
		t.Fatal("flow across a cut link completed; its done callback must never fire")
	}
	if n := f.ActiveFlows(); n != 0 {
		t.Fatalf("%d flows still active after the cut, want 0", n)
	}
}

func TestLinkCutSparesDisjointFlows(t *testing.T) {
	// a--sw--b and c--sw--d: cutting d's links must abort only the c→d flow
	// and give a→b its full capacity back.
	eng := sim.NewEngine()
	f := NewFabric(eng)
	for _, v := range []string{"a", "b", "c", "d", "sw"} {
		f.AddVertex(v)
	}
	for _, v := range []string{"a", "b", "c", "d"} {
		f.Connect(v, "sw", 10*units.MBps, 0)
	}
	var abDone, cdDone bool
	f.StartFlow("a", "b", 10*units.MB, func() { abDone = true })
	f.StartFlow("c", "d", 10*units.MB, func() { cdDone = true })
	eng.After(0.5, func() { f.SetVertexLinks("d", 0) })
	eng.Run()
	if !abDone || cdDone {
		t.Fatalf("after cutting d: a→b done=%v (want true), c→d done=%v (want false)", abDone, cdDone)
	}
}

func TestFlowOverDownLinkWaitsForRestore(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, 10*units.MBps, 0)
	f.SetVertexLinks("b", 0)
	var doneAt sim.Time
	// Admitted at rate 0 while the link is down; restored at t=2, the
	// 10 MB drain at 10 MB/s, done at 3.
	f.StartFlow("a", "b", 10*units.MB, func() { doneAt = eng.Now() })
	eng.After(2, func() { f.SetVertexLinks("b", 1) })
	eng.Run()
	if !almost(float64(doneAt), 3.0, 1e-9) {
		t.Fatalf("flow over restored link done at %v, want 3.0", doneAt)
	}
}

func TestParkedFlowSurvivesUnrelatedCut(t *testing.T) {
	// a, b, c and d hang off one switch. A flow parked at rate 0 on b's
	// earlier cut keeps waiting when d is cut: a cut aborts only flows
	// that cross a link it just cut, here c→d.
	eng := sim.NewEngine()
	f := NewFabric(eng)
	for _, v := range []string{"a", "b", "c", "d", "sw"} {
		f.AddVertex(v)
	}
	for _, v := range []string{"a", "b", "c", "d"} {
		f.Connect(v, "sw", 10*units.MBps, 0)
	}
	f.SetVertexLinks("b", 0)
	var abAt sim.Time
	cdDone := false
	ab := f.StartFlow("a", "b", 10*units.MB, func() { abAt = eng.Now() })
	f.StartFlow("c", "d", 100*units.MB, func() { cdDone = true })
	eng.After(1, func() { f.SetVertexLinks("d", 0) })
	eng.After(1.5, func() {
		if ab.Finished() || ab.Rate() != 0 {
			t.Errorf("a→b after d's cut: finished=%v rate=%v, want parked at rate 0", ab.Finished(), ab.Rate())
		}
	})
	// Healed at t=2, the 10 MB drain at 10 MB/s: done at 3.
	eng.After(2, func() { f.SetVertexLinks("b", 1) })
	eng.Run()
	if cdDone {
		t.Fatal("c→d crossed d's cut and still completed")
	}
	if !almost(float64(abAt), 3.0, 1e-9) {
		t.Fatalf("parked a→b done at %v, want 3.0", abAt)
	}
}

func TestMessageDroppedAtDownLink(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, 10*units.MBps, 0)
	f.SetVertexLinks("b", 0)
	delivered := false
	f.Send(f.Vertex("a"), f.Vertex("b"), 1000, func() { delivered = true })
	eng.Run()
	if delivered {
		t.Fatal("message crossed a down link")
	}
}

// queuedPair sends two 1 MB messages a -> sw at t=0 over a 10 MB/s link
// with 1 ms of delay: the first transmits over [0, sentA], the second
// waits for it. faults runs once both are planned; it returns when each
// was delivered (-1 if dropped) and the first one's transmission end.
func queuedPair(faults func(eng *sim.Engine, f *Fabric)) (a, b, sentA sim.Time, f *Fabric) {
	eng := sim.NewEngine()
	f = lineFabric(eng, 10*units.MBps, 1e-3)
	a, b = -1, -1
	f.Send(f.Vertex("a"), f.Vertex("sw"), units.MB, func() { a = eng.Now() })
	f.Send(f.Vertex("a"), f.Vertex("sw"), units.MB, func() { b = eng.Now() })
	faults(eng, f)
	eng.Run()
	return a, b, sim.Time(float64(units.MB) / float64(10*units.MBps)), f
}

// TestQueuedMessageDroppedOnLastingCut: the cut comes while the first
// message transmits and lasts past the second one's start, so the second
// is dropped and its bytes never counted.
func TestQueuedMessageDroppedOnLastingCut(t *testing.T) {
	_, b, _, f := queuedPair(func(eng *sim.Engine, f *Fabric) {
		eng.At(0.05, func() { f.SetVertexLinks("a", 0) })
	})
	if b != -1 {
		t.Fatalf("message queued behind a cut link delivered at %v", b)
	}
	if got := f.TotalBytes(); got != units.MB {
		t.Fatalf("TotalBytes %v, want one message's %v", got, units.MB)
	}
}

// TestCutHealedBeforeStartDelivers: a cut that heals before the queued
// message's start leaves its timeline as if there had been no cut.
func TestCutHealedBeforeStartDelivers(t *testing.T) {
	_, b, sentA, _ := queuedPair(func(eng *sim.Engine, f *Fabric) {
		eng.At(0.05, func() { f.SetVertexLinks("a", 0) })
		eng.At(0.08, func() { f.SetVertexLinks("a", 1) })
	})
	want := sentA + sim.Time(float64(units.MB)/float64(10*units.MBps)) + 1e-3
	if b != want {
		t.Fatalf("queued message delivered at %v, want %v", b, want)
	}
}

// TestDegradeStretchesQueuedMessage: a degrade while a message is queued
// stretches its transmission; the one already transmitting keeps its time.
func TestDegradeStretchesQueuedMessage(t *testing.T) {
	a, b, sentA, _ := queuedPair(func(eng *sim.Engine, f *Fabric) {
		eng.At(0.05, func() { f.SetVertexLinks("a", 0.5) })
	})
	if want := sentA + 1e-3; a != want {
		t.Fatalf("transmitting message delivered at %v, want %v", a, want)
	}
	want := sentA + sim.Time(float64(units.MB)/(float64(10*units.MBps)*0.5)) + 1e-3
	if b != want {
		t.Fatalf("queued message delivered at %v, want %v at half capacity", b, want)
	}
}

// TestTransmittingMessageSurvivesCut: a message already transmitting when
// its link is cut finishes and is delivered on time.
func TestTransmittingMessageSurvivesCut(t *testing.T) {
	a, _, sentA, _ := queuedPair(func(eng *sim.Engine, f *Fabric) {
		eng.At(0.05, func() { f.SetVertexLinks("a", 0) })
	})
	if want := sentA + 1e-3; a != want {
		t.Fatalf("message transmitting at the cut delivered at %v, want %v", a, want)
	}
}

func TestSetVertexLinksRejectsBadScale(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, 10*units.MBps, 0)
	for _, bad := range []float64{-1, nan()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetVertexLinks(%v) did not panic", bad)
				}
			}()
			f.SetVertexLinks("b", bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetVertexLinks on unknown vertex did not panic")
			}
		}()
		f.SetVertexLinks("nope", 0.5)
	}()
}

func nan() float64 {
	z := 0.0
	return z / z
}

// BenchmarkSendDegraded pins the degraded-path cost: messaging over a link
// running at half capacity must stay allocation-free like the healthy path
// BenchmarkSend pins.
func BenchmarkSendDegraded(b *testing.B) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Gbps(1), 0)
	f.SetVertexLinks("b", 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(f.Vertex("a"), f.Vertex("b"), 1000, nil)
		eng.Run()
	}
}
