package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Run()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	if e.Now() != 5 {
		t.Fatalf("clock at %v, want 5", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order %v, want FIFO", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	if !ev.Active() {
		t.Fatal("Active() false while scheduled")
	}
	ev.Cancel()
	if ev.Active() {
		t.Fatal("Active() true after Cancel")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after cancel, want 0", e.Pending())
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

// TestEventRefStaleSafety: a ref kept after its event fired must become a
// no-op, even once the underlying record has been recycled for a new event.
func TestEventRefStaleSafety(t *testing.T) {
	e := NewEngine()
	stale := e.At(1, func() {})
	e.Run()
	if stale.Active() {
		t.Fatal("ref active after firing")
	}
	// Reschedule: the pool will hand back the same record.
	fired := false
	fresh := e.At(2, func() { fired = true })
	stale.Cancel() // must NOT cancel the recycled event
	e.Run()
	if !fired {
		t.Fatal("stale Cancel killed a recycled event")
	}
	if fresh.Active() {
		t.Fatal("fresh ref active after firing")
	}
	if stale.Time() != 0 {
		t.Fatalf("stale ref Time() = %v, want 0", stale.Time())
	}
}

// TestEngineSteadyStateNoAlloc: after warm-up, scheduling and firing events
// must not allocate (the freelist recycles records).
func TestEngineSteadyStateNoAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the pool.
	for i := 0; i < 10; i++ {
		e.After(1, fn)
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("schedule/fire allocates %.1f objects per event, want 0", allocs)
	}
	// Re-keying a live event in place, and re-arming one that fired,
	// allocates nothing either.
	armed := e.After(1, fn)
	allocs = testing.AllocsPerRun(1000, func() {
		armed = e.Rearm(armed, e.Now()+2, fn)
		e.After(1, fn)
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("Rearm allocates %.1f objects per event, want 0", allocs)
	}
}

func TestEngineSchedulingFromEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(1, func() {
		order = append(order, "a")
		e.After(1, func() { order = append(order, "c") })
		e.After(0, func() { order = append(order, "b") })
	})
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() { count++ })
	}
	e.RunUntil(5)
	if count != 5 {
		t.Fatalf("fired %d events by t=5, want 5", count)
	}
	if e.Now() != 5 {
		t.Fatalf("clock %v, want 5", e.Now())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("fired %d events total, want 10", count)
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Fatalf("clock %v, want 42", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("fired %d events, want 3 after Stop", count)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++ })
	e.At(2, func() { count++ })
	if !e.Step() || count != 1 {
		t.Fatalf("first Step: count=%d", count)
	}
	if !e.Step() || count != 2 {
		t.Fatalf("second Step: count=%d", count)
	}
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

// Property: for any set of delays, events fire in sorted order and the
// final clock equals the max delay.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		var max Time
		for _, r := range raw {
			at := Time(r) / 8
			if at > max {
				max = at
			}
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) || e.Now() != max {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineNegativeZeroTime: -0 is a valid time at the start of a run and
// ties with 0, so the three events fire in scheduling order.
func TestEngineNegativeZeroTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i, at := range []Time{0, Time(math.Copysign(0, -1)), 0} {
		e.At(at, func() { order = append(order, i) })
	}
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("fired %v, want [0 1 2]", order)
	}
}
