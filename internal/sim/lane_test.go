package sim

import (
	"math/rand"
	"strings"
	"testing"
)

// TestLaneMatchesPlainEngine is a differential test of lanes against the
// plain heap: one engine runs random monotone lane streams beside plain At
// events, and an oracle engine gets the same schedule through At alone.
// Times fall on a 1/8 s grid, so lane and plain events often tie exactly.
// Random cancels hit the head, the middle and the tail of the lanes, and
// random withdrawals cancel a lane's newest events and schedule earlier
// ones. The firing sequence, Now, Fired, Pending and every ref's Active and
// Time must agree after each step.
func TestLaneMatchesPlainEngine(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		e, o := NewEngine(), NewEngine()
		lanes := make([]*Lane, 1+rnd.Intn(4))
		for i := range lanes {
			lanes[i] = e.NewLane()
		}
		last := make([]Time, len(lanes))
		// byLane holds each lane's refs in scheduling order, pruned of
		// dead ones; refs pairs every ref with its oracle twin.
		byLane := make([][]int, len(lanes))
		var refs [][2]EventRef
		var got, want []int
		schedule := func(lane int, at Time) {
			id := len(refs)
			var r EventRef
			if lane < 0 {
				r = e.At(at, func() { got = append(got, id) })
			} else {
				r = lanes[lane].At(at, func() { got = append(got, id) })
				last[lane] = at
				byLane[lane] = append(byLane[lane], id)
			}
			refs = append(refs, [2]EventRef{r, o.At(at, func() { want = append(want, id) })})
		}
		grid := func() Time { return Time(rnd.Intn(4)) / 8 }
		// liveRefs prunes lane l's list to its scheduled events.
		liveRefs := func(l int) []int {
			live := byLane[l][:0]
			for _, id := range byLane[l] {
				if refs[id][0].Active() {
					live = append(live, id)
				}
			}
			byLane[l] = live
			return live
		}
		for op := 0; op < 3000; op++ {
			switch k := rnd.Intn(11); {
			case k < 4:
				l := rnd.Intn(len(lanes))
				schedule(l, max(last[l], e.Now())+grid())
			case k < 6:
				schedule(-1, e.Now()+grid()+Time(rnd.Intn(3))/8)
			case k == 10:
				// Withdraw the newest 1-3 events, then resume from the
				// newest one left.
				l := rnd.Intn(len(lanes))
				live := liveRefs(l)
				for n := 1 + rnd.Intn(3); n > 0 && len(live) > 0; n-- {
					id := live[len(live)-1]
					live = live[:len(live)-1]
					refs[id][0].Cancel()
					refs[id][1].Cancel()
				}
				byLane[l] = live
				lanes[l].Withdraw()
				last[l] = 0
				if len(live) > 0 {
					last[l] = refs[live[len(live)-1]][0].Time()
				}
			case k < 8:
				l := rnd.Intn(len(lanes))
				live := liveRefs(l)
				if len(live) == 0 {
					continue
				}
				var id int
				switch rnd.Intn(3) {
				case 0:
					id = live[0]
				case 1:
					id = live[len(live)/2]
				default:
					id = live[len(live)-1]
				}
				refs[id][0].Cancel()
				refs[id][1].Cancel()
			default:
				if e.Step() != o.Step() {
					t.Fatalf("seed %d op %d: Step disagrees", seed, op)
				}
			}
			if e.Now() != o.Now() || e.Fired() != o.Fired() || e.Pending() != o.Pending() {
				t.Fatalf("seed %d op %d: now %v fired %d pending %d, oracle %v %d %d",
					seed, op, e.Now(), e.Fired(), e.Pending(), o.Now(), o.Fired(), o.Pending())
			}
			if len(got) != len(want) || len(got) > 0 && got[len(got)-1] != want[len(want)-1] {
				t.Fatalf("seed %d op %d: fired %v, oracle %v", seed, op, got, want)
			}
			if op%97 == 0 {
				for id, r := range refs {
					if r[0].Active() != r[1].Active() || r[0].Time() != r[1].Time() {
						t.Fatalf("seed %d op %d: ref %d active %v at %v, oracle %v at %v",
							seed, op, id, r[0].Active(), r[0].Time(), r[1].Active(), r[1].Time())
					}
				}
			}
		}
		for e.Step() {
			o.Step()
			if e.Now() != o.Now() || e.Fired() != o.Fired() || e.Pending() != o.Pending() {
				t.Fatalf("seed %d drain: now %v fired %d pending %d, oracle %v %d %d",
					seed, e.Now(), e.Fired(), e.Pending(), o.Now(), o.Fired(), o.Pending())
			}
		}
		if o.Step() {
			t.Fatalf("seed %d: the oracle has events left", seed)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is event %d, oracle %d", seed, i, got[i], want[i])
			}
		}
	}
}

// TestLaneStaleRefs: refs to fired, cancelled and recycled lane events are
// inert, and a tombstone whose record was reused by a later event is
// skipped at promotion without touching that event.
func TestLaneStaleRefs(t *testing.T) {
	e := NewEngine()
	l := e.NewLane()
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	a := l.At(1, note("a"))
	b := l.At(2, note("b"))
	c := l.At(3, note("c"))
	b.Cancel() // a tombstone in the ring, its record recycled
	if b.Active() || b.Time() != 0 {
		t.Fatalf("cancelled lane ref: active %v time %v", b.Active(), b.Time())
	}
	x := e.At(2.5, note("x")) // reuses b's record
	d := l.At(4, note("d"))   // a lane event behind the tombstone
	if e.Pending() != 4 || l.Len() != 3 {
		t.Fatalf("pending %d lane len %d, want 4 and 3", e.Pending(), l.Len())
	}
	b.Cancel() // stale: must not cancel x
	if !x.Active() || x.Time() != 2.5 {
		t.Fatal("a stale Cancel reached the recycled record")
	}
	if c.Time() != 3 || d.Time() != 4 {
		t.Fatalf("waiting lane refs report times %v and %v", c.Time(), d.Time())
	}
	e.Step()
	if a.Active() || a.Time() != 0 {
		t.Fatal("fired lane ref still active")
	}
	a.Cancel() // stale: the record may now hold another event
	e.Run()
	if got := strings.Join(order, " "); got != "a x c d" {
		t.Fatalf("fired %q, want %q", got, "a x c d")
	}
	if e.Pending() != 0 || l.Len() != 0 {
		t.Fatalf("pending %d lane len %d after the drain", e.Pending(), l.Len())
	}
	// The drained lane keeps its ring and stays monotone.
	l.After(1, note("e"))
	e.Run()
	if got := strings.Join(order, " "); got != "a x c d e" {
		t.Fatalf("fired %q after reuse", got)
	}
}

// TestLaneCancelHeadPromotes: cancelling the head hands its heap slot to
// the next live event, past tombstones; cancelling every event empties the
// lane.
func TestLaneCancelHeadPromotes(t *testing.T) {
	e := NewEngine()
	l := e.NewLane()
	var fired []Time
	refs := make([]EventRef, 6)
	for i := range refs {
		at := Time(i + 1)
		refs[i] = l.At(at, func() { fired = append(fired, at) })
	}
	refs[1].Cancel()
	refs[2].Cancel()
	refs[0].Cancel() // the head: 4 is promoted past two tombstones
	if e.Pending() != 3 {
		t.Fatalf("pending %d, want 3", e.Pending())
	}
	e.Step()
	if len(fired) != 1 || fired[0] != 4 {
		t.Fatalf("fired %v, want [4]", fired)
	}
	refs[5].Cancel()
	refs[4].Cancel()
	if e.Pending() != 0 || l.Len() != 0 || e.Step() {
		t.Fatalf("pending %d lane len %d after cancelling every event", e.Pending(), l.Len())
	}
}

// TestLaneBackwardsPanics: scheduling a lane event earlier than the lane's
// latest panics, even once those events are gone; so does a negative delay.
func TestLaneBackwardsPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	l := e.NewLane()
	l.At(2, func() {})
	mustPanic("backwards", func() { l.At(1, func() {}) })
	l.At(2, func() {}) // a tie is fine
	r := l.At(3, func() {})
	r.Cancel()
	mustPanic("backwards past a cancelled event", func() { l.At(2.5, func() {}) })
	e.Run()
	mustPanic("negative delay", func() { l.After(-1, func() {}) })
	mustPanic("into the past", func() { e.NewLane().At(1, func() {}) })
}

// TestLaneWithdraw: withdrawing a cancelled tail rolls the lane's latest
// time back to its newest live event, past tombstones and down to the head
// in the heap, so earlier times are accepted again; with nothing cancelled
// it changes nothing.
func TestLaneWithdraw(t *testing.T) {
	e := NewEngine()
	l := e.NewLane()
	var order []Time
	at := func(t Time) EventRef { return l.At(t, func() { order = append(order, t) }) }
	at(1)
	r2 := at(2)
	r3 := at(3)
	r4 := at(4)
	l.Withdraw()
	if !r4.Active() || l.Len() != 4 {
		t.Fatalf("Withdraw with nothing cancelled: len %d", l.Len())
	}
	r4.Cancel()
	r2.Cancel() // a tombstone in the middle stays
	l.Withdraw()
	r35 := at(3.5) // after 3, the newest live event
	r35.Cancel()
	r3.Cancel()
	l.Withdraw()
	at(1.5) // only the head at 1 is left
	if e.Pending() != 2 || l.Len() != 2 {
		t.Fatalf("pending %d lane len %d, want 2 and 2", e.Pending(), l.Len())
	}
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 1.5 {
		t.Fatalf("fired %v, want [1 1.5]", order)
	}
	l.Withdraw() // empty: any time from now on
	at(e.Now())
	e.Run()
	if len(order) != 3 {
		t.Fatalf("fired %v after reuse", order)
	}
}

// TestLaneSteadyStateNoAlloc: once the lane's ring and the event pool have
// grown, arming, cancelling and firing lane timers allocates nothing.
func TestLaneSteadyStateNoAlloc(t *testing.T) {
	e := NewEngine()
	l := e.NewLane()
	fn := func() {}
	var timers [64]EventRef
	i := 0
	cycle := func() {
		k := i % len(timers)
		if i%4 != 0 {
			timers[k].Cancel()
		}
		timers[k] = l.After(1, fn)
		e.After(0.005, fn)
		e.RunUntil(e.Now() + 0.01)
		i++
	}
	for range 10000 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(10000, cycle); allocs != 0 {
		t.Fatalf("lane timers allocate %v objects per cycle, want 0", allocs)
	}
}
