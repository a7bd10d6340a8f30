package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sortedEngine is the naive reference for Engine: a slice of pending
// events scanned for the smallest (time, seq) on every pop. Lanes are
// plain events to it, Rearm is Cancel followed by At, and the handle of
// every event is its test id.
type sortedEngine struct {
	now     Time
	seq     uint64
	fired   uint64
	stopped bool
	evs     []sortedEvent
}

type sortedEvent struct {
	at  Time
	seq uint64
	id  int
	fn  func()
}

func (o *sortedEngine) at(id int, t Time, fn func()) {
	o.seq++
	o.evs = append(o.evs, sortedEvent{at: t, seq: o.seq, id: id, fn: fn})
}

func (o *sortedEngine) cancel(id int) {
	for i, ev := range o.evs {
		if ev.id == id {
			o.evs = append(o.evs[:i], o.evs[i+1:]...)
			return
		}
	}
}

// next returns the index of the earliest pending event, or -1.
func (o *sortedEngine) next() int {
	m := -1
	for i, ev := range o.evs {
		if m < 0 || ev.at < o.evs[m].at || ev.at == o.evs[m].at && ev.seq < o.evs[m].seq {
			m = i
		}
	}
	return m
}

func (o *sortedEngine) fire(i int) {
	ev := o.evs[i]
	o.evs = append(o.evs[:i], o.evs[i+1:]...)
	o.now = ev.at
	o.fired++
	ev.fn()
}

func (o *sortedEngine) runUntil(deadline Time) {
	o.stopped = false
	for !o.stopped {
		i := o.next()
		if i < 0 || o.evs[i].at > deadline {
			break
		}
		o.fire(i)
	}
	if !o.stopped && !math.IsInf(float64(deadline), 1) && deadline > o.now {
		o.now = deadline
	}
}

func (o *sortedEngine) step() bool {
	i := o.next()
	if i < 0 {
		return false
	}
	o.fire(i)
	return true
}

// engineOps is what the random program below does to an engine, so that
// the same program drives Engine and sortedEngine. Events are named by
// test ids; rearm and cancel of an id whose event is gone are no-ops
// apart from rearm's At.
type engineOps struct {
	now      func() Time
	fired    func() uint64
	pending  func() int
	at       func(id int, t Time, fn func())
	laneAt   func(lane, id int, t Time, fn func())
	cancel   func(id int)
	rearm    func(id int, t Time, fn func())
	stop     func()
	runUntil func(deadline Time)
	step     func() bool
}

func realOps(e *Engine, lanes int) engineOps {
	var refs []EventRef
	ls := make([]*Lane, lanes)
	for i := range ls {
		ls[i] = e.NewLane()
	}
	set := func(id int, r EventRef) {
		for len(refs) <= id {
			refs = append(refs, EventRef{})
		}
		refs[id] = r
	}
	ref := func(id int) EventRef {
		if id < len(refs) {
			return refs[id]
		}
		return EventRef{}
	}
	return engineOps{
		now:      e.Now,
		fired:    e.Fired,
		pending:  e.Pending,
		at:       func(id int, t Time, fn func()) { set(id, e.At(t, fn)) },
		laneAt:   func(lane, id int, t Time, fn func()) { set(id, ls[lane].At(t, fn)) },
		cancel:   func(id int) { ref(id).Cancel() },
		rearm:    func(id int, t Time, fn func()) { set(id, e.Rearm(ref(id), t, fn)) },
		stop:     e.Stop,
		runUntil: e.RunUntil,
		step:     e.Step,
	}
}

func sortedOps(o *sortedEngine) engineOps {
	return engineOps{
		now:     func() Time { return o.now },
		fired:   func() uint64 { return o.fired },
		pending: func() int { return len(o.evs) },
		at:      o.at,
		laneAt:  func(_, id int, t Time, fn func()) { o.at(id, t, fn) },
		cancel:  o.cancel,
		rearm: func(id int, t Time, fn func()) {
			o.cancel(id)
			o.at(id, t, fn)
		},
		stop:     func() { o.stopped = true },
		runUntil: o.runUntil,
		step:     o.step,
	}
}

// randomProgram runs one seeded random program on ops and returns its
// trace: every callback logs its id, Now, Fired and Pending on entry and
// Pending after each of its actions. Callbacks schedule plain and lane
// events at times that often tie, cancel other events, rearm themselves
// and others (live or not, lane or not), stop the run, or do nothing; the
// program then resumes with Run, RunUntil or Step until nothing is pending.
func randomProgram(seed int64, ops engineOps) []string {
	const lanes, budget = 3, 4000
	r := rand.New(rand.NewSource(seed))
	var trace []string
	laneLast := make([]Time, lanes)
	ids := 0
	delay := func() Time {
		switch r.Intn(6) {
		case 0, 1:
			return 0
		case 2:
			return 1
		case 3:
			return 2
		default:
			return Time(r.Intn(40)) / 8
		}
	}
	var body func(id int) func()
	body = func(id int) func() {
		return func() {
			trace = append(trace, fmt.Sprintf("fire %d now=%g fired=%d pending=%d", id, ops.now(), ops.fired(), ops.pending()))
			for n := r.Intn(4); n > 0; n-- {
				now := ops.now()
				switch a := r.Intn(10); {
				case a < 3 && ids < budget:
					ops.at(ids, now+delay(), body(ids))
					ids++
				case a < 5 && ids < budget:
					l := r.Intn(lanes)
					laneLast[l] = max(laneLast[l], now) + delay()
					ops.laneAt(l, ids, laneLast[l], body(ids))
					ids++
				case a == 5:
					ops.cancel(r.Intn(ids))
				case a == 6 && ids < budget:
					ops.rearm(id, now+delay(), body(id))
				case a == 7 && ids < budget:
					other := r.Intn(ids)
					ops.rearm(other, now+delay(), body(other))
				case a == 8 && r.Intn(8) == 0:
					ops.stop()
				}
				trace = append(trace, fmt.Sprintf("  pending=%d", ops.pending()))
			}
		}
	}
	for ; ids < 20; ids++ {
		ops.at(ids, Time(r.Intn(4)), body(ids))
	}
	for ops.pending() > 0 {
		switch r.Intn(3) {
		case 0:
			ops.runUntil(Time(math.Inf(1)))
		case 1:
			ops.runUntil(ops.now() + Time(r.Intn(8))/2)
		default:
			ops.step()
		}
		trace = append(trace, fmt.Sprintf("resume now=%g fired=%d pending=%d", ops.now(), ops.fired(), ops.pending()))
	}
	return trace
}

// TestEngineMatchesSortedOracle runs random programs on Engine and on the
// naive sorted engine and requires the same trace: the same firing order,
// Now, Fired and Pending inside every callback and after every action.
// Callbacks fire from the open root slot, so this pins the slot's reuse
// and closing; rearmed events tie with others often, so it pins Rearm's
// fresh sequence number.
func TestEngineMatchesSortedOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		got := randomProgram(seed, realOps(NewEngine(), 3))
		want := randomProgram(seed, sortedOps(&sortedEngine{}))
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d: trace line %d is %q, oracle %q", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace has %d lines, oracle %d", seed, len(got), len(want))
		}
	}
}
