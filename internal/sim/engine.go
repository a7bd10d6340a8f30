// Package sim is edisim's discrete-event simulation kernel: a virtual clock,
// a cancellable event heap, FIFO k-server resources and a virtual-time
// processor-sharing resource. All higher-level models (CPUs, disks, network
// flows, web requests, MapReduce containers) are built from these primitives.
//
// The kernel is single-threaded and callback-based: an event is a func()
// executed at its scheduled virtual time. Determinism is guaranteed by
// breaking time ties with a monotone sequence number. One engine must only
// ever be driven from one goroutine, but any number of engines can run
// concurrently (see internal/runner), so the kernel keeps no global state.
//
// The event queue is a concrete 4-ary min-heap over pooled Event records,
// with each event's (time, seq) key kept inline in the heap slice as two
// integers, so that ordering never dereferences a record and the smallest
// child is picked without a branch. Scheduling does not allocate in
// steady state (events are recycled through a per-engine freelist, grown in
// chunks), and the heap needs no interface boxing or indirect calls.
// Handles returned by At/After are small EventRef values stamped with the
// event's sequence number, so a stale handle — kept after its event fired
// or was cancelled — is detected and ignored rather than corrupting a
// recycled event.
//
// A Lane keeps a FIFO stream out of the heap. Its events must be scheduled
// in non-decreasing time (a constant-delay timer, or a server queue whose
// next slot is never earlier than its last); scheduling one backwards
// panics. Only the earliest live event of each lane sits in the heap; the
// rest wait in the lane's ring and are promoted one at a time as the head
// fires or is cancelled. Every lane event keeps the (time, seq) it was
// given when scheduled, so the firing order is exactly the order Engine.At
// would give, and Pending counts lane events too. Cancelling a waiting lane
// event leaves a tombstone in the ring, skipped at promotion. A lane whose
// newest events were cancelled can Withdraw them, rolling its latest time
// back to its newest live event so that earlier times are accepted again.
//
// Firing the heap's head leaves its root slot open while the callback runs,
// unless the head is a lane event (its lane's next event takes the slot).
// Most callbacks schedule a follow-up, and the first push fills the open
// slot with one siftDown, as a heap "replace" does, instead of a siftDown
// to close the hole and a siftUp to place the new event. Any other heap
// operation, and the return from the callback, first closes the slot from
// the last entry. Pending never counts the open slot.
//
// Rearm moves a scheduled event to a new time and callback in place: the
// event takes the next sequence number, so it fires exactly where Cancel
// followed by At would put it, at the cost of one sift instead of two.
// Processor sharing, the fabric's flow completions and a link's held-leg
// drop re-arm their one pending event this way.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is simulation time in seconds since the start of the run.
type Time float64

// Event is a pooled event record. User code never holds *Event directly;
// it holds EventRef handles, which stay safe across recycling.
type Event struct {
	at   Time
	seq  uint64 // unique per scheduling; 0 while on the freelist
	fn   func()
	pos  int   // heap position; -1 while waiting in a lane's ring
	lane *Lane // the lane the event was scheduled on, or nil
	eng  *Engine
}

// EventRef is a cheap, copyable handle to a scheduled event. The zero value
// is inert. A ref stays valid-to-use (but inactive) after its event fires or
// is cancelled: every operation on a dead ref is a no-op.
type EventRef struct {
	ev  *Event
	seq uint64
}

// live reports whether the ref still names a scheduled event.
func (r EventRef) live() bool { return r.ev != nil && r.ev.seq == r.seq }

// Cancel removes the event from the schedule. Cancelling an already-fired,
// already-cancelled or zero ref is a no-op.
func (r EventRef) Cancel() {
	if r.live() {
		r.ev.eng.cancel(r.ev)
	}
}

// Active reports whether the event is still scheduled (not fired, not
// cancelled).
func (r EventRef) Active() bool { return r.live() }

// Time reports when the event is scheduled to fire; zero for a dead ref.
func (r EventRef) Time() Time {
	if r.live() {
		return r.ev.at
	}
	return 0
}

// eventChunk is how many Event records the freelist grows by at once.
const eventChunk = 256

// slot is one heap entry: the event's ordering key, inline, and its record.
type slot struct {
	key uint64 // keyOf(at)
	seq uint64
	ev  *Event
}

// keyOf maps a time to an integer key in the same order: the bits of a
// non-negative float64 order like its value. Adding zero turns -0 into +0.
func keyOf(t Time) uint64 { return math.Float64bits(float64(t) + 0) }

// before is 1 when a precedes b in (time, seq) order, FIFO within a time
// tie, and 0 otherwise. It is the borrow out of the 128-bit difference
// (key, seq) a - b, so picking the smallest of a node's children costs no
// branch: the branch a comparison takes there is taken at random, and its
// mispredictions were most of the heap's cost.
func before(a, b *slot) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.key, b.key, borrow)
	return borrow
}

// Engine drives a simulation: it owns the clock and the pending event set.
type Engine struct {
	now     Time
	seq     uint64
	heap    []slot   // 4-ary min-heap on (at, seq)
	open    bool     // heap[0] is the fired head's slot, not yet refilled
	waiting int      // live lane events behind their lane's head
	free    []*Event // recycled event records
	stopped bool
	fired   uint64

	// interrupt, when set, is polled every interruptStride events inside
	// Run/RunUntil; returning true abandons the run (see SetInterrupt).
	interrupt   func() bool
	interrupted bool
}

// interruptStride is how many events execute between interrupt polls: often
// enough that a cancelled context stops a stuck simulation within
// milliseconds of wall time, rare enough that the poll is invisible in the
// event-loop profile.
const interruptStride = 4096

// SetInterrupt installs a poll called every few thousand executed events
// during Run/RunUntil; when it returns true the run stops early (like Stop)
// and Interrupted reports true. It is how context cancellation reaches the
// inside of a long-running simulation: the engine is single-threaded, so
// without a checkpoint a stuck unit could only be abandoned between units.
// nil (the default) disables polling. The hook must be deterministic-safe:
// it is only ever used to abandon a run, never to steer one.
func (e *Engine) SetInterrupt(fn func() bool) { e.interrupt = fn }

// Interrupted reports whether the last Run/RunUntil was abandoned by the
// interrupt poll. Results computed after an interrupted run are partial.
func (e *Engine) Interrupted() bool { return e.interrupted }

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed, a cheap progress/cost metric.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of scheduled events, lane events included.
func (e *Engine) Pending() int {
	if e.open {
		return len(e.heap) - 1 + e.waiting
	}
	return len(e.heap) + e.waiting
}

// alloc takes an event record from the freelist, growing it when empty.
func (e *Engine) alloc() *Event {
	if len(e.free) == 0 {
		chunk := make([]Event, eventChunk)
		for i := range chunk {
			chunk[i].eng = e
			e.free = append(e.free, &chunk[i])
		}
	}
	ev := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	return ev
}

// recycle invalidates outstanding refs and returns the record to the pool.
func (e *Engine) recycle(ev *Event) {
	ev.seq = 0
	ev.fn = nil // release the closure for GC
	ev.lane = nil
	e.free = append(e.free, ev)
}

// siftUp places x in the hole at position i, moving the hole toward the
// root past every parent that x precedes.
func (e *Engine) siftUp(i int, x slot) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 4
		if before(&x, &h[p]) == 0 {
			break
		}
		h[i] = h[p]
		h[i].ev.pos = i
		i = p
	}
	h[i] = x
	x.ev.pos = i
}

// siftDown places x in the hole at position i, moving the hole toward the
// leaves past every smallest child that precedes x.
func (e *Engine) siftDown(i int, x slot) {
	h := e.heap
	n := len(h)
	for {
		first := i*4 + 1
		if first >= n {
			break
		}
		m := first
		last := min(first+4, n)
		for c := first + 1; c < last; c++ {
			m += (c - m) & -int(before(&h[c], &h[m]))
		}
		if before(&h[m], &x) == 0 {
			break
		}
		h[i] = h[m]
		h[i].ev.pos = i
		i = m
	}
	h[i] = x
	x.ev.pos = i
}

// push adds a scheduled event to the heap, into the open root slot when
// there is one.
func (e *Engine) push(ev *Event) {
	x := slot{key: keyOf(ev.at), seq: ev.seq, ev: ev}
	if e.open {
		e.open = false
		e.siftDown(0, x)
		return
	}
	e.heap = append(e.heap, slot{})
	e.siftUp(len(e.heap)-1, x)
}

// close fills the open root slot from the last entry.
func (e *Engine) close() {
	e.open = false
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap[n] = slot{}
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
}

// fill refills the hole at position i with x.
func (e *Engine) fill(i int, x slot) {
	if i > 0 && before(&x, &e.heap[(i-1)/4]) == 1 {
		e.siftUp(i, x)
	} else {
		e.siftDown(i, x)
	}
}

// unlink takes the event at heap position i out of the heap. A lane head's
// place goes to the lane's next live event; any other hole is filled from
// the last slot.
func (e *Engine) unlink(i int, ev *Event) {
	if nx := ev.lane.promote(); nx != nil {
		e.fill(i, slot{key: keyOf(nx.at), seq: nx.seq, ev: nx})
		return
	}
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap[n] = slot{}
	e.heap = e.heap[:n]
	if i < n {
		e.fill(i, last)
	}
}

// cancel unschedules a live event and recycles it. A lane event waiting
// behind its head is left in the ring as a tombstone: its record is
// recycled, so the seq stamp the ring kept no longer matches.
func (e *Engine) cancel(ev *Event) {
	if e.open {
		e.close()
	}
	if ev.pos < 0 {
		ev.lane.live--
		e.waiting--
	} else {
		e.unlink(ev.pos, ev)
	}
	e.recycle(ev)
}

// check panics unless t is a finite time no earlier than now. NaN fails
// both comparisons.
func (e *Engine) check(t Time) {
	if !(t >= e.now && t <= math.MaxFloat64) {
		e.badTime(t)
	}
}

// badTime panics with the reason check rejected t.
func (e *Engine) badTime(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %g < %g", t, e.now))
	}
	panic(fmt.Sprintf("sim: scheduling at non-finite time %v", t))
}

// schedule checks t and stamps a fresh record with it and fn.
func (e *Engine) schedule(t Time, fn func()) *Event {
	e.check(t)
	e.seq++
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	return ev
}

// At schedules fn to run at absolute time t (>= Now) and returns a handle
// that can cancel it. Scheduling in the past panics: it is always a bug.
func (e *Engine) At(t Time, fn func()) EventRef {
	ev := e.schedule(t, fn)
	e.push(ev)
	return EventRef{ev: ev, seq: ev.seq}
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (e *Engine) After(d float64, fn func()) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	return e.At(e.now+Time(d), fn)
}

// Rearm reschedules the event r names to run fn at t and returns its new
// handle; r goes stale. The event takes the next sequence number, so it
// fires exactly where r.Cancel() followed by At(t, fn) would put it. A
// heap event is re-keyed in place; a dead ref or a lane event is cancelled
// and fn scheduled afresh with At.
func (e *Engine) Rearm(r EventRef, t Time, fn func()) EventRef {
	e.check(t)
	if !r.live() || r.ev.lane != nil {
		r.Cancel()
		return e.At(t, fn)
	}
	if e.open {
		e.close()
	}
	ev := r.ev
	e.seq++
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.fill(ev.pos, slot{key: keyOf(t), seq: ev.seq, ev: ev})
	return EventRef{ev: ev, seq: ev.seq}
}

// Lane is a FIFO stream of events on one engine whose times never
// decrease: a constant-delay timer, or a queue served in arrival order.
// Only the lane's earliest live event sits in the engine heap; the rest
// wait in a ring in scheduling order. Lane events fire in exactly the
// order Engine.At would give them, and their EventRefs behave the same.
type Lane struct {
	eng   *Engine
	front *Event     // the lane's event in the engine heap, or nil
	ring  []laneSlot // power-of-two ring of events behind the head
	head  int        // ring index of the oldest waiting entry
	n     int        // waiting entries, tombstones included
	live  int        // scheduled events, head included
	last  Time       // time of the latest scheduled event
}

// laneSlot is a waiting lane event. The entry is a tombstone once the
// record's seq no longer matches: it was cancelled, and perhaps recycled.
type laneSlot struct {
	ev  *Event
	seq uint64
}

// NewLane returns an empty lane on e.
func (e *Engine) NewLane() *Lane { return &Lane{eng: e} }

// At schedules fn to run at absolute time t on the lane. t must be no
// earlier than Now and than the lane's latest scheduled time; scheduling
// backwards panics.
func (l *Lane) At(t Time, fn func()) EventRef {
	if t < l.last {
		panic(fmt.Sprintf("sim: lane scheduled backwards: %g < %g", t, l.last))
	}
	e := l.eng
	ev := e.schedule(t, fn)
	ev.lane = l
	l.last = t
	l.live++
	if l.live == 1 {
		l.front = ev
		e.push(ev)
	} else {
		ev.pos = -1
		l.enqueue(ev)
		e.waiting++
	}
	return EventRef{ev: ev, seq: ev.seq}
}

// After schedules fn to run d seconds from now on the lane. Negative
// delays panic.
func (l *Lane) After(d float64, fn func()) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	return l.At(l.eng.now+Time(d), fn)
}

// Len reports the lane's scheduled events, the head included.
func (l *Lane) Len() int { return l.live }

// Withdraw drops the tombstones at the tail of the lane's ring and rolls
// its latest scheduled time back to that of its newest live event (to zero
// when none is left). Cancel the newest events first, then Withdraw, and
// the lane accepts times from its newest live event on again. It never
// panics; on a lane with no cancelled tail it changes nothing.
func (l *Lane) Withdraw() {
	for ; l.n > 0; l.n-- {
		i := (l.head + l.n - 1) & (len(l.ring) - 1)
		if s := l.ring[i]; s.ev.seq == s.seq {
			l.last = s.ev.at
			return
		}
		l.ring[i] = laneSlot{}
	}
	l.last = 0
	if l.front != nil {
		l.last = l.front.at
	}
}

// enqueue appends a waiting event to the ring, doubling it when full.
func (l *Lane) enqueue(ev *Event) {
	if l.n == len(l.ring) {
		grown := make([]laneSlot, max(16, 2*len(l.ring)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = grown, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneSlot{ev: ev, seq: ev.seq}
	l.n++
}

// promote is called when the lane's head leaves the heap. It dequeues the
// earliest live waiting event, dropping tombstones, to take the head's
// place; nil when the lane is empty, or for an event on no lane.
func (l *Lane) promote() *Event {
	if l == nil {
		return nil
	}
	l.live--
	if l.live == 0 {
		// Only tombstones are left; clear just those, not the whole ring.
		for ; l.n > 0; l.n-- {
			l.ring[l.head] = laneSlot{}
			l.head = (l.head + 1) & (len(l.ring) - 1)
		}
		l.head = 0
		l.front = nil
		return nil
	}
	for {
		s := l.ring[l.head]
		l.ring[l.head] = laneSlot{}
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
		if s.ev.seq == s.seq {
			l.eng.waiting--
			l.front = s.ev
			return s.ev
		}
	}
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until none remain or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(Time(math.Inf(1)))
}

// popHead removes the earliest event, advances the clock to it and returns
// its callback. The record is recycled before the callback runs, so the
// callback is free to schedule (and reuse) events. A lane head's slot goes
// to its lane's next event; any other head's slot is left open for the
// callback's first push (the caller closes it when the callback returns).
func (e *Engine) popHead() func() {
	ev := e.heap[0].ev
	e.now = ev.at
	fn := ev.fn
	if ev.lane != nil {
		e.unlink(0, ev)
	} else {
		e.open = true
	}
	e.recycle(ev)
	e.fired++
	return fn
}

// RunUntil executes events in time order until the next event would fire
// after deadline, none remain, or Stop is called. The clock is left at the
// time of the last executed event (or advanced to deadline when it is
// finite and later).
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	e.interrupted = false
	if e.open {
		e.close() // left open by a callback that panicked
	}
	for len(e.heap) > 0 && !e.stopped {
		if e.heap[0].ev.at > deadline {
			break
		}
		if e.interrupt != nil && e.fired%interruptStride == 0 && e.interrupt() {
			e.interrupted = true
			return
		}
		e.popHead()()
		if e.open {
			e.close()
		}
	}
	if !e.stopped && !math.IsInf(float64(deadline), 1) && deadline > e.now {
		e.now = deadline
	}
}

// Step executes exactly one event, reporting false when none remain.
func (e *Engine) Step() bool {
	if e.open {
		e.close()
	}
	if len(e.heap) == 0 {
		return false
	}
	e.popHead()()
	if e.open {
		e.close()
	}
	return true
}
