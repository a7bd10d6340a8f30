package netsim

import (
	"edisim/internal/sim"
	"edisim/internal/units"
)

// message is a pooled in-flight Send/RoundTrip record driven as a state
// machine: instead of allocating a fresh chain of closures per hop per
// message, each record carries its cursor (path + hop) and a set of
// continuations pre-bound once when the record is created, so steady-state
// messaging does not allocate. Records come from a fabric freelist (grown
// in chunks, like Flow and sim.Event records) and are recycled on final
// delivery. No handle type is exposed: a message is never cancellable or
// observable from user code, so — unlike Event/Flow — records need no
// sequence stamping; the record is owned by exactly one in-flight transfer
// from Send to delivery.
//
// A hop costs one engine event. A link is a capacity-1 FIFO with a
// constant delay, so when a message enters it (plan) the instant its last
// byte leaves is known in closed form, and only the arrival at the far end
// is scheduled, on the link's arrival lane. While the message is planned on
// a link, start, sent and arrival describe that hop.
type message struct {
	fab  *Fabric
	path []*Link
	hop  int
	size units.Bytes
	done func()

	// The current hop: when transmission starts and its last byte leaves
	// (start is the time the message is held to while its link is cut),
	// and its arrival event, zero while held.
	start, sent sim.Time
	arrival     sim.EventRef

	// RoundTrip support: when hasReply, final delivery of the request
	// re-launches the record as the reply leg (dst back to src) instead of
	// recycling it.
	hasReply  bool
	replySize units.Bytes
	src, dst  string

	// Pre-bound continuations, created once per record (amortized to zero
	// by the pool): hopFn runs at the current hop's arrival, nextFn at a
	// same-host leg's zero-delay event.
	hopFn  func()
	nextFn func()
}

// msgChunk is how many message records the freelist grows by at once.
const msgChunk = 64

// allocMsg takes a message record from the freelist, growing it when empty.
func (f *Fabric) allocMsg() *message {
	if len(f.freeMsgs) == 0 {
		chunk := make([]message, msgChunk)
		for i := range chunk {
			m := &chunk[i]
			m.fab = f
			m.hopFn = m.arrived
			m.nextFn = m.next
			f.freeMsgs = append(f.freeMsgs, m)
		}
	}
	m := f.freeMsgs[len(f.freeMsgs)-1]
	f.freeMsgs = f.freeMsgs[:len(f.freeMsgs)-1]
	return m
}

// recycleMsg returns the record to the pool. The path slice belongs to the
// route cache, so dropping the reference costs nothing.
func (f *Fabric) recycleMsg(m *message) {
	m.done = nil // release the closure for GC
	m.path = nil
	m.arrival = sim.EventRef{}
	f.freeMsgs = append(f.freeMsgs, m)
}

// at returns the i-th oldest message planned on the link.
func (l *Link) at(i int) *message { return l.ring[(l.head+i)&(len(l.ring)-1)] }

// push appends m to the link's FIFO ring, doubling it when full.
func (l *Link) push(m *message) {
	if l.n == len(l.ring) {
		grown := make([]*message, max(8, 2*len(l.ring)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.at(i)
		}
		l.ring, l.head = grown, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = m
	l.n++
}

// pop removes and returns the oldest planned message.
func (l *Link) pop() *message {
	m := l.ring[l.head]
	l.ring[l.head] = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return m
}

// next advances the state machine: enter the current hop's link, or
// deliver when past the last hop.
func (m *message) next() {
	if m.hop >= len(m.path) {
		m.deliver()
		return
	}
	m.path[m.hop].plan(m)
}

// arrived runs when the last byte reaches the current hop's far end.
func (m *message) arrived() {
	m.path[m.hop].arrive(m)
	m.hop++
	m.next()
}

// plan enters m into the link's FIFO. Transmission starts when the link
// frees up, takes size/capacity at the capacity of that instant, and the
// last byte arrives Delay later. The float operations are those of an
// engine timer chain started at start, so every fire time is exactly what
// a transmit event followed by a propagation event would give.
//
// A message is dropped if and only if the link is down at the instant it
// would start: at once when that instant is now, otherwise it is held
// until then (SetVertexLinks re-plans it on a heal, holdEv drops it if the
// cut lasts). Dropping is silent — done never runs, like a frame on a dead
// cable; recovery belongs to the sender's timeout machinery.
func (l *Link) plan(m *message) {
	eng := m.fab.eng
	now := eng.Now()
	start := l.free
	if start < now {
		start = now
	}
	if l.Down() {
		if start == now {
			m.fab.recycleMsg(m)
			return
		}
		m.start, m.sent = start, start
		l.push(m)
		l.armHold(eng, start)
		return
	}
	l.schedule(m, start)
	l.push(m)
}

// schedule fixes m's transmission from start at the link's current
// capacity and puts its arrival on the lane. At scale 1 the transmission
// time is bit-identical to the unscaled capacity arithmetic (÷1.0 is
// exact).
func (l *Link) schedule(m *message, start sim.Time) {
	m.start = start
	m.sent = start + sim.Time(float64(m.size)/l.effCap())
	l.free = m.sent
	m.arrival = l.arrivals.At(m.sent+sim.Time(l.Delay), m.hopFn)
}

// arrive retires m, the link's oldest planned message, at its arrival and
// credits its bytes unless FlushProgress already has.
func (l *Link) arrive(m *message) {
	if l.pop() != m {
		panic("netsim: link arrivals out of FIFO order")
	}
	if l.credited > 0 {
		l.credited--
	} else {
		l.bytes += m.size
	}
}

// creditSent credits the bytes of planned messages whose last byte has
// left the link by now, so Link.Bytes reads as if each were counted when
// its transmission ended.
func (l *Link) creditSent(now sim.Time) {
	for ; l.credited < l.n; l.credited++ {
		m := l.at(l.credited)
		if !m.arrival.Active() || m.sent > now {
			return
		}
		l.bytes += m.size
	}
}

// replan re-fixes every message on the link whose start is still in the
// future after a capacity change, in FIFO order from the end of the
// current transmission: each one's arrival is cancelled and re-scheduled
// at the new capacity, or held when the link is now cut. Messages already
// transmitting keep their times.
func (l *Link) replan(eng *sim.Engine) {
	now := eng.Now()
	k := 0
	for k < l.n && l.at(k).start <= now {
		k++
	}
	if k == l.n {
		return
	}
	l.holdEv.Cancel()
	for i := l.n - 1; i >= k; i-- {
		l.at(i).arrival.Cancel()
	}
	l.arrivals.Withdraw()
	t := l.at(k).start
	if l.Down() {
		for i := k; i < l.n; i++ {
			m := l.at(i)
			m.start, m.sent, m.arrival = t, t, sim.EventRef{}
		}
		l.free = t
		l.armHold(eng, t)
		return
	}
	for i := k; i < l.n; i++ {
		m := l.at(i)
		l.schedule(m, t)
		t = m.sent
	}
}

// armHold schedules the drop of the held messages at t, their start, if
// it is not armed yet.
func (l *Link) armHold(eng *sim.Engine, t sim.Time) {
	if !l.holdEv.Active() {
		l.holdEv = eng.At(t, l.dropHeld)
	}
}

// dropHeld runs at the start instant of the messages held on a link that
// is still cut: they are dropped.
func (l *Link) dropHeld() {
	for l.n > 0 {
		m := l.at(l.n - 1)
		if m.arrival.Active() {
			return
		}
		l.n--
		l.ring[(l.head+l.n)&(len(l.ring)-1)] = nil
		m.fab.recycleMsg(m)
	}
}

// deliver runs when the message fully arrives at its destination: either
// turn the record around as the reply leg of a round trip, or finish.
func (m *message) deliver() {
	if m.hasReply {
		m.hasReply = false
		m.size = m.replySize
		if m.src == m.dst {
			// Same-host reply: zero-cost but still asynchronous.
			m.path = nil
			m.hop = 0
			m.fab.eng.After(0, m.nextFn)
			return
		}
		m.path = m.fab.Route(m.dst, m.src)
		m.hop = 0
		m.next()
		return
	}
	done := m.done
	m.fab.recycleMsg(m)
	if done != nil {
		done()
	}
}

// Send transmits a small message of size bytes from src to dst using
// store-and-forward FIFO links: at each hop the message waits for the link,
// occupies it for size/capacity seconds, then propagates. done runs when the
// last byte arrives at dst. Sending to self completes after a zero-cost
// event (still asynchronous, preserving causality).
//
// This is the right model for RPC-sized messages; use StartFlow for bulk
// data so that one big transfer does not head-of-line-block a link.
func (f *Fabric) Send(src, dst string, size units.Bytes, done func()) {
	if size < 0 {
		panic("netsim: negative message size")
	}
	if src == dst {
		f.eng.After(0, done)
		return
	}
	m := f.allocMsg()
	m.size = size
	m.done = done
	m.hasReply = false
	m.path = f.Route(src, dst)
	m.hop = 0
	m.next()
}

// RoundTrip sends a request of reqSize from src to dst, then a reply of
// respSize back; done runs when the reply fully arrives at src. The whole
// round trip rides one pooled record, so it does not allocate either.
func (f *Fabric) RoundTrip(src, dst string, reqSize, respSize units.Bytes, done func()) {
	if reqSize < 0 || respSize < 0 {
		panic("netsim: negative message size")
	}
	m := f.allocMsg()
	m.size = reqSize
	m.done = done
	m.hasReply = true
	m.replySize = respSize
	m.src, m.dst = src, dst
	if src == dst {
		// Same-host request leg: one zero-delay event, then deliver turns
		// the record around for the (also zero-delay) reply leg, matching
		// the two-event timeline of a self Send followed by a self Send.
		m.path = nil
		m.hop = 0
		f.eng.After(0, m.nextFn)
		return
	}
	m.path = f.Route(src, dst)
	m.hop = 0
	m.next()
}
