package netsim

import (
	"edisim/internal/sim"
	"edisim/internal/units"
)

// message is a pooled in-flight Send record. Records come from a fabric
// freelist (grown in chunks, like Flow and sim.Event records) and are
// recycled on delivery or drop, so steady-state messaging does not
// allocate. No handle type is exposed: a message is never cancellable or
// observable from user code. A request/reply exchange is two Sends, the
// reply sent from the request's done callback.
//
// A leg costs one engine event, its delivery. A link is a capacity-1 FIFO
// with a constant delay that serves legs in order of arrival at the link,
// ties in leg order (the order the legs were sent). So when a leg is sent
// its whole path is planned in closed form (see hopPlan): at each hop its
// transmission starts at the later of its arrival and the end of the plan
// ahead of it, takes size/capacity at the capacity of that instant, and the
// next hop's arrival is Delay after its last byte leaves. Only the delivery
// at the far end of the last link is scheduled, on that link's delivery
// lane; intermediate hops cost no event. The float operations are those of
// an engine timer chain, so every time is exactly what a transmit event
// followed by a propagation event per hop would give.
//
// A leg sent later can reach a shared link before legs planned there
// earlier. It is inserted ahead of them (a reorder), and each plan whose
// start it pushes back is re-planned down the rest of its leg's path (a
// re-plan); a delivery that moves is cancelled and re-added. Plans behind
// it whose start does not move keep their times, and so does every plan
// already transmitting.
type message struct {
	fab  *Fabric
	path []*Link
	leg  uint64 // stamp of the leg in flight (Fabric.legs); 0 while pooled
	size units.Bytes
	done func()

	// delivery is the leg's one event, on its last link's delivery lane;
	// inactive while the leg is held or dropped short of its destination.
	delivery sim.EventRef

	// deliverFn is the pre-bound delivery continuation, created once per
	// record (amortized to zero by the pool).
	deliverFn func()
}

// hopPlan is one leg's planned transmission on one link: when it arrives
// there and when its last byte leaves. A link keeps its plans in order of
// (arrive, leg), and a plan's transmission starts at the later of its
// arrival and the previous plan's sent (see startOf). A plan is held when
// the link is cut at its start: sent is the start, the leg is planned no
// further, and it is dropped then unless the link heals first. Plans
// retire lazily from the front of the list once their last byte has left.
type hopPlan struct {
	m            *message
	leg          uint64 // m.leg when planned; a stale plan never matches
	size         units.Bytes
	arrive, sent sim.Time
	hop          int32 // the link's index in m.path
	last         bool  // the link is the last of the leg's path
	held         bool
}

// planKind says what a planOp does to a leg's plan on one link.
type planKind uint8

const (
	planPlace  planKind = iota // the leg is not planned on the link yet
	planMove                   // its arrival at the link changed
	planRemove                 // it no longer reaches the link
)

// planOp is a pending change to one leg's plan on m.path[hop]. Changes
// found while a link's plans are refitted queue up on the fabric and are
// applied in order by settle, so no link is refitted inside another's
// refit. A plan's arrival on a link is always its previous hop's sent
// plus that link's Delay, so the op that moves or removes it knows its
// current arrival too, and the link finds it by search, not by a walk.
type planOp struct {
	m    *message
	leg  uint64
	at   sim.Time // new arrival at the link (place, move)
	from sim.Time // current arrival at the link (move, remove)
	hop  int32
	kind planKind
}

// PlanStats counts how often message legs were planned out of send order.
type PlanStats struct {
	// Reorders counts hop plans placed ahead of plans already on their
	// link, or moved to another place in its order.
	Reorders uint64
	// Replans counts hop plans moved or removed because the same leg's
	// plan on its previous link changed.
	Replans uint64
}

// PlanStats reports the fabric's message planning counts so far.
func (f *Fabric) PlanStats() PlanStats { return f.planStats }

// msgChunk is how many message records the freelist grows by at once.
const msgChunk = 64

// allocMsg takes a message record from the freelist, growing it when empty.
func (f *Fabric) allocMsg() *message {
	if len(f.freeMsgs) == 0 {
		chunk := make([]message, msgChunk)
		for i := range chunk {
			m := &chunk[i]
			m.fab = f
			m.deliverFn = m.deliver
			f.freeMsgs = append(f.freeMsgs, m)
		}
	}
	m := f.freeMsgs[len(f.freeMsgs)-1]
	f.freeMsgs = f.freeMsgs[:len(f.freeMsgs)-1]
	return m
}

// recycleMsg returns the record to the pool. The path slice belongs to the
// route cache, so dropping the reference costs nothing. Plans of the leg
// left on links go stale with the leg stamp.
func (f *Fabric) recycleMsg(m *message) {
	m.done = nil // release the closure for GC
	m.path = nil
	m.leg = 0
	m.delivery = sim.EventRef{}
	f.freeMsgs = append(f.freeMsgs, m)
}

// launch stamps m as a new leg and plans its whole path from now. While
// the leg arrives at each link after every plan already there, and the
// link is up, its plan is simply appended; the first link where it would
// overtake a plan, or is cut, goes through apply and settle.
func (f *Fabric) launch(m *message) {
	f.legs++
	m.leg = f.legs
	now := f.eng.Now()
	at := now
	for i, l := range m.path {
		if len(l.plans) == cap(l.plans) {
			l.retire(now, false)
		}
		n := len(l.plans)
		if l.Down() || n > l.first && l.plans[n-1].arrive > at {
			f.ops = append(f.ops, planOp{m: m, leg: m.leg, at: at, hop: int32(i), kind: planPlace})
			f.settle()
			return
		}
		sent := l.startOf(n, at) + sim.Time(float64(m.size)/l.effCap())
		l.plans = append(l.plans, hopPlan{m: m, leg: m.leg, size: m.size,
			arrive: at, sent: sent, hop: int32(i), last: i == len(m.path)-1})
		at = sent + sim.Time(l.Delay)
	}
	m.delivery = m.path[len(m.path)-1].deliveries.At(at, m.deliverFn)
}

// settle applies the queued plan changes in order, including those each
// one queues in turn, until every leg's plan is consistent.
func (f *Fabric) settle() {
	for i := 0; i < len(f.ops); i++ {
		op := f.ops[i]
		if op.m.leg == op.leg {
			op.m.path[op.hop].apply(op)
		}
	}
	f.ops = f.ops[:0]
}

// apply places, moves or removes one leg's plan on the link and refits
// the plans behind it. A leg that would start on a cut link now is
// dropped at once: done never runs, like a frame on a dead cable, and
// recovery belongs to the sender's timeout machinery.
func (l *Link) apply(op planOp) {
	f := l.fab
	now := f.eng.Now()
	if len(l.plans) == cap(l.plans) {
		l.retire(now, false)
	}
	old, at := -1, -1
	if op.kind != planPlace {
		old = l.find(op.from, op.leg)
		f.planStats.Replans++
	}
	if op.kind != planRemove {
		at = l.search(op.at, op.leg)
		if op.kind == planPlace && l.Down() && l.startOf(at, op.at) <= now {
			f.recycleMsg(op.m)
			return
		}
	}
	// Plans from j on may change; their deliveries are withdrawn and
	// re-added in order. Refitting may stop at the first unchanged plan
	// past through, the last one whose successor has a new predecessor.
	j := at
	if old >= 0 && (at < 0 || old < at) {
		j = old
	}
	l.unschedule(j)
	through := at
	// A new plan has no plan downstream yet, like a held one.
	p := hopPlan{m: op.m, leg: op.leg, size: op.m.size, hop: op.hop,
		last: int(op.hop) == len(op.m.path)-1, held: true}
	if old >= 0 {
		p = l.plans[old]
		copy(l.plans[old:], l.plans[old+1:])
		l.plans = l.plans[:len(l.plans)-1]
		if at > old {
			at--
		}
		through = max(at, old)
		if op.kind == planRemove {
			through = old - 1
			if !p.held && !p.last {
				f.ops = append(f.ops, planOp{m: p.m, leg: p.leg, from: p.sent + sim.Time(l.Delay), hop: p.hop + 1, kind: planRemove})
			}
		}
	}
	if at >= 0 {
		p.arrive = op.at
		l.plans = append(l.plans, hopPlan{})
		copy(l.plans[at+1:], l.plans[at:])
		l.plans[at] = p
		if old < 0 && at < len(l.plans)-1 || old >= 0 && at != old {
			f.planStats.Reorders++
		}
	}
	l.refit(j, through)
	l.reschedule(j)
	if l.Down() || l.holdEv.Active() {
		l.rearmHold()
	}
}

// find returns the index of the leg's plan that arrives at at on the link.
// Leg stamps are unique per fabric.
func (l *Link) find(at sim.Time, leg uint64) int {
	if i := l.search(at, leg); i < len(l.plans) && l.plans[i].leg == leg {
		return i
	}
	panic("netsim: leg has no plan on its link")
}

// search returns the index of the first plan not before (at, leg) in the
// link's order: where a plan arriving at at for leg goes. (apply takes
// the leg's old plan out afterwards, and steps the index back when the old
// plan was ahead of it.) Most plans land at or near the tail, so it
// gallops back from the tail in doubling steps, then bisects the last
// step: one comparison at the tail, logarithmic anywhere else.
func (l *Link) search(at sim.Time, leg uint64) int {
	lo, hi := l.first, len(l.plans) // plans before lo precede the key, from hi on do not
	for step := 1; hi-step >= lo; step *= 2 {
		if l.precedes(hi-step, at, leg) {
			lo = hi - step + 1
			break
		}
		hi -= step
	}
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if l.precedes(h, at, leg) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// precedes reports whether plan i comes before a plan arriving at at for
// leg in the link's order.
func (l *Link) precedes(i int, at sim.Time, leg uint64) bool {
	q := &l.plans[i]
	return q.arrive < at || q.arrive == at && q.leg < leg
}

// startOf is when a plan at index i that arrives at at starts: the later
// of at and the end of the plan ahead of it, or of the last retired one.
func (l *Link) startOf(i int, at sim.Time) sim.Time {
	if i > l.first {
		return max(at, l.plans[i-1].sent)
	}
	return max(at, l.base)
}

// refit recomputes the plans from index k on at the link's current
// capacity: start is the later of the plan's arrival and the end of the
// plan ahead, and on a cut link the plan is held (sent = start). It stops
// at the first plan past through whose times did not change. A plan whose
// transmission changed is carried to its leg's next link.
func (l *Link) refit(k, through int) {
	f := l.fab
	down := l.Down()
	rate := l.effCap()
	for i := k; i < len(l.plans); i++ {
		p := &l.plans[i]
		sent := l.startOf(i, p.arrive)
		if !down {
			sent += sim.Time(float64(p.size) / rate)
		}
		if i > through && sent == p.sent && down == p.held {
			return
		}
		wasHeld, wasSent := p.held, p.sent
		p.sent, p.held = sent, down
		if p.last {
			continue
		}
		next := planOp{m: p.m, leg: p.leg, at: sent + sim.Time(l.Delay), from: wasSent + sim.Time(l.Delay), hop: p.hop + 1}
		switch {
		case down && !wasHeld:
			next.kind = planRemove
		case !down && wasHeld:
			next.kind = planPlace
		case !down && sent != wasSent:
			next.kind = planMove
		default:
			continue
		}
		f.ops = append(f.ops, next)
	}
}

// unschedule cancels the deliveries of the plans from index j on, newest
// first, and withdraws them from the lane so that they can be re-added in
// order.
func (l *Link) unschedule(j int) {
	if l.deliveries.Len() == 0 {
		return
	}
	cut := false
	for i := len(l.plans) - 1; i >= j; i-- {
		if p := &l.plans[i]; p.last && p.m.delivery.Active() {
			p.m.delivery.Cancel()
			cut = true
		}
	}
	if cut {
		l.deliveries.Withdraw()
	}
}

// reschedule puts the delivery of every plan from index j on that ends
// its leg and has none on the lane, in the link's order.
func (l *Link) reschedule(j int) {
	for i := j; i < len(l.plans); i++ {
		if p := &l.plans[i]; !p.held && p.last && !p.m.delivery.Active() {
			p.m.delivery = l.deliveries.At(p.sent+sim.Time(l.Delay), p.m.deliverFn)
		}
	}
}

// retire drops the plans at the front whose last byte has left by now,
// crediting their bytes unless FlushProgress already has. A held plan
// stops it unless drop is set; then the held leg is dropped. Placing a
// plan retires only when the link's plan slice is full, so the front is
// read once per batch rather than once per leg.
func (l *Link) retire(now sim.Time, drop bool) {
	i := l.first
	for ; i < len(l.plans); i++ {
		p := &l.plans[i]
		if p.sent > now || p.held && !drop {
			break
		}
		switch {
		case p.held:
			if p.m.leg == p.leg {
				l.fab.recycleMsg(p.m)
			}
		case l.credited > 0:
			l.credited--
		default:
			l.bytes += p.size
		}
		l.base = p.sent
	}
	l.first = i
	if 4*i >= len(l.plans) {
		n := copy(l.plans, l.plans[i:])
		l.plans, l.first = l.plans[:n], 0
	}
}

// creditSent credits the bytes of planned messages whose last byte has
// left the link by now, so Link.Bytes reads as if each were counted when
// its transmission ended.
func (l *Link) creditSent(now sim.Time) {
	for i := l.first + l.credited; i < len(l.plans); i++ {
		p := &l.plans[i]
		if p.held || p.sent > now {
			return
		}
		l.bytes += p.size
		l.credited++
	}
}

// replan refits every plan on the link whose start is still in the future
// after a capacity change, at the new capacity, or holds it when the link
// is now cut; plans already transmitting keep their times. The changes
// are carried down each leg's path when the fabric settles.
func (l *Link) replan() {
	now := l.fab.eng.Now()
	l.retire(now, false)
	k := len(l.plans)
	for k > l.first && l.startOf(k-1, l.plans[k-1].arrive) > now {
		k--
	}
	if k < len(l.plans) {
		l.unschedule(k)
		l.refit(k, len(l.plans))
		l.reschedule(k)
	}
	l.rearmHold()
}

// rearmHold arms the drop of the held plans at the earliest one's start,
// or disarms it when none is held.
func (l *Link) rearmHold() {
	for i := l.first; i < len(l.plans); i++ {
		if p := &l.plans[i]; p.held {
			if !l.holdEv.Active() || l.holdEv.Time() != p.sent {
				l.holdEv = l.fab.eng.Rearm(l.holdEv, p.sent, l.dropHeld)
			}
			return
		}
	}
	l.holdEv.Cancel()
}

// dropHeld runs at the start of the earliest held plan on a link that is
// still cut: every leg held to now is dropped.
func (l *Link) dropHeld() {
	l.retire(l.fab.eng.Now(), true)
	l.rearmHold()
}

// deliver runs when the leg fully arrives at its destination: recycle the
// record, then run done, which may send again on it.
func (m *message) deliver() {
	f := m.fab
	done := m.done
	f.recycleMsg(m)
	if done != nil {
		done()
	}
}

// Send transmits a small message of size bytes from vertex src to dst using
// store-and-forward FIFO links: at each hop the message waits for the link,
// occupies it for size/capacity seconds, then propagates. done runs when the
// last byte arrives at dst. Sending to self completes after a zero-cost
// event (still asynchronous, preserving causality).
//
// This is the right model for RPC-sized messages; use StartFlow for bulk
// data so that one big transfer does not head-of-line-block a link.
func (f *Fabric) Send(src, dst Vertex, size units.Bytes, done func()) {
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
	m.path = f.path(src, dst)
	f.launch(m)
}
