package netsim

import (
	"math"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// Flow is a bulk transfer receiving a max-min fair share of every link on
// its path. When a flow starts or finishes, the rates of the flows that
// share binding links with it, directly or through other flows, are
// recomputed. An admitted flow is listed on each binding link of its path
// (Link.flows; a slack link can never limit it, see waterfill.go), the
// only index of the live flows besides the completion heap. Every path
// has a binding link, so every live flow is listed somewhere.
//
// Flow records are pooled on the fabric like sim.Event records: StartFlow
// takes one from a freelist (grown in chunks) and completion returns it, so
// the bulk-transfer hot path — one flow per HDFS block, shuffle segment or
// iperf stream — does not allocate in steady state. User code never holds
// *Flow directly; it holds FlowRef handles, which stay safe across
// recycling.
//
// Progress accounting is lazy (see the invariant in waterfill.go): a flow
// accumulates at its frozen rate from lastT without per-event bookkeeping,
// and credit brings remaining/lastT/link-byte counters up to now only when
// the rate is about to change or the flow leaves the fabric. Its projected
// completion is therefore closed-form (doneAt = lastT + remaining/rate) and
// lives in the fabric's completion heap (doneheap.go).
type Flow struct {
	Src, Dst string

	fab       *Fabric
	seq       uint64 // unique per start; 0 while on the freelist
	path      []*Link
	remaining float64 // bytes left as of lastT
	rate      float64 // bytes/sec, current allocation (frozen between passes)
	lastT     sim.Time
	done      func()
	// fill is the water-filling pass's working rate: negative while the
	// flow is unfrozen, then the share it froze at (see waterFill).
	fill float64

	heapPos int32    // position in the completion heap, -1 when absent
	doneAt  sim.Time // projected completion (heap key), valid while heapPos >= 0
	mark    uint64   // epoch stamp for the dirty-component sweep
	// links are the path links the flow is listed on, each with the
	// flow's position in that link's flow list: the binding ones at
	// admission, and any that turned binding later (relist). The slice
	// keeps its capacity across recycling.
	links []flowLink

	// Pre-bound continuations, created once per record (amortized to zero
	// by the pool) so StartFlow never allocates a closure: admission into
	// the bandwidth-sharing set after the propagation delay, and the
	// zero-cost completion of empty or same-host transfers.
	admitFn func()
	zeroFn  func()
}

// flowLink is one entry of Flow.links: a link the flow is listed on and
// the flow's index in that link's flow list.
type flowLink struct {
	l   *Link
	pos int32
}

// FlowRef is a cheap, copyable handle to a started flow. The zero value is
// inert. A ref stays valid-to-use after its flow completes: a dead ref
// reports Finished() == true and a zero rate.
type FlowRef struct {
	fl  *Flow
	seq uint64
}

// live reports whether the ref still names an in-flight flow.
func (r FlowRef) live() bool { return r.fl != nil && r.fl.seq == r.seq }

// Finished reports whether the transfer completed. The zero ref reports
// false (it never named a flow).
func (r FlowRef) Finished() bool { return r.fl != nil && !r.live() }

// Rate reports the current allocated rate in bytes/sec (0 once finished).
// The rate is always current — lazy accounting defers progress counters,
// never rate changes.
func (r FlowRef) Rate() units.BytesPerSec {
	if r.live() {
		return units.BytesPerSec(r.fl.rate)
	}
	return 0
}

// flowChunk is how many Flow records the freelist grows by at once.
const flowChunk = 64

// allocFlow takes a flow record from the freelist, growing it when empty.
func (f *Fabric) allocFlow() *Flow {
	if len(f.freeFlows) == 0 {
		chunk := make([]Flow, flowChunk)
		for i := range chunk {
			fl := &chunk[i]
			fl.fab = f
			fl.heapPos = -1
			fl.admitFn = fl.admit
			fl.zeroFn = fl.finishZero
			f.freeFlows = append(f.freeFlows, fl)
		}
	}
	fl := f.freeFlows[len(f.freeFlows)-1]
	f.freeFlows = f.freeFlows[:len(f.freeFlows)-1]
	return fl
}

// recycleFlow invalidates outstanding refs and returns the record to the
// pool. The path slice belongs to the route cache, so dropping the
// reference costs nothing; links keeps its capacity for the next use.
func (f *Fabric) recycleFlow(fl *Flow) {
	fl.seq = 0
	fl.done = nil // release the closure for GC
	fl.path = nil
	fl.links = fl.links[:0]
	f.freeFlows = append(f.freeFlows, fl)
}

// StartFlow begins a bulk transfer of size bytes from src to dst; done runs
// when the last byte arrives. A zero-size flow completes via a zero-delay
// event. Same-host transfers skip the network (memory copy, modeled free).
func (f *Fabric) StartFlow(src, dst string, size units.Bytes, done func()) FlowRef {
	f.flowSeq++
	fl := f.allocFlow()
	fl.Src, fl.Dst = src, dst
	fl.seq = f.flowSeq
	fl.remaining = float64(size)
	fl.rate = 0
	fl.done = done
	fl.lastT = f.eng.Now()
	ref := FlowRef{fl: fl, seq: fl.seq}
	if src == dst || size == 0 {
		f.eng.After(0, fl.zeroFn)
		return ref
	}
	fl.path = f.Route(src, dst)
	// Propagation: first byte takes the path latency; model by delaying
	// admission of the flow into the bandwidth-sharing set.
	f.eng.After(pathDelay(fl.path), fl.admitFn)
	return ref
}

// finishZero completes an empty or same-host transfer: recycle first so the
// done callback can immediately reuse the record.
func (fl *Flow) finishZero() {
	f := fl.fab
	done := fl.done
	f.recycleFlow(fl)
	if done != nil {
		done()
	}
}

// admit adds the flow to the bandwidth-sharing set once its first byte has
// crossed the path, listing it on the path's binding links and dirtying
// them for the incremental water-filling pass. Its endpoints stop being
// relays for the slack rule first. Only the flow's connected component is
// touched, and reallocate credits only the flows whose rate changes.
func (fl *Flow) admit() {
	f := fl.fab
	// The propagation window transferred nothing: advance lastT so the first
	// crediting pass doesn't pay the flow phantom bytes over [start, admit)
	// at its post-admission rate (the pre-lazy code had exactly that
	// double-count; the golden refresh covers the fix).
	fl.lastT = f.eng.Now()
	if f.slackStale {
		f.refreshSlack()
	}
	f.markEndpoint(fl.path[0].src)
	f.markEndpoint(fl.path[len(fl.path)-1].dst)
	f.relist()
	f.nFlows++
	if cap(fl.links) < len(fl.path) {
		fl.links = make([]flowLink, 0, len(fl.path))
	}
	for _, l := range fl.path {
		if !l.slack {
			f.list(fl, l)
		}
	}
	f.reallocate()
}

// list adds the flow to the link's flow list and dirties the link.
func (f *Fabric) list(fl *Flow, l *Link) {
	fl.links = append(fl.links, flowLink{l: l, pos: int32(len(l.flows))})
	l.flows = append(l.flows, linkSlot{fl: fl, slot: int32(len(fl.links) - 1)})
	f.markDirty(l)
}

// credit brings one flow's lazy progress accounting up to now: remaining,
// lastT and the byte counters of every link of its path, slack or
// binding. It MUST run before the flow's rate changes or the flow leaves
// the fabric (the lazy-crediting invariant, see waterfill.go). Idempotent
// at a fixed time.
func (f *Fabric) credit(fl *Flow) {
	now := f.eng.Now()
	dt := float64(now - fl.lastT)
	if dt > 0 && fl.rate > 0 {
		progress := fl.rate * dt
		if progress > fl.remaining {
			progress = fl.remaining
		}
		fl.remaining -= progress
		for _, l := range fl.path {
			l.bytes += units.Bytes(progress)
		}
	}
	fl.lastT = now
}

// FlushProgress brings every live flow's lazy byte accounting up to now and
// credits every message whose last byte has left its link, so Link.Bytes
// and TotalBytes reflect all progress. Reports and assertions should call
// it (TotalBytes does so itself); the hot path never needs it, and this
// pass over the links' flow lists is the only place every live flow is
// credited at once. Every live flow is listed on a binding link, and one
// listed on several is reached once per link, which is harmless: credit
// is idempotent at one instant, and the link byte counters it adds to are
// integers, so the visiting order cannot change them.
func (f *Fabric) FlushProgress() {
	now := f.eng.Now()
	for _, l := range f.links {
		for _, s := range l.flows {
			f.credit(s.fl)
		}
		l.creditSent(now)
	}
}

// unlink removes the flow from the flow lists it is on (swap-remove via
// the Flow.links back-pointers, O(path)) and marks those links dirty for
// the next reallocation pass.
func (f *Fabric) unlink(fl *Flow) {
	for _, fk := range fl.links {
		l, pos := fk.l, fk.pos
		last := len(l.flows) - 1
		if int(pos) != last {
			moved := l.flows[last]
			l.flows[pos] = moved
			moved.fl.links[moved.slot].pos = pos
		}
		l.flows[last] = linkSlot{}
		l.flows = l.flows[:last]
		f.markDirty(l)
	}
}

// completeFlows is the single pending-completion event: it finishes every
// flow whose projected completion has arrived, in (time, admission) order
// from the completion heap, then reallocates the perturbed components.
// Finished records are recycled before their done callbacks run, so a
// callback starting a new flow can reuse them immediately.
func (f *Fabric) completeFlows() {
	f.nextDone = sim.EventRef{}
	now := f.eng.Now()
	// Collect done callbacks in the reusable queue. completeFlows never
	// nests (it only runs as an engine event), and callbacks append flows,
	// not callbacks, so iterating the queue below is safe.
	finished := f.doneQueue[:0]
	for len(f.doneHeap) > 0 && f.doneHeap[0].doneAt <= now {
		fl := f.heapPopMin()
		f.credit(fl)
		if fl.remaining > 0 {
			// Closed-form completion: the last float residue of the
			// transfer is delivered exactly at the projected instant.
			for _, l := range fl.path {
				l.bytes += units.Bytes(fl.remaining)
			}
			fl.remaining = 0
		}
		f.unlink(fl)
		f.nFlows--
		if fl.done != nil {
			finished = append(finished, fl.done)
		}
		f.recycleFlow(fl)
	}
	f.reallocate()
	for _, done := range finished {
		done()
	}
	for i := range finished {
		finished[i] = nil
	}
	f.doneQueue = finished[:0]
}

// rekey recomputes the flow's projected completion after a credit and a
// rate change and fixes its heap position. Rate-0 flows (and the
// pathological non-finite projection) leave the heap: they cannot complete
// until a later reallocation re-rates them.
func (f *Fabric) rekey(fl *Flow, now sim.Time) {
	if fl.rate > 0 {
		at := now + sim.Time(fl.remaining/fl.rate)
		if !math.IsInf(float64(at), 0) {
			fl.doneAt = at
			f.heapFix(fl)
			return
		}
	}
	f.heapRemove(fl)
}

// ActiveFlows reports the number of in-flight bulk transfers.
func (f *Fabric) ActiveFlows() int { return f.nFlows }
