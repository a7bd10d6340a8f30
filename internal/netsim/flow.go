package netsim

import (
	"math"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// Flow is a bulk transfer receiving a max-min fair share of every link on
// its path. Rates are recomputed whenever any flow starts or finishes.
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
	frozen    bool // scratch flag for the water-filling pass

	prev    *Flow // neighbours in the fabric's seq-ordered live list
	next    *Flow
	heapPos int32    // position in the completion heap, -1 when absent
	doneAt  sim.Time // projected completion (heap key), valid while heapPos >= 0
	mark    uint64   // epoch stamp for the dirty-component sweep
	linkPos []int32  // position in each path link's flow list, parallel to path

	// Pre-bound continuations, created once per record (amortized to zero
	// by the pool) so StartFlow never allocates a closure: admission into
	// the bandwidth-sharing set after the propagation delay, and the
	// zero-cost completion of empty or same-host transfers.
	admitFn func()
	zeroFn  func()
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
// reference costs nothing; linkPos keeps its capacity for the next use.
func (f *Fabric) recycleFlow(fl *Flow) {
	fl.seq = 0
	fl.done = nil // release the closure for GC
	fl.path = nil
	fl.linkPos = fl.linkPos[:0]
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
// crossed the path, dirtying the path links for the incremental
// water-filling pass. Only the flow's connected component is touched: the
// lazy-crediting sweep in reallocate credits exactly the flows whose rate
// may change.
func (fl *Flow) admit() {
	f := fl.fab
	// The propagation window transferred nothing: advance lastT so the first
	// crediting pass doesn't pay the flow phantom bytes over [start, admit)
	// at its post-admission rate (the pre-lazy code had exactly that
	// double-count; the golden refresh covers the fix).
	fl.lastT = f.eng.Now()
	f.insertFlow(fl)
	fl.linkPos = fl.linkPos[:0]
	for i, l := range fl.path {
		fl.linkPos = append(fl.linkPos, int32(len(l.flows)))
		l.flows = append(l.flows, linkSlot{fl: fl, pathIdx: int32(i)})
		f.markDirty(l)
	}
	f.reallocate()
}

// credit brings one flow's lazy progress accounting up to now: remaining,
// lastT and the per-link byte counters. It MUST run before the flow's rate
// changes or the flow leaves the fabric (the lazy-crediting invariant, see
// waterfill.go). Idempotent at a fixed time.
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
// O(flows) pass is the only place every live flow is credited at once.
func (f *Fabric) FlushProgress() {
	for fl := f.flowHead; fl != nil; fl = fl.next {
		f.credit(fl)
	}
	now := f.eng.Now()
	for _, l := range f.links {
		l.creditSent(now)
	}
}

// unlink removes the flow from its path links' flow lists (swap-remove via
// the linkPos back-pointers, O(path)) and marks the links dirty for the next
// reallocation pass.
func (f *Fabric) unlink(fl *Flow) {
	for i, l := range fl.path {
		pos := fl.linkPos[i]
		last := len(l.flows) - 1
		if int(pos) != last {
			moved := l.flows[last]
			l.flows[pos] = moved
			moved.fl.linkPos[moved.pathIdx] = pos
		}
		l.flows[last] = linkSlot{}
		l.flows = l.flows[:last]
		f.markDirty(l)
	}
}

// insertFlow links an admitted flow into the live list at its seq
// position. Flows are admitted after their path latency, so a flow started
// later on a shorter path can be admitted first; the walk back from the
// newest flow is short because admissions are nearly in seq order.
func (f *Fabric) insertFlow(fl *Flow) {
	after := f.flowTail
	for after != nil && after.seq > fl.seq {
		after = after.prev
	}
	fl.prev = after
	if after == nil {
		fl.next = f.flowHead
		f.flowHead = fl
	} else {
		fl.next = after.next
		after.next = fl
	}
	if fl.next == nil {
		f.flowTail = fl
	} else {
		fl.next.prev = fl
	}
	f.nFlows++
}

// removeFlow unlinks the flow from the live list in O(1); the list stays
// in seq order.
func (f *Fabric) removeFlow(fl *Flow) {
	if fl.prev == nil {
		f.flowHead = fl.next
	} else {
		fl.prev.next = fl.next
	}
	if fl.next == nil {
		f.flowTail = fl.prev
	} else {
		fl.next.prev = fl.prev
	}
	fl.prev, fl.next = nil, nil
	f.nFlows--
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
		f.removeFlow(fl)
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

// rekey recomputes the flow's projected completion after a credit +
// possible rate change and fixes its heap position. Rate-0 flows (and the
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
