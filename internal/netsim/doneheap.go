package netsim

import "edisim/internal/sim"

// Indexed min-heap of projected flow completion times.
//
// Lazy accounting makes a flow's completion closed-form — doneAt =
// lastT + remaining/rate while the rate is frozen — so the fabric keeps the
// live flows in a 4-ary min-heap keyed (doneAt, seq) and arms a single
// engine event at the heap minimum. Only re-rated flows are re-keyed
// (heapFix) and only completed/aborted flows are removed, so rescheduling
// after an arrival or departure costs O(component × log flows) instead of
// the old O(flows) next-completion scan. The heap mirrors the pooled 4-ary
// event kernel in internal/sim: concrete element type, no interface boxing,
// position indices stored on the records (Flow.heapPos, -1 when absent).
//
// Ties on doneAt break by admission sequence, so simultaneous completions
// pop — and run their done callbacks — in admission order, matching the
// old linear sweep.

// flowLess orders heap entries by (projected completion, admission seq).
func flowLess(a, b *Flow) bool {
	if a.doneAt != b.doneAt {
		return a.doneAt < b.doneAt
	}
	return a.seq < b.seq
}

// heapUp restores heap order moving the flow at position i toward the root.
func (f *Fabric) heapUp(i int) {
	h := f.doneHeap
	fl := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !flowLess(fl, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].heapPos = int32(i)
		i = p
	}
	h[i] = fl
	fl.heapPos = int32(i)
}

// heapDown restores heap order moving the flow at position i toward the
// leaves.
func (f *Fabric) heapDown(i int) {
	h := f.doneHeap
	n := len(h)
	fl := h[i]
	for {
		first := i*4 + 1
		if first >= n {
			break
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if flowLess(h[c], h[m]) {
				m = c
			}
		}
		if !flowLess(h[m], fl) {
			break
		}
		h[i] = h[m]
		h[i].heapPos = int32(i)
		i = m
	}
	h[i] = fl
	fl.heapPos = int32(i)
}

// heapFix inserts the flow or restores its position after a doneAt change.
func (f *Fabric) heapFix(fl *Flow) {
	if fl.heapPos < 0 {
		fl.heapPos = int32(len(f.doneHeap))
		f.doneHeap = append(f.doneHeap, fl)
		f.heapUp(int(fl.heapPos))
		return
	}
	f.heapUp(int(fl.heapPos))
	f.heapDown(int(fl.heapPos))
}

// heapRemove deletes the flow from the heap; a no-op when absent.
func (f *Fabric) heapRemove(fl *Flow) {
	i := int(fl.heapPos)
	if i < 0 {
		return
	}
	n := len(f.doneHeap) - 1
	if i != n {
		f.doneHeap[i] = f.doneHeap[n]
		f.doneHeap[i].heapPos = int32(i)
	}
	f.doneHeap[n] = nil
	f.doneHeap = f.doneHeap[:n]
	if i < n {
		f.heapDown(i)
		f.heapUp(i)
	}
	fl.heapPos = -1
}

// heapPopMin removes and returns the earliest-completing flow.
func (f *Fabric) heapPopMin() *Flow {
	fl := f.doneHeap[0]
	f.heapRemove(fl)
	return fl
}

// armCompletion (re)arms the single pending-completion engine event at the
// heap minimum. With an empty heap no event is armed; flows at rate 0 are
// not in the heap (they cannot complete until a reallocation re-rates them).
func (f *Fabric) armCompletion() {
	if len(f.doneHeap) == 0 {
		f.nextDone.Cancel()
		f.nextDone = sim.EventRef{}
		return
	}
	at := f.doneHeap[0].doneAt
	if f.nextDone.Active() && f.nextDone.Time() == at {
		return
	}
	f.nextDone = f.eng.Rearm(f.nextDone, at, f.completeFn)
}
