package netsim

import (
	"math"
	"math/bits"
	"slices"
)

// Incremental max-min reallocation with lazy progress crediting.
//
// Flow arrivals and departures perturb only the connected component of the
// flow/link sharing graph they touch: a flow's rate can change only if it
// shares a link — transitively — with a link whose flow set or capacity
// changed. Every admission, completion and capacity change therefore marks
// the links it touches dirty (markDirty), and reallocate recomputes the
// water-filling pass only for the flows in components carrying a dirty
// link, keeping the frozen shares of every untouched flow. A clean
// component's flow and link sets are unchanged since its rates were last
// computed, and the water-filling pass is a deterministic function of
// exactly those sets, so the kept rates equal what a full recompute would
// assign.
//
// Component discovery is a breadth-first sweep over the per-link flow lists
// (Link.flows, maintained by admit/unlink with O(1) swap-removal), starting
// from the dirty links: it touches only the flows and links of the
// perturbed components, never the full live set. The component is then put
// in admission order: the live flows form a doubly linked list kept in seq
// order (insertFlow, removeFlow), so a component of A flows with
// A·log₂A ≥ live flows is read off that list, and a smaller one is sorted.
// Combined with the completion heap (doneheap.go) this makes the whole
// per-event flow path — crediting, component discovery, ordering,
// water-filling, rescheduling — cost O(A·log A + log flows) for an
// arrival or departure, where the last log is the heap re-key.
//
// THE LAZY-CREDITING INVARIANT. For every live flow, `remaining` and the
// per-link byte counters are exact as of `lastT`, and the flow has been
// transferring at constant `rate` ever since; `lastT` is allowed to lag
// arbitrarily far behind the clock while the rate is frozen. Whoever is
// about to change a flow's rate — or remove the flow — must call
// Fabric.credit(fl) first, at the current time, to realize the accumulated
// progress; reallocate does this for every affected flow before water-
// filling, completion does it when popping the heap, and abortCrossing
// does it before recycling. Reads of byte counters (TotalBytes, reports)
// go through FlushProgress. Untouched flows are deliberately NOT credited
// per event: crediting every flow on every event costs O(flows) per event,
// and removing that pass is the point of this design.
//
// Compatibility note: crediting progress in one closed-form chunk per rate
// change instead of one chunk per fabric event changes the float
// accumulation order, so completion times differ from the eager model
// (every flow credited on every event, full recompute, linear
// next-completion scan) in the last bits. That model lives on as a test
// oracle in flow_oracle_test.go; TestLazyMatchesEagerReference pins the two
// together within tolerance on randomized traces (including link-fault
// storms). The paper-output baseline was refreshed once for this change
// (see API.md).

// markDirty queues the link for the next reallocate pass. Idempotent
// between passes.
func (f *Fabric) markDirty(l *Link) {
	if !l.dirty {
		l.dirty = true
		f.dirtyLinks = append(f.dirtyLinks, l)
	}
}

// affectedFlows computes the set of flows whose rate may have changed since
// the last pass: the union of the flow/link connected components containing
// a dirty link, found by BFS over the per-link flow lists. It consumes
// (clears) the dirty-link list and returns the affected flows in admission
// order, in reusable scratch storage. A component of A flows costs
// O(A·log A): it is sorted, or, when that would cost as much as reading
// the live set, read off the seq-ordered live list.
func (f *Fabric) affectedFlows() []*Flow {
	f.epoch++
	epoch := f.epoch
	aff := f.affScratch[:0]
	for _, l := range f.dirtyLinks {
		l.dirty = false
		l.mark = epoch
		for _, s := range l.flows {
			if s.fl.mark != epoch {
				s.fl.mark = epoch
				aff = append(aff, s.fl)
			}
		}
	}
	f.dirtyLinks = f.dirtyLinks[:0]
	// BFS: aff doubles as the traversal queue; flows appended while
	// scanning earlier flows' path links.
	for i := 0; i < len(aff); i++ {
		for _, l := range aff[i].path {
			if l.mark == epoch {
				continue
			}
			l.mark = epoch
			for _, s := range l.flows {
				if s.fl.mark != epoch {
					s.fl.mark = epoch
					aff = append(aff, s.fl)
				}
			}
		}
	}
	// Water-filling iterates (and subtracts shares) in admission order so
	// the arithmetic is independent of traversal order. A component that
	// spans most of the live set (a shuffle's all-to-all flows) is read off
	// the live list; a small one is sorted.
	if n := len(aff); n*bits.Len(uint(n)) >= f.nFlows {
		aff = aff[:0]
		for fl := f.flowHead; fl != nil; fl = fl.next {
			if fl.mark == epoch {
				aff = append(aff, fl)
			}
		}
	} else {
		slices.SortFunc(aff, func(a, b *Flow) int {
			if a.seq < b.seq {
				return -1
			}
			return 1
		})
	}
	f.affScratch = aff
	return aff
}

// reallocate brings the max-min fair allocation up to date after flow
// arrivals/departures/capacity changes: credit the lazy progress of every
// affected flow (restricted to the perturbed components, see the package
// comment above), re-water-fill them, re-key them in the completion heap,
// and re-arm the single next-completion event.
func (f *Fabric) reallocate() {
	if len(f.dirtyLinks) > 0 {
		affected := f.affectedFlows()
		now := f.eng.Now()
		for _, fl := range affected {
			f.credit(fl) // invariant: credit before the rate may change
		}
		f.waterFill(affected)
		for _, fl := range affected {
			f.rekey(fl, now)
		}
	}
	f.armCompletion()
}

// waterFill runs progressive filling (water-filling) to a max-min fair
// allocation over the given flows, which must be closed under link sharing
// (no flow outside the set may cross any link used by a flow inside it) and
// in admission order. Link working state lives inline on the Link records
// (validity-stamped by wfPass), so the pass allocates nothing and touches
// only the given flows' links.
func (f *Fabric) waterFill(flows []*Flow) {
	f.wfPass++
	pass := f.wfPass
	links := f.wfLinks[:0]
	for _, fl := range flows {
		for _, l := range fl.path {
			if l.wfPass != pass {
				l.wfPass = pass
				l.wfRem = l.effCap()
				l.wfCnt = 1
				links = append(links, l)
			} else {
				l.wfCnt++
			}
		}
	}
	f.wfLinks = links
	unfrozen := len(flows)
	for _, fl := range flows {
		fl.frozen = false
	}
	for unfrozen > 0 {
		// Find the tightest link among links carrying unfrozen flows.
		minShare := math.Inf(1)
		for _, l := range links {
			if l.wfCnt > 0 {
				if share := l.wfRem / float64(l.wfCnt); share < minShare {
					minShare = share
				}
			}
		}
		if math.IsInf(minShare, 1) {
			break
		}
		// Freeze every unfrozen flow crossing a link at the bottleneck share.
		progressed := false
		for _, fl := range flows {
			if fl.frozen {
				continue
			}
			bottlenecked := false
			for _, l := range fl.path {
				if l.wfCnt > 0 && l.wfRem/float64(l.wfCnt) <= minShare*(1+1e-12) {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				continue
			}
			fl.rate = minShare
			fl.frozen = true
			unfrozen--
			for _, l := range fl.path {
				l.wfRem -= minShare
				if l.wfRem < 0 {
					l.wfRem = 0
				}
				l.wfCnt--
			}
			progressed = true
		}
		if !progressed {
			break // numerical safety: should not happen
		}
	}
}
