package netsim

import "math"

// Incremental max-min reallocation with lazy progress crediting.
//
// Flow arrivals and departures perturb only the connected component of the
// flow/link sharing graph they touch: a flow's rate can change only if it
// shares a link — transitively — with a link whose flow set or capacity
// changed. Every admission, completion and capacity change therefore marks
// the links it touches dirty (markDirty), and reallocate recomputes the
// water-filling pass only for the flows and links of components carrying a
// dirty link, keeping the frozen shares of every untouched flow. A clean
// component's flow and link sets are unchanged since its rates were last
// computed, and the water-filling pass is a deterministic function of
// exactly those sets, so the kept rates equal what a full recompute would
// assign.
//
// Component discovery is a breadth-first sweep over the per-link flow lists
// (Link.flows, maintained by admit/unlink with O(1) swap-removal), starting
// from the dirty links: it touches only the flows and links of the
// perturbed components, never the full live set, and hands both to
// waterFill in whatever order the sweep found them.
//
// The water-filling pass runs in rounds. A round computes every active
// link's fair share once and takes the smallest as the round's bottleneck
// share. Every link whose share is within a 1e-12 relative tolerance of it
// is a bottleneck link, and the unfrozen flows on its own flow list are
// frozen at the bottleneck share; a frozen flow subtracts that share from
// each link on its path. A round over a component of L links and A flows
// costs O(L) for the shares, at most the links still carrying unfrozen
// flows, plus the flow lists of its bottleneck links; a link is a
// bottleneck at most once, and each flow is frozen once at O(path), so a
// pass of R rounds costs O(R·L + A·path). With the completion heap
// (doneheap.go) re-keying each flow whose projected completion moved in
// O(log flows), that is the whole per-event cost of an arrival or
// departure: crediting, component discovery, water-filling and
// rescheduling.
//
// The rates do not depend on the order of the flows or the links. The
// bottleneck share is a minimum, and which links are bottlenecks is read
// from the shares at the start of the round, before any flow is frozen.
// Every subtraction in a round subtracts the same bottleneck share, so each
// link sees the same sequence of float operations however its flows are
// visited, and every frozen flow gets that same share. The pass is thus
// bit-identical for any admission order and any traversal of the
// component, which is why neither is sorted.
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

// affectedFlows computes the flows whose rate may have changed since the
// last pass and the links they cross: the union of the flow/link connected
// components containing a dirty link, found by BFS over the per-link flow
// lists. It consumes (clears) the dirty-link list and returns both sets,
// in discovery order, in reusable scratch storage. The sets are closed
// under link sharing: every flow of a returned link is returned, and every
// link of a returned flow's path.
func (f *Fabric) affectedFlows() ([]*Flow, []*Link) {
	f.epoch++
	epoch := f.epoch
	aff := f.affScratch[:0]
	links := f.wfLinks[:0]
	for _, l := range f.dirtyLinks {
		l.dirty = false
		l.mark = epoch
		links = append(links, l)
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
			links = append(links, l)
			for _, s := range l.flows {
				if s.fl.mark != epoch {
					s.fl.mark = epoch
					aff = append(aff, s.fl)
				}
			}
		}
	}
	f.affScratch = aff
	f.wfLinks = links
	return aff, links
}

// reallocate brings the max-min fair allocation up to date after flow
// arrivals/departures/capacity changes: credit the lazy progress of every
// affected flow (restricted to the perturbed components, see the package
// comment above), re-water-fill them, re-key them in the completion heap,
// and re-arm the single next-completion event.
func (f *Fabric) reallocate() {
	if len(f.dirtyLinks) > 0 {
		flows, links := f.affectedFlows()
		now := f.eng.Now()
		for _, fl := range flows {
			f.credit(fl) // invariant: credit before the rate may change
		}
		f.waterFill(flows, links)
		for _, fl := range flows {
			f.rekey(fl, now)
		}
	}
	f.armCompletion()
}

// waterFill runs progressive filling (water-filling) to a max-min fair
// allocation over the given flows and links, in any order. Together they
// must be closed under link sharing, as affectedFlows returns them: each
// link's flow list holds only given flows, and each given flow's path only
// given links. Link working state lives inline on the Link records, so the
// pass allocates nothing and touches only the given links and flows; it
// uses the links slice as scratch.
func (f *Fabric) waterFill(flows []*Flow, links []*Link) {
	for _, l := range links {
		l.wfRem = l.effCap()
		l.wfCnt = len(l.flows)
	}
	for _, fl := range flows {
		fl.frozen = false
	}
	// active holds the links that still carry unfrozen flows: each round
	// drops the ones it finds empty. near collects, in the same scan, every
	// link whose share was within the tolerance of the minimum so far; the
	// minimum only falls, so near holds every bottleneck link of the round.
	active := links
	near := f.wfNear[:0]
	unfrozen := len(flows)
	for unfrozen > 0 {
		minShare := math.Inf(1)
		near = near[:0]
		n := 0
		for _, l := range active {
			if l.wfCnt == 0 {
				continue
			}
			active[n] = l
			n++
			l.wfShare = l.wfRem / float64(l.wfCnt)
			if l.wfShare <= minShare*(1+1e-12) {
				near = append(near, l)
				if l.wfShare < minShare {
					minShare = l.wfShare
				}
			}
		}
		active = active[:n]
		if math.IsInf(minShare, 1) {
			break
		}
		// Freeze the unfrozen flows of every link whose round-start share
		// is at the bottleneck share. A link whose flows are all frozen
		// this round has wfCnt 0 and is skipped.
		bound := minShare * (1 + 1e-12)
		progressed := false
		for _, l := range near {
			if l.wfCnt == 0 || l.wfShare > bound {
				continue
			}
			for _, s := range l.flows {
				fl := s.fl
				if fl.frozen {
					continue
				}
				fl.rate = minShare
				fl.frozen = true
				unfrozen--
				for _, pl := range fl.path {
					pl.wfRem -= minShare
					if pl.wfRem < 0 {
						pl.wfRem = 0
					}
					pl.wfCnt--
				}
				progressed = true
			}
		}
		if !progressed {
			break // numerical safety: should not happen
		}
	}
	f.wfNear = near[:0]
}
