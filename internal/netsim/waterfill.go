package netsim

import "math"

// Incremental max-min reallocation with lazy progress crediting.
//
// Flow arrivals and departures perturb only the connected component of the
// flow/link sharing graph they touch: a flow's rate can change only if it
// shares a binding link — transitively — with a link whose flow set or
// capacity changed. Every admission, completion and capacity change
// therefore marks the links it touches dirty (markDirty), and reallocate
// recomputes the water-filling pass only for the flows and links of
// components carrying a dirty link, keeping the frozen shares of every
// untouched flow.
//
// SLACK LINKS. A link a→b is slack when the links that feed it can never
// fill it. Every flow crossing a→b either starts at a or enters a through
// one of a's in-links other than b→a (a shortest path never turns back to
// b); likewise it either ends at b or leaves b through one of b's
// out-links other than b→a. So a→b is slack when a is no flow's endpoint
// and the ceilings (Link.ceiling: nameplate capacity, or more if scaled
// up) of a's other in-links sum below its effective capacity, or when b is
// no flow's endpoint and the ceilings of b's other out-links do. The sum
// must fall short by more than a relative slackMargin, far above the float
// rounding of the sums and of the water-filling pass. A box uplink of the
// paper's Hadoop testbed, fed by seven 100 Mb/s NICs and rated at 1 Gb/s,
// is slack in both directions.
//
// A slack link never has the smallest share of a water-filling round: if
// it did, its remaining capacity would be at most the sum of its feeders'
// remaining capacities, and so its capacity at most the sum of theirs. It
// therefore never freezes a flow, and leaving it out of the pass changes
// no rate. So flows are listed (Link.flows), marked dirty, swept by
// affectedFlows and water-filled on their binding links only; credit
// still adds their bytes to every link of the path. Every path keeps a
// binding link: the link of smallest effective capacity on it is fed by
// its predecessor on the path, whose ceiling is at least that capacity,
// and feeds its successor likewise; at the path's ends the endpoint rule
// keeps it binding.
//
// The flags follow what they read (refreshSlack, markEndpoint): a
// topology change marks them stale until the next admission, an
// admission marks its endpoints, and a capacity change recomputes them
// all. A link that turns binding lists the live flows crossing it
// (relist) before any pass reads it, and before a cut aborts them. A link
// that turns slack keeps the flows it lists, which are exact constraints
// still; only later admissions skip it.
//
// RATES ARE A FUNCTION OF THE COMPONENT ALONE. The water-filling pass runs
// in rounds. A round computes every active link's fair share once and
// takes the smallest as the round's bottleneck share. Every link whose
// share equals it exactly is a bottleneck link, and the unfrozen flows on
// its flow list are frozen at that share; a frozen flow subtracts the share
// from each link it is listed on. A round touches the links of one
// component only if that component's own smallest share is the round's,
// and then with the same operands it would see alone, so filling two
// disjoint components together gives each the bits it gets alone. (A
// tolerance on the tie would let one component's share freeze another's
// links.) Likewise every subtraction in a round uses the same share, so
// each link sees the same float operations however its flows are
// visited, and the pass is bit-identical for any admission order and any
// traversal of the component, which is why neither is sorted. Splitting
// a component at a slack link therefore moves no bit of any rate.
//
// A round over a component of L links and A flows costs O(L) for the
// shares, at most the links still carrying unfrozen flows, plus the flow
// lists of its bottleneck links; a link is a bottleneck at most once, and
// each flow is frozen once at O(path), so a pass of R rounds costs
// O(R·L + A·path). With the completion heap (doneheap.go) re-keying each
// re-rated flow in O(log flows), that is the whole per-event cost of an
// arrival or departure: component discovery, water-filling, crediting and
// rescheduling.
//
// THE LAZY-CREDITING INVARIANT. For every live flow, `remaining` and the
// per-link byte counters are exact as of `lastT`, and the flow has been
// transferring at constant `rate` ever since; `lastT` is allowed to lag
// arbitrarily far behind the clock while the rate is frozen. Whoever is
// about to change a flow's rate — or remove the flow — must call
// Fabric.credit(fl) first, at the current time, to realize the accumulated
// progress; reallocate does this for every flow whose rate changes by even
// one bit, completion does it when popping the heap, and abortCrossing
// does it before recycling. A flow whose rate comes out of the pass
// bit-equal is neither credited nor re-keyed, so a flow's crediting and
// its projected completion depend only on its own rate history, not on
// which passes its component took part in. Reads of byte counters
// (TotalBytes, reports) go through FlushProgress. Untouched flows are
// deliberately NOT credited per event: crediting every flow on every
// event costs O(flows) per event, and removing that pass is the point of
// this design.
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

// slackMargin is the relative amount by which a link's feeders must fall
// short of its capacity for the link to be slack (see isSlack).
const slackMargin = 1e-9

// isSlack reports whether the links that feed l can never fill it: its
// source is no flow endpoint and the ceilings of the source's other
// in-links sum below l's capacity, or its destination is no flow endpoint
// and the ceilings of the destination's other out-links do. Each sum stops
// as soon as it reaches the capacity.
func (f *Fabric) isSlack(l *Link) bool {
	room := l.effCap() * (1 - slackMargin)
	if !f.endpoint[l.src] && feedBelow(f.into[l.src], l.dst, room, false) {
		return true
	}
	return !f.endpoint[l.dst] && feedBelow(f.adj[l.dst], l.src, room, true)
}

// feedBelow reports whether the ceilings of links, less those whose far
// end is v (the destination of out-links, else the source), sum below
// room.
func feedBelow(links []*Link, v int32, room float64, out bool) bool {
	var sum float64
	for _, k := range links {
		far := k.src
		if out {
			far = k.dst
		}
		if far == v {
			continue
		}
		if sum += k.ceiling(); sum >= room {
			return false
		}
	}
	return sum < room
}

// reslack recomputes the link's slack flag, noting it in turned when it
// turns binding.
func (f *Fabric) reslack(l *Link) {
	slack := f.isSlack(l)
	if l.slack && !slack {
		f.turned = append(f.turned, l)
	}
	l.slack = slack
}

// refreshSlack recomputes every link's slack flag.
func (f *Fabric) refreshSlack() {
	for _, l := range f.links {
		f.reslack(l)
	}
	f.slackStale = false
}

// markEndpoint records that a flow runs from or to vertex v, recomputing
// the flags of the links whose rule read v as a relay: its out-links and
// its in-links.
func (f *Fabric) markEndpoint(v int32) {
	if f.endpoint[v] {
		return
	}
	f.endpoint[v] = true
	for _, l := range f.adj[v] {
		f.reslack(l)
	}
	for _, l := range f.into[v] {
		f.reslack(l)
	}
}

// relist lists every live flow on each link of turned that its path
// crosses and that it is not listed on yet, dirtying those links, then
// empties turned. Links turn binding only on a capacity change, a new flow
// endpoint or a topology change, so the walk over every listed flow is
// rare.
func (f *Fabric) relist() {
	if len(f.turned) == 0 {
		return
	}
	if f.nFlows > 0 {
		f.epoch++
		epoch := f.epoch
		for _, l := range f.turned {
			l.mark = epoch
			f.markDirty(l)
		}
		for _, m := range f.links {
			for _, s := range m.flows {
				fl := s.fl
				if fl.mark == epoch {
					continue
				}
				fl.mark = epoch
				for _, l := range fl.path {
					if l.mark == epoch && !fl.listedOn(l) {
						f.list(fl, l)
					}
				}
			}
		}
	}
	f.turned = f.turned[:0]
}

// listedOn reports whether the flow is on the link's flow list.
func (fl *Flow) listedOn(l *Link) bool {
	for _, fk := range fl.links {
		if fk.l == l {
			return true
		}
	}
	return false
}

// markDirty queues the link for the next reallocate pass. Idempotent
// between passes.
func (f *Fabric) markDirty(l *Link) {
	if !l.dirty {
		l.dirty = true
		f.dirtyLinks = append(f.dirtyLinks, l)
	}
}

// affectedFlows computes the flows whose rate may have changed since the
// last pass and the links they are listed on: the union of the flow/link
// connected components containing a dirty link, found by BFS over the
// per-link flow lists. It consumes (clears) the dirty-link list and
// returns both sets, in discovery order, in reusable scratch storage. The
// sets are closed under link sharing: every flow of a returned link is
// returned, and every link a returned flow is listed on.
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
	// scanning earlier flows' links.
	for i := 0; i < len(aff); i++ {
		for _, fk := range aff[i].links {
			l := fk.l
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
// arrivals/departures/capacity changes: re-water-fill the perturbed
// components (see the package comment above), then credit, re-rate and
// re-key in the completion heap each flow whose rate changed, and re-arm
// the single next-completion event.
func (f *Fabric) reallocate() {
	if len(f.dirtyLinks) > 0 {
		flows, links := f.affectedFlows()
		now := f.eng.Now()
		f.waterFill(flows, links)
		for _, fl := range flows {
			if fl.fill < 0 || math.Float64bits(fl.fill) == math.Float64bits(fl.rate) {
				continue
			}
			f.credit(fl) // invariant: credit at the old rate before it changes
			fl.rate = fl.fill
			f.rekey(fl, now)
		}
	}
	f.armCompletion()
}

// waterFill runs progressive filling (water-filling) to a max-min fair
// allocation over the given flows and links, in any order, leaving each
// flow's share in its fill field. Together they must be closed under link
// sharing, as affectedFlows returns them: each link's flow list holds only
// given flows, and each given flow is listed only on given links. Link
// working state lives inline on the Link records, so the pass allocates
// nothing and touches only the given links and flows; it uses the links
// slice as scratch.
func (f *Fabric) waterFill(flows []*Flow, links []*Link) {
	for _, l := range links {
		l.wfRem = l.effCap()
		l.wfCnt = len(l.flows)
	}
	for _, fl := range flows {
		fl.fill = -1
	}
	// active holds the links that still carry unfrozen flows: each round
	// drops the ones it finds empty. near collects, in the same scan, the
	// links at the smallest share so far; the minimum only falls, so at
	// the end of the scan near holds exactly the round's bottleneck links.
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
			if l.wfShare <= minShare {
				if l.wfShare < minShare {
					minShare = l.wfShare
					near = near[:0]
				}
				near = append(near, l)
			}
		}
		active = active[:n]
		if math.IsInf(minShare, 1) {
			break
		}
		// Freeze the unfrozen flows of every bottleneck link. A link whose
		// flows were all frozen earlier in the round has wfCnt 0.
		progressed := false
		for _, l := range near {
			if l.wfCnt == 0 {
				continue
			}
			for _, s := range l.flows {
				fl := s.fl
				if fl.fill >= 0 {
					continue
				}
				fl.fill = minShare
				unfrozen--
				for _, fk := range fl.links {
					pl := fk.l
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
