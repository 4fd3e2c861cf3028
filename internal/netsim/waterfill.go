package netsim

import (
	"math"
	"slices"

	"edisim/internal/sim"
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
// perturbed components. The pass needs them in admission (seq) order; the
// live flows are kept in a seq-ordered list for that, so a component
// covering a large share of the live set — nearly all of it in a Hadoop
// shuffle — is put in order by one walk of the list instead of a sort.
// Water-filling then examines, each round, only the flows on the round's
// bottleneck links. Combined with the completion heap (doneheap.go) this
// makes the whole per-event flow path — crediting, component discovery,
// water-filling, rescheduling — scale with the perturbed components, not
// the live set: beyond the rounds of water-filling, an arrival or departure
// costs O(component log component) for a small component's sort and
// O(component log flows) for the heap re-keys.
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
// per event — that O(flows) pass (the old eager advanceFlows) is exactly
// what this design removes; it survives only behind SetEagerReference as
// the reference implementation.
//
// Compatibility note: crediting progress in one closed-form chunk per rate
// change instead of one chunk per fabric event changes the float
// accumulation order, so completion times differ from the eager reference
// in the last bits. TestLazyMatchesEagerReference pins the two modes
// together within tolerance on randomized traces (including link-fault
// storms); the paper-output baseline was refreshed once for this change
// (see API.md).

// markDirty queues the link for the next reallocate pass. Idempotent
// between passes.
func (f *Fabric) markDirty(l *Link) {
	if !l.dirty {
		l.dirty = true
		f.dirtyLinks = append(f.dirtyLinks, l)
	}
}

// clearDirty empties the dirty-link list.
func (f *Fabric) clearDirty() {
	for _, l := range f.dirtyLinks {
		l.dirty = false
	}
	f.dirtyLinks = f.dirtyLinks[:0]
}

// listWalkRatio is the largest live-set-to-component size ratio at which
// affectedFlows puts a component in order by walking the live list rather
// than sorting it: a component covering a quarter of the live set or more.
const listWalkRatio = 4

// affectedFlows computes the set of flows whose rate may have changed since
// the last pass: the union of the flow/link connected components containing
// a dirty link, found by BFS over the per-link flow lists. It consumes
// (clears) the dirty-link list and returns the affected flows in admission
// order, in reusable scratch storage. A component covering at least a
// quarter of the live set is put in order by walking the live list and
// keeping its marked flows, O(live) and so at most four times the
// component; a smaller one is sorted on seq, O(component log component).
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
	// the arithmetic is independent of traversal order.
	if f.live <= listWalkRatio*len(aff) {
		aff = aff[:0]
		for fl := f.head; fl != nil; fl = fl.next {
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
	if f.eager {
		f.reallocateEager()
		return
	}
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

// reallocateEager is the retained reference implementation: every pass
// recomputes all flows from scratch and re-arms the completion event from a
// linear next-completion scan (the pre-lazy behavior, O(flows) per event).
func (f *Fabric) reallocateEager() {
	f.epoch++
	f.clearDirty()
	f.nextDone.Cancel()
	f.nextDone = sim.EventRef{}
	if f.head == nil {
		return
	}
	all := f.affScratch[:0]
	for fl := f.head; fl != nil; fl = fl.next {
		all = append(all, fl)
	}
	f.affScratch = all
	f.waterFill(all)
	next := math.Inf(1)
	for _, fl := range all {
		if fl.rate <= 0 {
			continue
		}
		t := fl.remaining / fl.rate
		if t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	if next < 0 {
		next = 0
	}
	f.nextDone = f.eng.After(next, f.completeFn)
}

// waterFill runs progressive filling (water-filling) to a max-min fair
// allocation over the given flows, which must be closed under link sharing
// (no flow outside the set may cross any link used by a flow inside it) and
// in admission order. Link working state lives inline on the Link records
// (validity-stamped by wfPass), so the pass allocates nothing and touches
// only the given flows' links.
//
// Each round finds the bottleneck share minShare over the links still
// carrying unfrozen flows, then scans the unfrozen flows in order and
// freezes at minShare every flow that, at its turn, crosses a link whose
// live share is within a relative 1e-12 of minShare, subtracting the share
// from each link on its path. Only flows on such links can freeze, so the
// round marks (Flow.mark) the flows of the links that pass at its start,
// re-tests a frozen flow's path links after the subtraction and marks the
// flows of any link that passes now, and runs the live test on marked
// flows alone. A link's share changes only when a flow crossing it
// freezes, so every flow that passes the live test is marked before its
// turn: the pass freezes the same flows, in the same order, with the same
// arithmetic as testing every unfrozen flow.
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
	unfrozen := append(f.wfFlows[:0], flows...)
	for len(unfrozen) > 0 {
		// Keep the links still carrying unfrozen flows and find the
		// tightest among them.
		minShare := math.Inf(1)
		n := 0
		for _, l := range links {
			if l.wfCnt > 0 {
				links[n] = l
				n++
				if share := l.wfRem / float64(l.wfCnt); share < minShare {
					minShare = share
				}
			}
		}
		links = links[:n]
		if math.IsInf(minShare, 1) {
			break
		}
		f.epoch++
		round := f.epoch
		for _, l := range links {
			if atBottleneck(l, minShare) {
				markFlows(l, round)
			}
		}
		// Freeze every unfrozen flow crossing a link at the bottleneck
		// share, compacting the survivors in place.
		kept := 0
		for _, fl := range unfrozen {
			if fl.mark != round || !bottlenecked(fl, minShare) {
				unfrozen[kept] = fl
				kept++
				continue
			}
			fl.rate = minShare
			for _, l := range fl.path {
				l.wfRem -= minShare
				if l.wfRem < 0 {
					l.wfRem = 0
				}
				l.wfCnt--
				if l.mark != round && atBottleneck(l, minShare) {
					markFlows(l, round)
				}
			}
		}
		if kept == len(unfrozen) {
			break // numerical safety: should not happen
		}
		unfrozen = unfrozen[:kept]
	}
	f.wfLinks = links[:0]
	f.wfFlows = unfrozen[:0]
}

// atBottleneck is water-filling's live test for a link: it still carries
// unfrozen flows, and its share is within a relative 1e-12 of the round's
// bottleneck share.
func atBottleneck(l *Link, minShare float64) bool {
	return l.wfCnt > 0 && l.wfRem/float64(l.wfCnt) <= minShare*(1+1e-12)
}

// bottlenecked reports whether the flow crosses a link at the bottleneck.
func bottlenecked(fl *Flow, minShare float64) bool {
	for _, l := range fl.path {
		if atBottleneck(l, minShare) {
			return true
		}
	}
	return false
}

// markFlows stamps the link and every flow crossing it with the round.
func markFlows(l *Link, round uint64) {
	l.mark = round
	for _, s := range l.flows {
		s.fl.mark = round
	}
}
