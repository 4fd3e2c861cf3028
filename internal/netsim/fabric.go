// Package netsim models the clusters' networks: hosts and switches joined by
// duplex links, static shortest-path routing, and two transfer mechanisms
// chosen by message size class:
//
//   - Send: store-and-forward FIFO per link, for small RPC-style messages
//     (HTTP requests, memcached gets, heartbeats). Queueing delay emerges
//     naturally as links saturate. Because each link is a deterministic
//     single-server FIFO, a message's departure is computed in closed form
//     when it reaches the link, and each hop costs one engine event (its
//     arrival at the far end); a cut flushes the messages queued on the
//     link (see message).
//   - StartFlow: max-min fair bandwidth sharing with progressive filling,
//     for bulk transfers (HDFS blocks, shuffle segments, iperf streams).
//
// Hosts and switches are named once, when AddVertex registers them; every
// later call takes the dense Vertex handle it returned (or that
// Fabric.Vertex resolves), so the per-message path indexes slices instead
// of hashing names. Routes come from one BFS per source, run the first
// time that source routes (a host with a single uplink reuses its switch's),
// into a [src][dst] table whose paths are materialized on first read (see
// Fabric.Route and routeRow).
//
// Link capacities and propagation delays are set by internal/cluster to the
// paper's measured values (§4.4: 100 Mbps Edison NICs, 1 Gbps Dell NICs and
// inter-switch links; RTTs of 1.3 ms E–E, 0.8 ms D–E, 0.24 ms D–D).
package netsim

import (
	"fmt"
	"math"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// Vertex is a dense handle to one host or switch of a Fabric, issued by
// AddVertex in registration order (0, 1, 2, ...). It is only meaningful on
// the fabric that issued it.
type Vertex int32

// Link is one direction of a cable: src -> dst with a capacity and a
// propagation delay. Duplex cables are two Links.
type Link struct {
	Src, Dst Vertex
	Capacity units.BytesPerSec
	Delay    float64 // one-way propagation delay in seconds

	bytes units.Bytes // cumulative bytes carried (messages + flows); may
	// lag behind live flow progress until Fabric.FlushProgress credits it
	flows []linkSlot // active max-min flows crossing this link
	dirty bool       // on the fabric's dirty list for the next reallocate
	mark  uint64     // epoch stamp for the dirty-component sweep
	// Water-filling working state, validity-stamped by wfPass so passes
	// need no per-pass map or clearing (see waterFill).
	wfPass uint64
	wfRem  float64
	wfCnt  int
	// scale rescales the effective capacity for fault injection: 1 is the
	// healthy default, (0,1) a degraded link, 0 a cut. It multiplies the
	// nameplate capacity exactly, so at 1 every float downstream — water
	// filling, Send transmission times — is bit-identical to the
	// pre-fault-injection arithmetic.
	scale float64

	// txq[txHead:] are the Send messages committed to this link and not yet
	// credited, in departure order (see message and Link.settle); eng is
	// the clock Bytes settles them against.
	txq    []txEntry
	txHead int
	eng    *sim.Engine
}

// linkSlot is one entry of a link's flow list: the crossing flow plus the
// index of this link in that flow's path, so swap-removal can repair the
// moved entry's back-pointer (Flow.linkPos) in O(1).
type linkSlot struct {
	fl      *Flow
	pathIdx int32
}

// Bytes reports the cumulative bytes carried over this link. A message
// counts once its last byte has left the link.
func (l *Link) Bytes() units.Bytes {
	l.settle(l.eng.Now())
	return l.bytes
}

// Scale reports the link's capacity scale (1 healthy, 0 cut).
func (l *Link) Scale() float64 { return l.scale }

// Down reports whether the link is cut.
func (l *Link) Down() bool { return l.scale == 0 }

// effCap is the scaled capacity in bytes/sec used by both transfer models.
func (l *Link) effCap() float64 { return float64(l.Capacity) * l.scale }

// Fabric is the network graph plus the active flow set.
type Fabric struct {
	eng   *sim.Engine
	vid   map[string]Vertex // name -> handle
	names []string          // handle -> name
	adj   [][]*Link         // adj[v]: links leaving v, in Connect order
	links []*Link

	// routes is the route table, indexed by source (see Route); nil until
	// the first route is read after the topology last changed. bfsQueue is
	// the BFS's reusable queue.
	routes   []*routeRow
	bfsQueue []Vertex

	// flows is the live max-min flow set. Maintained by swap-removal (each
	// flow carries its index), so iteration order is NOT admission order;
	// every pass that cares — water-filling arithmetic, completion
	// callbacks — orders on Flow.seq instead (affectedFlows sorts, the
	// completion heap ties on seq), keeping reruns bit-identical.
	flows    []*Flow
	epoch    uint64
	nextDone sim.EventRef

	// doneHeap is the indexed 4-ary min-heap of projected completion times
	// (see doneheap.go); one engine event is armed at its minimum.
	doneHeap []*Flow

	// freeFlows is the Flow record pool (see StartFlow); flowSeq stamps
	// each started flow so stale FlowRefs are detected after recycling.
	// freeMsgs is the message record pool (see Send).
	freeFlows []*Flow
	flowSeq   uint64
	freeMsgs  []*message

	// Reusable scratch so steady-state flow churn does not allocate: the
	// links touched by the current water-filling pass, the pending done
	// callbacks of one completion round, the affected-flow list of the
	// dirty-component sweep, the abort set of a link-cut storm, and the
	// bound completeFlows closure (allocated once instead of per re-arm).
	wfPass     uint64
	wfLinks    []*Link
	doneQueue  []func()
	affScratch []*Flow
	abortFlows []*Flow
	completeFn func()

	// dirtyLinks are the links dirtied by flow arrivals/departures/capacity
	// changes since the last pass; eager selects the retained reference
	// implementation (eager crediting + full recompute + linear
	// next-completion scan) instead of the lazy default.
	dirtyLinks []*Link
	eager      bool
}

// NewFabric returns an empty network on the engine.
func NewFabric(eng *sim.Engine) *Fabric {
	f := &Fabric{eng: eng, vid: make(map[string]Vertex)}
	f.completeFn = f.completeFlows
	return f
}

// SetEagerReference switches the fabric to the retained reference
// implementation of flow accounting: progress is credited to every live
// flow on every event (the old eager advanceFlows), every water-filling
// pass recomputes all flows from scratch, and the next completion is found
// by a linear scan — O(flows) per event, semantically equivalent to the
// lazy default (pinned within tolerance by TestLazyMatchesEagerReference).
// It exists as the equivalence baseline and debugging fallback, and must be
// selected before any flow starts.
func (f *Fabric) SetEagerReference(on bool) {
	if len(f.flows) > 0 || len(f.doneHeap) > 0 {
		panic("netsim: SetEagerReference with live flows")
	}
	f.eager = on
}

// Engine returns the engine the fabric runs on.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// AddVertex registers a host or switch by name and returns its handle.
// Re-adding a name returns the handle it already has.
func (f *Fabric) AddVertex(name string) Vertex {
	if v, ok := f.vid[name]; ok {
		return v
	}
	v := Vertex(len(f.names))
	f.vid[name] = v
	f.names = append(f.names, name)
	f.adj = append(f.adj, nil)
	f.routes = nil
	return v
}

// Vertex resolves a registered name to its handle. An unknown name panics:
// topologies are static and a missing vertex is a configuration bug.
// Callers resolve names once, when they are built, and keep the handles.
func (f *Fabric) Vertex(name string) Vertex {
	v, ok := f.vid[name]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown vertex %q", name))
	}
	return v
}

// mustOwn panics unless v is a handle this fabric issued.
func (f *Fabric) mustOwn(v Vertex) {
	if v < 0 || int(v) >= len(f.names) {
		panic(fmt.Sprintf("netsim: unknown vertex %d", v))
	}
}

// Connect joins a and b with a duplex cable of the given per-direction
// capacity and one-way propagation delay. Routes are invalidated.
func (f *Fabric) Connect(a, b Vertex, capacity units.BytesPerSec, delay float64) {
	f.ConnectAsym(a, b, capacity, delay)
	f.ConnectAsym(b, a, capacity, delay)
}

// ConnectAsym joins a -> b only, for asymmetric capacities. Routes are
// invalidated.
func (f *Fabric) ConnectAsym(a, b Vertex, capacity units.BytesPerSec, delay float64) {
	f.mustOwn(a)
	f.mustOwn(b)
	if capacity <= 0 {
		panic("netsim: non-positive link capacity")
	}
	l := &Link{Src: a, Dst: b, Capacity: capacity, Delay: delay, eng: f.eng, scale: 1}
	f.adj[a] = append(f.adj[a], l)
	f.links = append(f.links, l)
	f.routes = nil
}

// routeBlock is how many destinations share one lazily allocated block of
// a route row.
const routeBlock = 64

// routeRow is the route table's row for one source: how the source's paths
// are found, and the paths read so far. Paths live in blocks of routeBlock
// destinations allocated on first read, so a source that talks to a few
// destinations of a large fabric pays for those blocks only.
//
// A source whose only out-link l leads to a vertex with several (a host on
// its access switch) has no search of its own: a BFS from it first reaches
// l.Dst and then runs exactly as a BFS from l.Dst would — the source itself
// leads nowhere new — so its path to any other vertex is l followed by
// l.Dst's path. Such a row keeps l in up and borrows l.Dst's row; every
// other row holds its own BFS tree in via.
type routeRow struct {
	up    *Link
	via   []*Link     // via[v]: the tree link into v; nil for the source and unreachable vertices
	paths [][][]*Link // paths[dst/routeBlock][dst%routeBlock], nil until read
}

// Route returns the shortest path (in hops) from src to dst as directed
// links, from the route table; ties go to the earlier-connected link, as a
// BFS over links in Connect order finds them. The returned slice is shared
// and must not be modified. It panics when no route exists: topologies are
// static and a missing route is a configuration bug.
func (f *Fabric) Route(src, dst Vertex) []*Link {
	if src == dst {
		return nil
	}
	if p := f.stored(src, dst); p != nil {
		return p
	}
	if p := f.fillRoute(src, dst); p != nil {
		return p
	}
	panic(fmt.Sprintf("netsim: no route %s -> %s", f.names[src], f.names[dst]))
}

// stored returns the path the route table holds for src -> dst, or nil.
func (f *Fabric) stored(src, dst Vertex) []*Link {
	if int(src) >= len(f.routes) || dst < 0 {
		return nil
	}
	r := f.routes[src]
	if r == nil || int(dst)/routeBlock >= len(r.paths) {
		return nil
	}
	if b := r.paths[dst/routeBlock]; b != nil {
		return b[dst%routeBlock]
	}
	return nil
}

// fillRoute is the first read of src -> dst (src != dst): it builds src's
// row if needed, then materializes and stores the path. It returns nil when
// dst is unreachable.
func (f *Fabric) fillRoute(src, dst Vertex) []*Link {
	f.mustOwn(src)
	f.mustOwn(dst)
	if f.routes == nil {
		f.routes = make([]*routeRow, len(f.names))
	}
	r := f.routes[src]
	if r == nil {
		r = f.newRow(src)
		f.routes[src] = r
	}
	var path []*Link
	if r.up != nil {
		var rest []*Link
		if u := r.up.Dst; u != dst {
			if rest = f.stored(u, dst); rest == nil {
				rest = f.fillRoute(u, dst)
			}
			if rest == nil {
				return nil
			}
		}
		path = make([]*Link, 1+len(rest))
		path[0] = r.up
		copy(path[1:], rest)
	} else {
		n := 0
		for l := r.via[dst]; l != nil; l = r.via[l.Src] {
			n++
		}
		if n == 0 {
			return nil
		}
		path = make([]*Link, n)
		for l := r.via[dst]; l != nil; l = r.via[l.Src] {
			n--
			path[n] = l
		}
	}
	b := r.paths[dst/routeBlock]
	if b == nil {
		b = make([][]*Link, routeBlock)
		r.paths[dst/routeBlock] = b
	}
	b[dst%routeBlock] = path
	return path
}

// newRow builds src's route row: it borrows the next vertex's row when src
// has a single out-link to a vertex with several (see routeRow), and
// otherwise runs one breadth-first search over links in Connect order, in
// which the first link to reach a vertex becomes its tree link.
func (f *Fabric) newRow(src Vertex) *routeRow {
	n := len(f.names)
	r := &routeRow{paths: make([][][]*Link, (n+routeBlock-1)/routeBlock)}
	if out := f.adj[src]; len(out) == 1 && out[0].Dst != src && len(f.adj[out[0].Dst]) > 1 {
		r.up = out[0]
		return r
	}
	r.via = make([]*Link, n)
	q := append(f.bfsQueue[:0], src)
	for i := 0; i < len(q); i++ {
		for _, l := range f.adj[q[i]] {
			if l.Dst != src && r.via[l.Dst] == nil {
				r.via[l.Dst] = l
				q = append(q, l.Dst)
			}
		}
	}
	f.bfsQueue = q
	return r
}

// pathDelay is the summed propagation delay of a path.
func pathDelay(path []*Link) float64 {
	var d float64
	for _, l := range path {
		d += l.Delay
	}
	return d
}

// Latency reports the one-way propagation delay from src to dst (no
// queueing, no transmission), i.e. an idealized tiny-packet trip.
func (f *Fabric) Latency(src, dst Vertex) float64 {
	return pathDelay(f.Route(src, dst))
}

// RTT reports Latency both ways, matching what ping measures on idle links.
func (f *Fabric) RTT(a, b Vertex) float64 {
	return f.Latency(a, b) + f.Latency(b, a)
}

// SetVertexLinks rescales the effective capacity of every link adjacent to
// vertex v (both directions) to scale × nameplate: 1 restores the healthy
// link, a value in (0,1) degrades it, and 0 cuts it. Cutting is a departure
// storm for the max-min flow set: every active flow crossing a cut link is
// aborted without its done callback (the sender's timeout machinery owns
// recovery), handled by the same incremental dirty-component sweep as normal
// departures. Flows started while a link on their path is down are admitted
// at rate 0 and resume when the link is restored.
//
// Send messages are replanned on every rescaled link: the message on the
// wire keeps its timing and is delivered, while the messages queued behind
// it are re-timed at the new capacity (degrade or restore) or, on a cut,
// flushed — dropped at cut time without their done callbacks, so a restore
// does not bring them back. Messages reaching a cut link are dropped too
// (see message).
func (f *Fabric) SetVertexLinks(v Vertex, scale float64) {
	if !(scale >= 0) || math.IsInf(scale, 0) {
		panic(fmt.Sprintf("netsim: link scale %g must be finite and non-negative", scale))
	}
	f.mustOwn(v)
	if f.eager {
		f.advanceFlows()
	}
	changed := false
	for _, l := range f.links {
		if (l.Src == v || l.Dst == v) && l.scale != scale {
			l.scale = scale
			f.markDirty(l)
			f.replan(l)
			changed = true
		}
	}
	if !changed {
		return
	}
	if scale == 0 {
		f.abortCrossing()
	}
	f.reallocate()
}

// abortCrossing drops every active flow whose path contains a just-cut
// link (flows parked at rate 0 on an earlier, unrelated cut keep waiting).
// Aborted flows never run their done callbacks — the transfer is simply
// lost, like a TCP connection through a yanked cable. The cut links must
// already be marked dirty by the caller; in the lazy default the victims
// are found through the cut links' own flow lists (cost proportional to the
// crossing flows, not the live set) and credited just before recycling, per
// the lazy-crediting invariant.
func (f *Fabric) abortCrossing() {
	if f.eager {
		live := f.flows[:0]
		for _, fl := range f.flows {
			crossed := false
			for _, l := range fl.path {
				if l.dirty && l.Down() {
					crossed = true
					break
				}
			}
			if !crossed {
				fl.idx = int32(len(live))
				live = append(live, fl)
				continue
			}
			f.unlink(fl)
			f.recycleFlow(fl)
		}
		for i := len(live); i < len(f.flows); i++ {
			f.flows[i] = nil
		}
		f.flows = live
		return
	}
	// The just-cut links sit on the dirty list; collect their crossing
	// flows once (epoch-deduplicated), then retire each.
	f.epoch++
	victims := f.abortFlows[:0]
	for _, l := range f.dirtyLinks {
		if !l.Down() {
			continue
		}
		for _, s := range l.flows {
			if s.fl.mark != f.epoch {
				s.fl.mark = f.epoch
				victims = append(victims, s.fl)
			}
		}
	}
	for _, fl := range victims {
		f.credit(fl)
		f.unlink(fl)
		f.removeFlow(fl)
		f.heapRemove(fl)
		f.recycleFlow(fl)
	}
	for i := range victims {
		victims[i] = nil
	}
	f.abortFlows = victims[:0]
}

// TotalBytes reports bytes carried across all links (each hop counted),
// crediting any lazily deferred flow progress first.
func (f *Fabric) TotalBytes() units.Bytes {
	f.FlushProgress()
	var total units.Bytes
	for _, l := range f.links {
		total += l.Bytes()
	}
	return total
}
