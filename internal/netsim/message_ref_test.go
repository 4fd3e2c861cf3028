package netsim

import (
	"math/rand"
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// refFabric is the retained per-hop reference for the closed-form message
// path: the store-and-forward machine Send/RoundTrip ran before links
// computed departures in closed form. Each link is a one-server
// sim.Resource FIFO; a message acquires it, holds it for size/effCap()
// (capacity read at acquisition), releases it on a `transmitted` event and
// reaches the next hop on a `propagated` event — two events per hop. A
// message that reaches the head of a cut link's queue is dropped there.
//
// It borrows the production Fabric for topology, routes and link scales
// (fault events call Fabric.SetVertexLinks as usual; production's own link
// FIFOs stay empty because only the reference sends), and keeps its own
// per-link queues and byte counters.
type refFabric struct {
	*Fabric
	q     map[*Link]*sim.Resource
	bytes map[*Link]units.Bytes
}

func newRefFabric(f *Fabric) *refFabric {
	r := &refFabric{Fabric: f, q: make(map[*Link]*sim.Resource), bytes: make(map[*Link]units.Bytes)}
	for _, l := range f.links {
		r.q[l] = sim.NewResource(f.eng, 1)
	}
	return r
}

// refMsg is one in-flight reference message with its pre-bound
// continuations.
type refMsg struct {
	r         *refFabric
	path      []*Link
	hop       int
	size      units.Bytes
	done      func()
	hasReply  bool
	replySize units.Bytes
	src, dst  Vertex

	acqFn, txFn, hopFn func()
}

func (r *refFabric) newMsg() *refMsg {
	m := &refMsg{r: r}
	m.acqFn = m.acquired
	m.txFn = m.transmitted
	m.hopFn = m.propagated
	return m
}

func (m *refMsg) next() {
	if m.hop >= len(m.path) {
		m.deliver()
		return
	}
	m.r.q[m.path[m.hop]].Acquire(m.acqFn)
}

func (m *refMsg) acquired() {
	l := m.path[m.hop]
	if l.Down() {
		m.r.q[l].Release()
		return
	}
	m.r.eng.After(float64(m.size)/l.effCap(), m.txFn)
}

func (m *refMsg) transmitted() {
	l := m.path[m.hop]
	m.r.q[l].Release()
	m.r.bytes[l] += m.size
	m.r.eng.After(l.Delay, m.hopFn)
}

func (m *refMsg) propagated() {
	m.hop++
	m.next()
}

func (m *refMsg) deliver() {
	if m.hasReply {
		m.hasReply = false
		m.size = m.replySize
		if m.src == m.dst {
			m.path = nil
			m.hop = 0
			m.r.eng.After(0, m.hopFn)
			return
		}
		m.path = m.r.Route(m.dst, m.src)
		m.hop = 0
		m.next()
		return
	}
	if m.done != nil {
		m.done()
	}
}

// Send mirrors Fabric.Send on the per-hop machine.
func (r *refFabric) Send(src, dst Vertex, size units.Bytes, done func()) {
	if src == dst {
		r.eng.After(0, done)
		return
	}
	m := r.newMsg()
	m.size = size
	m.done = done
	m.path = r.Route(src, dst)
	m.next()
}

// RoundTrip mirrors Fabric.RoundTrip on the per-hop machine.
func (r *refFabric) RoundTrip(src, dst Vertex, reqSize, respSize units.Bytes, done func()) {
	m := r.newMsg()
	m.size = reqSize
	m.done = done
	m.hasReply = true
	m.replySize = respSize
	m.src, m.dst = src, dst
	if src == dst {
		r.eng.After(0, m.hopFn)
		return
	}
	m.path = r.Route(src, dst)
	m.next()
}

// Bytes reports the reference's cumulative message bytes carried by l.
func (r *refFabric) Bytes(l *Link) units.Bytes { return r.bytes[l] }

// messenger is the message API both implementations offer.
type messenger interface {
	Send(src, dst Vertex, size units.Bytes, done func())
	RoundTrip(src, dst Vertex, reqSize, respSize units.Bytes, done func())
}

// hopOp is one message of the differential traffic.
type hopOp struct {
	at        sim.Time
	src, dst  Vertex
	size      units.Bytes
	respSize  units.Bytes
	roundTrip bool
}

// linkFault is one SetVertexLinks call of the differential fault plan.
type linkFault struct {
	at    sim.Time
	v     Vertex
	scale float64
}

// hopPlan is one seeded scenario: traffic, faults and byte-counter reads.
type hopPlan struct {
	ops    []hopOp
	faults []linkFault
	reads  []sim.Time
}

// msgSize draws a mixed RPC size: mostly headers and small replies, some
// page-sized bodies, a few 8–16 KB objects (and the odd empty message).
func msgSize(rng *rand.Rand) units.Bytes {
	switch p := rng.Float64(); {
	case p < 0.6:
		return units.Bytes(rng.Intn(601))
	case p < 0.9:
		return units.Bytes(1000 + rng.Intn(3001))
	default:
		return units.Bytes(8000 + rng.Intn(8001))
	}
}

// newHopPlan draws 0.6 s of Poisson traffic at 8000 msg/s over the
// leaf/spine fabric, 40% of it into one hot host so its shared downlink
// queues, plus back-to-back fault windows on
// the hot host, another host and a leaf: degrades (some re-degraded
// mid-window) and cuts. Windows never overlap, start at least 10 ms after
// the last one ended (so no message is still on the wire at a degraded
// rate), and every cut lasts at least 15 ms — longer than any message's
// transmission — so each restore comes after the cut link's queue drained.
func newHopPlan(seed int64) hopPlan {
	rng := rand.New(rand.NewSource(seed))
	f, hosts := leafSpineFabric(sim.NewEngine())
	const horizon = 0.6
	var p hopPlan
	for t := rng.ExpFloat64() / 8000; t < horizon; t += rng.ExpFloat64() / 8000 {
		op := hopOp{at: sim.Time(t), src: hosts[rng.Intn(len(hosts))]}
		switch q := rng.Float64(); {
		case q < 0.4:
			op.dst = hosts[0]
		case q < 0.42:
			op.dst = op.src
		default:
			op.dst = hosts[rng.Intn(len(hosts))]
		}
		op.size = msgSize(rng)
		if rng.Intn(2) == 0 {
			op.roundTrip = true
			op.respSize = msgSize(rng)
		}
		p.ops = append(p.ops, op)
	}
	victims := []Vertex{hosts[0], hosts[5], f.Vertex("leaf1")}
	for t := 0.02 + 0.02*rng.Float64(); t < horizon; {
		v := victims[rng.Intn(len(victims))]
		if rng.Intn(3) == 0 {
			end := t + 0.015 + 0.035*rng.Float64()
			p.faults = append(p.faults, linkFault{sim.Time(t), v, 0}, linkFault{sim.Time(end), v, 1})
			t = end
		} else {
			end := t + 0.02 + 0.06*rng.Float64()
			p.faults = append(p.faults, linkFault{sim.Time(t), v, 0.2 + 0.6*rng.Float64()})
			if rng.Intn(2) == 0 {
				mid := t + (end-t)*rng.Float64()
				p.faults = append(p.faults, linkFault{sim.Time(mid), v, 0.2 + 0.6*rng.Float64()})
			}
			p.faults = append(p.faults, linkFault{sim.Time(end), v, 1})
			t = end
		}
		t += 0.01 + 0.02*rng.Float64()
	}
	for t := 0.025 * rng.Float64(); t < horizon+0.05; t += 0.01 + 0.03*rng.Float64() {
		p.reads = append(p.reads, sim.Time(t))
	}
	return p
}

// hopOutcome is what the differential test compares: when each operation
// completed (absent when dropped) and every link's byte counter at each
// read and at the end.
type hopOutcome struct {
	delivered map[int]sim.Time
	bytes     [][]units.Bytes // [read][link]
	maxDepth  int             // deepest closed-form link FIFO seen at a read
}

// runHopPlan drives the plan through the closed-form production path or
// the per-hop reference.
func runHopPlan(p hopPlan, reference bool) hopOutcome {
	eng := sim.NewEngine()
	f, _ := leafSpineFabric(eng)
	var net messenger = f
	bytesOf := (*Link).Bytes
	if reference {
		r := newRefFabric(f)
		net, bytesOf = r, r.Bytes
	}
	out := hopOutcome{delivered: make(map[int]sim.Time)}
	for i, op := range p.ops {
		done := func() { out.delivered[i] = eng.Now() }
		eng.At(op.at, func() {
			if op.roundTrip {
				net.RoundTrip(op.src, op.dst, op.size, op.respSize, done)
			} else {
				net.Send(op.src, op.dst, op.size, done)
			}
		})
	}
	for _, fl := range p.faults {
		eng.At(fl.at, func() { f.SetVertexLinks(fl.v, fl.scale) })
	}
	read := func() {
		row := make([]units.Bytes, len(f.links))
		for j, l := range f.links {
			row[j] = bytesOf(l)
			out.maxDepth = max(out.maxDepth, len(l.txq)-l.txHead)
		}
		out.bytes = append(out.bytes, row)
	}
	for _, at := range p.reads {
		eng.At(at, read)
	}
	eng.Run()
	read()
	return out
}

// TestClosedFormHopsMatchPerHopReference pins the closed-form message path
// against the per-hop Resource machine it replaced: over seeded mixed
// Send/RoundTrip traffic on a queueing leaf/spine fabric with degrades,
// restores and cuts (each restored after the cut link's queue drained, the
// one case where flush-on-cut and drop-at-head agree), every operation
// completes at the bit-identical instant or is dropped in both, and every
// link's byte counter agrees exactly mid-run and at the end.
func TestClosedFormHopsMatchPerHopReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := newHopPlan(seed)
		got, want := runHopPlan(p, false), runHopPlan(p, true)
		if len(got.delivered) != len(want.delivered) {
			t.Errorf("seed %d: %d operations completed, reference %d", seed, len(got.delivered), len(want.delivered))
		}
		mismatched := 0
		for i, w := range want.delivered {
			if g, ok := got.delivered[i]; !ok || g != w {
				if mismatched++; mismatched <= 5 {
					t.Errorf("seed %d: op %d (%+v) completed at %v (present %v), reference %v", seed, i, p.ops[i], g, ok, w)
				}
			}
		}
		for r := range want.bytes {
			for j := range want.bytes[r] {
				if got.bytes[r][j] != want.bytes[r][j] {
					t.Fatalf("seed %d: read %d: link %d carried %v bytes, reference %v", seed, r, j, got.bytes[r][j], want.bytes[r][j])
				}
			}
		}
		// The scenario must exercise what it claims: drops and queueing.
		if dropped := len(p.ops) - len(want.delivered); dropped == 0 || got.maxDepth < 5 {
			t.Fatalf("seed %d: weak scenario: %d of %d operations dropped, deepest link FIFO %d", seed, dropped, len(p.ops), got.maxDepth)
		} else {
			t.Logf("seed %d: %d operations, %d dropped, %d faults, deepest link FIFO %d", seed, len(p.ops), dropped, len(p.faults), got.maxDepth)
		}
	}
}
