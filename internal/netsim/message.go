package netsim

import (
	"edisim/internal/sim"
	"edisim/internal/units"
)

// message is a pooled in-flight Send/RoundTrip record driven as a state
// machine: each record carries its cursor (path + hop) and one continuation
// pre-bound when the record is created, so steady-state messaging does not
// allocate. Records come from a fabric freelist (grown in chunks, like Flow
// and sim.Event records) and are recycled on final delivery or drop. No
// handle type is exposed: a message is never cancellable or observable from
// user code, so records need no sequence stamping; the record is owned by
// exactly one in-flight transfer from Send to delivery.
//
// Each hop costs one engine event. A link is a deterministic single-server
// FIFO, so when the message reaches a link its whole passage is known: it
// starts transmitting when the link frees (start = max(now, departure of
// the link's last committed message)), leaves at start + size/effCap() and
// reaches the far end Delay later, where its one hop event fires. The
// arithmetic is the same float chain as the two-events-per-hop reference
// in message_ref_test.go, so every arrival instant is bit-identical to it
// (TestClosedFormHopsMatchPerHopReference).
//
// Faults replan only messages that have not started transmitting (see
// Fabric.SetVertexLinks): a capacity change re-times them at the new
// capacity, and a cut flushes them — they are dropped at cut time, done
// never runs, and a restore does not bring them back. The message on the
// wire when the capacity changes keeps its timing and is delivered.
type message struct {
	fab  *Fabric
	path []*Link
	hop  int
	size units.Bytes
	done func()

	// RoundTrip support: when hasReply, final delivery of the request
	// re-launches the record as the reply leg (dst back to src) instead of
	// recycling it.
	hasReply  bool
	replySize units.Bytes
	src, dst  Vertex

	// arrival is the pending hop event, kept so a fault can re-time or
	// cancel it while the message waits in a link's FIFO; arrivedFn is the
	// pre-bound continuation it runs (amortized to zero by the pool).
	arrival   sim.EventRef
	arrivedFn func()
}

// txEntry is one message committed to a link's FIFO. Its departure and
// size are held by value: the record behind m is recycled once the message
// is delivered, possibly long before the entry is retired, so m may only be
// followed while the message waits behind the head. After Link.settle the
// head entry is always the message on the wire — it started when its
// predecessor departed, at or before now — and every later entry starts
// when the one before it departs.
type txEntry struct {
	m    *message
	dep  sim.Time
	size units.Bytes
}

// msgChunk is how many message records the freelist grows by at once.
const msgChunk = 64

// allocMsg takes a message record from the freelist, growing it when empty.
func (f *Fabric) allocMsg() *message {
	if len(f.freeMsgs) == 0 {
		chunk := make([]message, msgChunk)
		for i := range chunk {
			m := &chunk[i]
			m.fab = f
			m.arrivedFn = m.arrived
			f.freeMsgs = append(f.freeMsgs, m)
		}
	}
	m := f.freeMsgs[len(f.freeMsgs)-1]
	f.freeMsgs = f.freeMsgs[:len(f.freeMsgs)-1]
	return m
}

// recycleMsg returns the record to the pool. The path slice belongs to the
// route cache, so dropping the reference costs nothing.
func (f *Fabric) recycleMsg(m *message) {
	m.done = nil // release the closure for GC
	m.path = nil
	f.freeMsgs = append(f.freeMsgs, m)
}

// settle retires the messages that have left the link by now, crediting
// their bytes, and keeps the FIFO's backing array proportional to the
// messages still on the link.
func (l *Link) settle(now sim.Time) {
	q, i := l.txq, l.txHead
	for i < len(q) && q[i].dep <= now {
		l.bytes += q[i].size
		q[i].m = nil
		i++
	}
	switch {
	case i == len(q):
		l.txq, l.txHead = q[:0], 0
	case i >= 64 && i*2 >= len(q):
		// The retired prefix has caught up with the live region: compact
		// to the front (amortized O(1) per message) so a link that never
		// drains does not grow its FIFO with total traffic.
		n := copy(q, q[i:])
		clear(q[n:])
		l.txq, l.txHead = q[:n], 0
	default:
		l.txHead = i
	}
}

// next commits the message to its current hop's link, or delivers it when
// past the last hop. A message reaching a cut link is dropped silently —
// done never runs, like a frame on a dead cable; recovery belongs to the
// sender's timeout machinery. At scale 1 the transmission time is
// bit-identical to the unscaled capacity arithmetic (÷1.0 is exact).
func (m *message) next() {
	if m.hop >= len(m.path) {
		m.deliver()
		return
	}
	l := m.path[m.hop]
	if l.Down() {
		m.fab.recycleMsg(m)
		return
	}
	eng := m.fab.eng
	start := eng.Now()
	l.settle(start)
	if len(l.txq) > l.txHead {
		start = l.txq[len(l.txq)-1].dep // wait for the last committed message
	}
	dep := start + sim.Time(float64(m.size)/l.effCap())
	l.txq = append(l.txq, txEntry{m: m, dep: dep, size: m.size})
	m.arrival = eng.At(dep+sim.Time(l.Delay), m.arrivedFn)
}

// arrived runs when the last byte reaches the current hop's far end.
func (m *message) arrived() {
	m.hop++
	m.next()
}

// replan re-times or flushes the messages waiting behind l's current
// transmission after its scale changed (see Fabric.SetVertexLinks). The
// head entry is on the wire and keeps its timing.
func (f *Fabric) replan(l *Link) {
	l.settle(f.eng.Now())
	if len(l.txq)-l.txHead < 2 {
		return
	}
	waiting := l.txq[l.txHead+1:]
	if l.Down() {
		for _, e := range waiting {
			e.m.arrival.Cancel()
			f.recycleMsg(e.m)
		}
		clear(waiting)
		l.txq = l.txq[:l.txHead+1]
		return
	}
	prev := l.txq[l.txHead].dep
	for i := range waiting {
		e := &waiting[i]
		e.dep = prev + sim.Time(float64(e.size)/l.effCap())
		prev = e.dep
		e.m.arrival = f.eng.Rearm(e.m.arrival, e.dep+sim.Time(l.Delay), e.m.arrivedFn)
	}
}

// deliver runs when the message fully arrives at its destination: either
// turn the record around as the reply leg of a round trip, or finish.
func (m *message) deliver() {
	if m.hasReply {
		m.hasReply = false
		m.size = m.replySize
		if m.src == m.dst {
			// Same-host reply: zero-cost but still asynchronous.
			m.path = nil
			m.hop = 0
			m.fab.eng.After(0, m.arrivedFn)
			return
		}
		m.path = m.fab.Route(m.dst, m.src)
		m.hop = 0
		m.next()
		return
	}
	done := m.done
	m.fab.recycleMsg(m)
	if done != nil {
		done()
	}
}

// Send transmits a small message of size bytes from src to dst using
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
	m.hasReply = false
	m.path = f.Route(src, dst)
	m.hop = 0
	m.next()
}

// RoundTrip sends a request of reqSize from src to dst, then a reply of
// respSize back; done runs when the reply fully arrives at src. The whole
// round trip rides one pooled record, so it does not allocate either.
func (f *Fabric) RoundTrip(src, dst Vertex, reqSize, respSize units.Bytes, done func()) {
	if reqSize < 0 || respSize < 0 {
		panic("netsim: negative message size")
	}
	m := f.allocMsg()
	m.size = reqSize
	m.done = done
	m.hasReply = true
	m.replySize = respSize
	m.src, m.dst = src, dst
	if src == dst {
		// Same-host request leg: one zero-delay event, then deliver turns
		// the record around for the (also zero-delay) reply leg, matching
		// the two-event timeline of a self Send followed by a self Send.
		m.path = nil
		m.hop = 0
		f.eng.After(0, m.arrivedFn)
		return
	}
	m.path = f.Route(src, dst)
	m.hop = 0
	m.next()
}
