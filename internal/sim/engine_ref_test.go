package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refEngine is the remove-based kernel the vacant-root Engine replaced,
// kept as its ordering oracle: popping moves the last event to the root and
// sifts it down, and a re-arm is Cancel followed by At. Records are not
// pooled; a fired or cancelled record is marked dead instead.
type refEngine struct {
	now     Time
	seq     uint64
	heap    []*refEvent // 4-ary min-heap on (at, seq)
	stopped bool
}

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	pos  int
	dead bool
}

func refLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *refEngine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !refLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].pos = i
		i = p
	}
	h[i] = ev
	ev.pos = i
}

func (e *refEngine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		first := i*4 + 1
		if first >= n {
			break
		}
		m := first
		for c := first + 1; c < min(first+4, n); c++ {
			if refLess(h[c], h[m]) {
				m = c
			}
		}
		if !refLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].pos = i
		i = m
	}
	h[i] = ev
	ev.pos = i
}

func (e *refEngine) remove(ev *refEvent) {
	i := ev.pos
	n := len(e.heap) - 1
	if i != n {
		e.heap[i] = e.heap[n]
		e.heap[i].pos = i
	}
	e.heap[n] = nil
	e.heap = e.heap[:n]
	if i < n {
		e.siftDown(i)
		e.siftUp(i)
	}
	ev.dead = true
}

func (e *refEngine) At(t Time, fn func()) *refEvent {
	if t < e.now || math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) {
		panic(fmt.Sprintf("refEngine: bad time %v at %v", t, e.now))
	}
	e.seq++
	ev := &refEvent{at: t, seq: e.seq, fn: fn, pos: len(e.heap)}
	e.heap = append(e.heap, ev)
	e.siftUp(ev.pos)
	return ev
}

func (e *refEngine) Cancel(ev *refEvent) {
	if ev != nil && !ev.dead {
		e.remove(ev)
	}
}

func (e *refEngine) popHead() func() {
	ev := e.heap[0]
	e.now = ev.at
	e.remove(ev)
	return ev.fn
}

func (e *refEngine) RunUntil(deadline Time) {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		if e.heap[0].at > deadline {
			break
		}
		e.popHead()()
	}
	if !e.stopped && !math.IsInf(float64(deadline), 1) && deadline > e.now {
		e.now = deadline
	}
}

func (e *refEngine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	e.popHead()()
	return true
}

// kernel is the operation set the equivalence stream drives. Handles are
// kept by the adapter and named by their index in issue order.
type kernel interface {
	now() Time
	at(t Time, fn func()) // appends a handle
	cancel(h int)
	rearm(h int, t Time, fn func()) // replaces handle h
	pending() int
	stop()
	runUntil(t Time)
	step() bool
	handles() int
}

type engineKernel struct {
	e    *Engine
	refs []EventRef
}

func (k *engineKernel) now() Time            { return k.e.Now() }
func (k *engineKernel) at(t Time, fn func()) { k.refs = append(k.refs, k.e.At(t, fn)) }
func (k *engineKernel) cancel(h int)         { k.refs[h].Cancel() }
func (k *engineKernel) pending() int         { return k.e.Pending() }
func (k *engineKernel) stop()                { k.e.Stop() }
func (k *engineKernel) runUntil(t Time)      { k.e.RunUntil(t) }
func (k *engineKernel) step() bool           { return k.e.Step() }
func (k *engineKernel) handles() int         { return len(k.refs) }
func (k *engineKernel) rearm(h int, t Time, fn func()) {
	k.refs[h] = k.e.Rearm(k.refs[h], t, fn)
}

type refKernel struct {
	e    *refEngine
	refs []*refEvent
}

func (k *refKernel) now() Time            { return k.e.now }
func (k *refKernel) at(t Time, fn func()) { k.refs = append(k.refs, k.e.At(t, fn)) }
func (k *refKernel) cancel(h int)         { k.e.Cancel(k.refs[h]) }
func (k *refKernel) pending() int         { return len(k.e.heap) }
func (k *refKernel) stop()                { k.e.stopped = true }
func (k *refKernel) runUntil(t Time)      { k.e.RunUntil(t) }
func (k *refKernel) step() bool           { return k.e.Step() }
func (k *refKernel) handles() int         { return len(k.refs) }
func (k *refKernel) rearm(h int, t Time, fn func()) {
	k.e.Cancel(k.refs[h])
	k.refs[h] = k.e.At(t, fn)
}

// observation is one entry of a stream's trace: a fired event (id, time)
// or a Pending reading (id -1, n).
type observation struct {
	id int
	t  Time
	n  int
}

// driveStream runs one seeded operation stream against k and returns what
// it observed. Every random draw happens in firing order, so two kernels
// that fire identically draw identically; the first divergence shows in
// the trace.
func driveStream(seed int64, k kernel) []observation {
	rng := rand.New(rand.NewSource(seed))
	var obs []observation
	const maxEvents = 2000
	nextID := 0
	// Delays on a quarter-second grid with a heavy zero share produce many
	// same-instant ties.
	delay := func() Time {
		if rng.Intn(4) == 0 {
			return 0
		}
		return Time(rng.Intn(12)) * 0.25
	}
	var event func() func()
	event = func() func() {
		id := nextID
		nextID++
		return func() {
			obs = append(obs, observation{id: id, t: k.now()})
			for range rng.Intn(4) {
				switch op := rng.Intn(20); {
				case op < 9:
					if nextID < maxEvents {
						k.at(k.now()+delay(), event())
					}
				case op < 12:
					k.cancel(rng.Intn(k.handles()))
				case op < 16:
					if nextID < maxEvents {
						k.rearm(rng.Intn(k.handles()), k.now()+delay(), event())
					}
				case op < 19:
					obs = append(obs, observation{id: -1, n: k.pending()})
				default:
					k.stop()
				}
			}
		}
	}
	for range 50 + rng.Intn(100) {
		k.at(delay()*4, event())
	}
	for k.pending() > 0 {
		obs = append(obs, observation{id: -1, n: k.pending()})
		switch rng.Intn(4) {
		case 0:
			k.step()
		case 1:
			k.runUntil(Time(math.Inf(1)))
		default:
			k.runUntil(k.now() + Time(rng.Intn(8))*0.25)
		}
		if rng.Intn(3) == 0 && k.handles() > 0 {
			k.cancel(rng.Intn(k.handles()))
		}
	}
	return append(obs, observation{id: -1, t: k.now(), n: k.pending()})
}

// TestEngineMatchesReferenceHeap pins the vacant root and Rearm to the
// remove-based kernel: seeded streams mixing same-instant ties, cancels of
// live and dead handles, re-arms, nested scheduling, Pending reads inside
// callbacks, Stop and resume, RunUntil deadlines and Step must fire the
// same events at the same times and report the same Pending values.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		got := driveStream(seed, &engineKernel{e: NewEngine()})
		want := driveStream(seed, &refKernel{e: &refEngine{}})
		fired := 0
		for _, o := range want {
			if o.id >= 0 {
				fired++
			}
		}
		if fired < 100 {
			t.Fatalf("seed %d: stream fired only %d events", seed, fired)
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d: observation %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations, reference %d", seed, len(got), len(want))
		}
	}
}
