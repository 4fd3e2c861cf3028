// Package sim is edisim's discrete-event simulation kernel: a virtual clock,
// a cancellable event heap, FIFO k-server resources and a virtual-time
// processor-sharing resource. All higher-level models (CPUs, disks, network
// flows, web requests, MapReduce containers) are built from these primitives.
//
// The kernel is single-threaded and callback-based: an event is a func()
// executed at its scheduled virtual time. Determinism is guaranteed by
// breaking time ties with a monotone sequence number. One engine must only
// ever be driven from one goroutine, but any number of engines can run
// concurrently (see internal/runner), so the kernel keeps no global state.
//
// The event queue is a concrete 4-ary min-heap over pooled Event records:
// scheduling does not allocate in steady state (events are recycled through
// a per-engine freelist, grown in chunks), and the heap needs no interface
// boxing or indirect calls. Handles returned by At/After are small EventRef
// values stamped with the event's sequence number, so a stale handle —
// kept after its event fired or was cancelled — is detected and ignored
// rather than corrupting a recycled event.
//
// Two choices keep the sift work per event small. Firing an event leaves
// the root of the heap vacant instead of moving the last event there: nearly
// every callback schedules a successor, and the first At it makes takes the
// vacant root and sifts down the few levels it needs, rather than paying a
// full-depth sift-down for the pop plus a sift-up for the push. If the
// callback schedules nothing, the root is filled the classic way before the
// next event is read. And a timer that moves — a CPU's next completion, a
// queued message re-timed behind a slower link — is re-armed in place with
// Rearm, which orders exactly like Cancel followed by At but sifts the
// record once instead of removing and re-inserting it.
package sim

import (
	"fmt"
	"math"
)

// Time is simulation time in seconds since the start of the run.
type Time float64

// Event is a pooled event record. User code never holds *Event directly;
// it holds EventRef handles, which stay safe across recycling.
type Event struct {
	at  Time
	seq uint64 // unique per scheduling; 0 while on the freelist
	fn  func()
	pos int // heap position
	eng *Engine
}

// EventRef is a cheap, copyable handle to a scheduled event. The zero value
// is inert. A ref stays valid-to-use (but inactive) after its event fires or
// is cancelled: every operation on a dead ref is a no-op.
type EventRef struct {
	ev  *Event
	seq uint64
}

// live reports whether the ref still names a scheduled event.
func (r EventRef) live() bool { return r.ev != nil && r.ev.seq == r.seq }

// Cancel removes the event from the schedule. Cancelling an already-fired,
// already-cancelled or zero ref is a no-op.
func (r EventRef) Cancel() {
	if r.live() {
		r.ev.eng.remove(r.ev)
	}
}

// Active reports whether the event is still scheduled (not fired, not
// cancelled).
func (r EventRef) Active() bool { return r.live() }

// Time reports when the event is scheduled to fire; zero for a dead ref.
func (r EventRef) Time() Time {
	if r.live() {
		return r.ev.at
	}
	return 0
}

// eventChunk is how many Event records the freelist grows by at once.
const eventChunk = 256

// Engine drives a simulation: it owns the clock and the pending event set.
type Engine struct {
	now     Time
	seq     uint64
	heap    []*Event // 4-ary min-heap on (at, seq); heap[0] is vacant while hole
	hole    bool     // the root was popped and not yet refilled
	free    []*Event // recycled event records
	stopped bool
	fired   uint64

	// interrupt, when set, is polled every interruptStride events inside
	// Run/RunUntil; returning true abandons the run (see SetInterrupt).
	interrupt   func() bool
	interrupted bool
}

// interruptStride is how many events execute between interrupt polls: often
// enough that a cancelled context stops a stuck simulation within
// milliseconds of wall time, rare enough that the poll is invisible in the
// event-loop profile.
const interruptStride = 4096

// SetInterrupt installs a poll called every few thousand executed events
// during Run/RunUntil; when it returns true the run stops early (like Stop)
// and Interrupted reports true. It is how context cancellation reaches the
// inside of a long-running simulation: the engine is single-threaded, so
// without a checkpoint a stuck unit could only be abandoned between units.
// nil (the default) disables polling. The hook must be deterministic-safe:
// it is only ever used to abandon a run, never to steer one.
func (e *Engine) SetInterrupt(fn func() bool) { e.interrupt = fn }

// Interrupted reports whether the last Run/RunUntil was abandoned by the
// interrupt poll. Results computed after an interrupted run are partial.
func (e *Engine) Interrupted() bool { return e.interrupted }

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed, a cheap progress/cost metric.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int {
	if e.hole {
		return len(e.heap) - 1
	}
	return len(e.heap)
}

// alloc takes an event record from the freelist, growing it when empty.
func (e *Engine) alloc() *Event {
	if len(e.free) == 0 {
		chunk := make([]Event, eventChunk)
		for i := range chunk {
			chunk[i].eng = e
			e.free = append(e.free, &chunk[i])
		}
	}
	ev := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	return ev
}

// recycle invalidates outstanding refs and returns the record to the pool.
func (e *Engine) recycle(ev *Event) {
	ev.seq = 0
	ev.fn = nil // release the closure for GC
	e.free = append(e.free, ev)
}

// less orders events by (time, sequence): FIFO within a time tie.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores heap order moving the event at position i toward the
// root, stopping at position top. While the root is vacant, callers pass
// the last of the root's children (see rootTop): the vacant slot orders
// before everything, and whichever event next takes it sifts down.
func (e *Engine) siftUp(i, top int) {
	h := e.heap
	ev := h[i]
	for i > top {
		p := (i - 1) / 4
		if !less(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].pos = i
		i = p
	}
	h[i] = ev
	ev.pos = i
}

// rootTop is the position siftUp stops at: the root, or its children
// while the root is vacant.
func (e *Engine) rootTop() int {
	if e.hole {
		return 4
	}
	return 0
}

// siftDown restores heap order moving the event at position i toward the
// leaves. The moving event's key and the best child's key are kept in
// locals so each comparison reads one child record.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	at, seq := ev.at, ev.seq
	for {
		first := i*4 + 1
		if first >= n {
			break
		}
		m := first
		mat, mseq := h[first].at, h[first].seq
		last := min(first+4, n)
		for c := first + 1; c < last; c++ {
			if x := h[c]; x.at < mat || (x.at == mat && x.seq < mseq) {
				m, mat, mseq = c, x.at, x.seq
			}
		}
		if mat > at || (mat == at && mseq > seq) {
			break
		}
		h[i] = h[m]
		h[i].pos = i
		i = m
	}
	h[i] = ev
	ev.pos = i
}

// fill moves the last event into the vacant root and sifts it down: the
// classic pop, deferred until something needs the earliest event.
func (e *Engine) fill() {
	e.hole = false
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap[n] = nil
	e.heap = e.heap[:n]
	if n > 0 {
		e.heap[0] = last
		e.siftDown(0)
	}
}

// remove deletes a scheduled event from the heap and recycles it. A vacant
// root stays vacant: the event is never at position 0 then.
func (e *Engine) remove(ev *Event) {
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
		e.siftUp(i, e.rootTop())
	}
	e.recycle(ev)
}

// checkTime panics on a time no event may be scheduled at: scheduling into
// the past or at a non-finite time is always a bug. The check is small
// enough to inline into At; badTime builds the message.
func (e *Engine) checkTime(t Time) {
	if !(t >= e.now && t <= math.MaxFloat64) { // NaN fails both
		e.badTime(t)
	}
}

func (e *Engine) badTime(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %g < %g", t, e.now))
	}
	panic(fmt.Sprintf("sim: scheduling at non-finite time %v", t))
}

// At schedules fn to run at absolute time t (>= Now) and returns a handle
// that can cancel it. Scheduling in the past panics: it is always a bug.
func (e *Engine) At(t Time, fn func()) EventRef {
	e.checkTime(t)
	e.seq++
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	if e.hole {
		e.hole = false
		e.heap[0] = ev
		e.siftDown(0)
	} else {
		ev.pos = len(e.heap)
		e.heap = append(e.heap, ev)
		e.siftUp(ev.pos, 0)
	}
	return EventRef{ev: ev, seq: ev.seq}
}

// Rearm moves the event r names to time t with callback fn and returns its
// new handle; r itself goes inactive. It orders exactly like r.Cancel()
// followed by At(t, fn) — the event takes the next sequence number, so it
// fires after every event already scheduled at t — but re-sifts the record
// in place instead of removing and re-inserting it. A dead or zero r
// schedules a new event, as At would.
func (e *Engine) Rearm(r EventRef, t Time, fn func()) EventRef {
	if !r.live() {
		return e.At(t, fn)
	}
	e.checkTime(t)
	e.seq++
	ev := r.ev
	earlier := t < ev.at
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	if earlier {
		e.siftUp(ev.pos, e.rootTop())
	} else {
		e.siftDown(ev.pos)
	}
	return EventRef{ev: ev, seq: ev.seq}
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (e *Engine) After(d float64, fn func()) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	return e.At(e.now+Time(d), fn)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until none remain or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(Time(math.Inf(1)))
}

// head fills a vacant root and reports whether any event is pending; when
// it returns true, heap[0] is the earliest event.
func (e *Engine) head() bool {
	if e.hole {
		e.fill()
	}
	return len(e.heap) > 0
}

// popHead removes the earliest event (head must have returned true),
// advances the clock to it and returns its callback. The root is left
// vacant for the first event the callback schedules. The record is
// recycled before the callback runs, so the callback is free to schedule
// (and reuse) events.
func (e *Engine) popHead() func() {
	ev := e.heap[0]
	e.heap[0] = nil
	e.hole = true
	e.now = ev.at
	fn := ev.fn
	e.recycle(ev)
	e.fired++
	return fn
}

// RunUntil executes events in time order until the next event would fire
// after deadline, none remain, or Stop is called. The clock is left at the
// time of the last executed event (or advanced to deadline when it is
// finite and later).
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	e.interrupted = false
	for !e.stopped && e.head() {
		if e.heap[0].at > deadline {
			break
		}
		if e.interrupt != nil && e.fired%interruptStride == 0 && e.interrupt() {
			e.interrupted = true
			return
		}
		e.popHead()()
	}
	if !e.stopped && !math.IsInf(float64(deadline), 1) && deadline > e.now {
		e.now = deadline
	}
}

// Step executes exactly one event, reporting false when none remain.
func (e *Engine) Step() bool {
	if !e.head() {
		return false
	}
	e.popHead()()
	return true
}
