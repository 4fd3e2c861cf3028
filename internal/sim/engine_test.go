package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Run()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	if e.Now() != 5 {
		t.Fatalf("clock at %v, want 5", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order %v, want FIFO", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	if !ev.Active() {
		t.Fatal("Active() false while scheduled")
	}
	ev.Cancel()
	if ev.Active() {
		t.Fatal("Active() true after Cancel")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after cancel, want 0", e.Pending())
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

// TestEventRefStaleSafety: a ref kept after its event fired must become a
// no-op, even once the underlying record has been recycled for a new event.
func TestEventRefStaleSafety(t *testing.T) {
	e := NewEngine()
	stale := e.At(1, func() {})
	e.Run()
	if stale.Active() {
		t.Fatal("ref active after firing")
	}
	// Reschedule: the pool will hand back the same record.
	fired := false
	fresh := e.At(2, func() { fired = true })
	stale.Cancel() // must NOT cancel the recycled event
	e.Run()
	if !fired {
		t.Fatal("stale Cancel killed a recycled event")
	}
	if fresh.Active() {
		t.Fatal("fresh ref active after firing")
	}
	if stale.Time() != 0 {
		t.Fatalf("stale ref Time() = %v, want 0", stale.Time())
	}
}

// TestEngineSteadyStateNoAlloc: after warm-up, scheduling and firing events
// must not allocate (the freelist recycles records).
func TestEngineSteadyStateNoAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the pool.
	for i := 0; i < 10; i++ {
		e.After(1, fn)
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("schedule/fire allocates %.1f objects per event, want 0", allocs)
	}
}

func TestEngineSchedulingFromEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(1, func() {
		order = append(order, "a")
		e.After(1, func() { order = append(order, "c") })
		e.After(0, func() { order = append(order, "b") })
	})
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() { count++ })
	}
	e.RunUntil(5)
	if count != 5 {
		t.Fatalf("fired %d events by t=5, want 5", count)
	}
	if e.Now() != 5 {
		t.Fatalf("clock %v, want 5", e.Now())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("fired %d events total, want 10", count)
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Fatalf("clock %v, want 42", e.Now())
	}
}

// TestEnginePastSchedulingPanics: scheduling or re-arming into the past or
// at a non-finite time panics.
func TestEnginePastSchedulingPanics(t *testing.T) {
	for _, bad := range []Time{1, Time(math.NaN()), Time(math.Inf(1)), Time(math.Inf(-1))} {
		e := NewEngine()
		live := e.At(9, func() {})
		e.At(5, func() {
			for _, schedule := range []func(){
				func() { e.At(bad, func() {}) },
				func() { e.Rearm(live, bad, func() {}) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("scheduling at %v (now %v) did not panic", bad, e.Now())
						}
					}()
					schedule()
				}()
			}
		})
		e.Run()
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("fired %d events, want 3 after Stop", count)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++ })
	e.At(2, func() { count++ })
	if !e.Step() || count != 1 {
		t.Fatalf("first Step: count=%d", count)
	}
	if !e.Step() || count != 2 {
		t.Fatalf("second Step: count=%d", count)
	}
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

// Property: for any set of delays, events fire in sorted order and the
// final clock equals the max delay.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		var max Time
		for _, r := range raw {
			at := Time(r) / 8
			if at > max {
				max = at
			}
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) || e.Now() != max {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestRearmDeadRefActsAsAt: re-arming a zero, fired or cancelled ref
// schedules a fresh event, exactly as At would.
func TestRearmDeadRefActsAsAt(t *testing.T) {
	e := NewEngine()
	fired := e.At(1, func() {})
	e.Run()
	cancelled := e.At(2, func() {})
	cancelled.Cancel()
	var got []int
	for i, r := range []EventRef{{}, fired, cancelled} {
		i := i
		nr := e.Rearm(r, 3, func() { got = append(got, i) })
		if !nr.Active() || nr.Time() != 3 {
			t.Fatalf("ref %d: Rearm gave active=%v time=%v, want an event at 3", i, nr.Active(), nr.Time())
		}
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3", e.Pending())
	}
	e.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("fired %v, want [0 1 2]", got)
	}
}

// TestRearmInvalidatesOldRef: after Rearm only the returned ref names the
// event; the old one is inactive and cancelling it is a no-op.
func TestRearmInvalidatesOldRef(t *testing.T) {
	e := NewEngine()
	var fired []string
	old := e.At(5, func() { fired = append(fired, "old") })
	nr := e.Rearm(old, 2, func() { fired = append(fired, "new") })
	if old.Active() || old.Time() != 0 {
		t.Fatalf("old ref active=%v time=%v after Rearm", old.Active(), old.Time())
	}
	if !nr.Active() || nr.Time() != 2 || e.Pending() != 1 {
		t.Fatalf("new ref active=%v time=%v, pending %d", nr.Active(), nr.Time(), e.Pending())
	}
	old.Cancel()
	e.Run()
	if len(fired) != 1 || fired[0] != "new" || e.Now() != 2 {
		t.Fatalf("fired %v at %v, want [new] at 2", fired, e.Now())
	}
}

// TestRearmTieFiresAfterExisting: an event re-armed to an instant that
// already holds events fires after them, as Cancel followed by At would,
// whether it moves earlier or later.
func TestRearmTieFiresAfterExisting(t *testing.T) {
	for _, from := range []Time{1, 9} {
		e := NewEngine()
		var got []string
		r := e.At(from, func() { got = append(got, "moved") })
		e.At(5, func() { got = append(got, "a") })
		e.At(5, func() { got = append(got, "b") })
		e.Rearm(r, 5, func() { got = append(got, "moved") })
		e.At(5, func() { got = append(got, "c") })
		e.Run()
		if want := "[a b moved c]"; fmt.Sprint(got) != want {
			t.Fatalf("re-armed from %v: order %v, want %s", from, got, want)
		}
	}
}

// TestRearmSteadyStateNoAlloc: re-arming a live event in place, and the
// fire-then-reschedule cycle through the vacant root, must not allocate.
func TestRearmSteadyStateNoAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(float64(i)+1, fn)
	}
	r := e.After(1, fn)
	allocs := testing.AllocsPerRun(1000, func() {
		r = e.Rearm(r, e.Now()+50, fn)  // later: sifts down
		r = e.Rearm(r, e.Now()+0.5, fn) // earlier: sifts up
		e.After(100, fn)
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("Rearm/fire cycle allocates %.1f objects per run, want 0", allocs)
	}
}
