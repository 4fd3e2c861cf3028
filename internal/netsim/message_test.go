package netsim

import (
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// TestMessageRecordsRecycled: a delivered message returns its record to the
// pool and the next Send reuses it.
func TestMessageRecordsRecycled(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	a, b := f.Vertex("a"), f.Vertex("b")
	f.Send(a, b, 1000, nil)
	eng.Run()
	if got := len(f.freeMsgs); got != msgChunk {
		t.Fatalf("free list has %d records after delivery, want %d", got, msgChunk)
	}
	m1 := f.freeMsgs[len(f.freeMsgs)-1]
	f.Send(a, b, 1000, nil)
	if len(f.freeMsgs) != msgChunk-1 {
		t.Fatal("record not taken from the pool")
	}
	eng.Run()
	if m2 := f.freeMsgs[len(f.freeMsgs)-1]; m1 != m2 {
		t.Fatal("record not reused from the pool")
	}
	if m1.done != nil || m1.path != nil {
		t.Fatal("recycled record retains its callback or path")
	}
}

// TestRoundTripSameHost: a self round trip still completes asynchronously,
// after two zero-delay events (request leg, reply leg).
func TestRoundTripSameHost(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	a := f.Vertex("a")
	done := false
	f.RoundTrip(a, a, 100, 100, func() { done = true })
	if done {
		t.Fatal("self round trip completed synchronously")
	}
	eng.Run()
	if !done {
		t.Fatal("self round trip never completed")
	}
	if eng.Fired() != 2 {
		t.Fatalf("self round trip fired %d events, want 2", eng.Fired())
	}
}

// TestSendSteadyStateNoAlloc: after warm-up, the per-request hot path —
// Send, RoundTrip and ProcShare.Submit — must not allocate, including when
// messages queue behind a busy link (the saturated-sweep regime).
func TestSendSteadyStateNoAlloc(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	a, b := f.Vertex("a"), f.Vertex("b")
	cpu := sim.NewProcShare(eng, 2, 1000)
	fn := func() {}
	// Warm the pools, the route cache and the waiter ring.
	for i := 0; i < 10; i++ {
		f.Send(a, b, 1000, fn)
		f.RoundTrip(a, b, 100, 100, fn)
		cpu.Submit(1, fn)
		eng.Run()
	}
	cases := []struct {
		name string
		op   func()
	}{
		{"Send", func() { f.Send(a, b, 1000, fn) }},
		{"RoundTrip", func() { f.RoundTrip(a, b, 100, 100, fn) }},
		{"ProcShare.Submit", func() { cpu.Submit(1, fn) }},
		{"Send burst (queued)", func() {
			for j := 0; j < 8; j++ {
				f.Send(a, b, 1000, fn)
			}
		}},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(500, func() {
			c.op()
			eng.Run()
		})
		if allocs > 0 {
			t.Errorf("%s allocates %.1f objects per op in steady state, want 0", c.name, allocs)
		}
	}

	// A link that never drains: a standing backlog on a's access link,
	// topped up by one Send and one RoundTrip per op while the clock
	// advances by their transmission time, so the FIFO keeps holding about
	// backlog messages while thousands pass through it.
	const backlog = 48
	l := f.Route(a, b)[0]
	for j := 0; j < backlog; j++ {
		f.Send(a, b, 1000, fn)
	}
	step := sim.Time(1100 / float64(units.Mbps(100)))
	topUp := func() {
		f.Send(a, b, 1000, fn)
		f.RoundTrip(a, b, 100, 100, fn)
		eng.RunUntil(eng.Now() + step)
	}
	for j := 0; j < 8*backlog; j++ {
		topUp() // grow the pools and the FIFO to their steady size
	}
	if allocs := testing.AllocsPerRun(4000, topUp); allocs > 0 {
		t.Errorf("Send+RoundTrip behind a standing queue allocates %.1f objects per op, want 0", allocs)
	}
	if depth := len(l.txq) - l.txHead; depth < backlog {
		t.Fatalf("link FIFO drained to %d messages; the case must keep a standing queue of %d", depth, backlog)
	}
	if c := cap(l.txq); c > 8*backlog {
		t.Errorf("link FIFO capacity %d after 8000 queued messages, want ≤ %d (proportional to queue depth)", c, 8*backlog)
	}
}

// BenchmarkSend measures the store-and-forward messaging path: one
// RPC-sized message over two hops, start to delivery.
func BenchmarkSend(b *testing.B) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Gbps(1), 0)
	src, dst := f.Vertex("a"), f.Vertex("b")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(src, dst, 1000, nil)
		eng.Run()
	}
}

// BenchmarkSendQueued keeps 8 messages contending for the access link per
// round, the saturated shape where waiters queue.
func BenchmarkSendQueued(b *testing.B) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Gbps(1), 0)
	src, dst := f.Vertex("a"), f.Vertex("b")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			f.Send(src, dst, 1000, nil)
		}
		eng.Run()
	}
}

// BenchmarkRoundTrip measures a full request/reply exchange on one pooled
// record.
func BenchmarkRoundTrip(b *testing.B) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Gbps(1), 0)
	src, dst := f.Vertex("a"), f.Vertex("b")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.RoundTrip(src, dst, 100, 100, nil)
		eng.Run()
	}
}

// TestRouteSteadyStateNoAlloc: once every pair's route has been read, Send,
// RoundTrip and StartFlow between any hosts of a leaf/spine fabric make no
// allocations: the route table hands out the stored paths by index.
func TestRouteSteadyStateNoAlloc(t *testing.T) {
	eng := sim.NewEngine()
	f, hosts := leafSpineFabric(eng)
	fn := func() {}
	all := func() {
		for _, src := range hosts {
			for _, dst := range hosts {
				f.Send(src, dst, 1000, fn)
				f.RoundTrip(src, dst, 100, 200, fn)
				f.StartFlow(src, dst, 1e5, fn)
			}
		}
		eng.Run()
	}
	all() // warm the route table, the pools and the scratch
	if allocs := testing.AllocsPerRun(20, all); allocs != 0 {
		t.Fatalf("Send+RoundTrip+StartFlow over %d warm pairs allocate %.1f objects per round, want 0",
			len(hosts)*len(hosts), allocs)
	}
}
