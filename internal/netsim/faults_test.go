package netsim

import (
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

func TestSetVertexLinksDegradeSlowsFlow(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, 10*units.MBps, 0)
	var doneAt sim.Time
	// 10 MB at 10 MB/s = 1 s healthy. Halving b's links at t=0.5 leaves
	// 5 MB to drain at 5 MB/s: done at 1.5 s.
	f.StartFlow("a", "b", 10*units.MB, func() { doneAt = eng.Now() })
	eng.After(0.5, func() { f.SetVertexLinks("b", 0.5) })
	eng.Run()
	if !almost(float64(doneAt), 1.5, 1e-9) {
		t.Fatalf("degraded flow done at %v, want 1.5", doneAt)
	}
}

func TestSetVertexLinksRestoreIsExact(t *testing.T) {
	// A degrade-and-restore cycle on an idle vertex must leave behavior
	// bit-identical to an untouched fabric (scale 1 multiplies exactly).
	run := func(touch bool) sim.Time {
		eng := sim.NewEngine()
		f := lineFabric(eng, 10*units.MBps, 1e-3)
		if touch {
			f.SetVertexLinks("b", 0.25)
			f.SetVertexLinks("b", 1)
		}
		var doneAt sim.Time
		f.StartFlow("a", "b", 7*units.MB, func() { doneAt = eng.Now() })
		eng.Run()
		return doneAt
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("restored fabric differs from untouched: %v vs %v", a, b)
	}
}

func TestLinkCutAbortsCrossingFlows(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, 10*units.MBps, 0)
	done := false
	f.StartFlow("a", "b", 10*units.MB, func() { done = true })
	eng.After(0.5, func() { f.SetVertexLinks("b", 0) })
	eng.Run()
	if done {
		t.Fatal("flow across a cut link completed; its done callback must never fire")
	}
	if n := f.ActiveFlows(); n != 0 {
		t.Fatalf("%d flows still active after the cut, want 0", n)
	}
}

func TestLinkCutSparesDisjointFlows(t *testing.T) {
	// a--sw--b and c--sw--d: cutting d's links must abort only the c→d flow
	// and give a→b its full capacity back.
	eng := sim.NewEngine()
	f := NewFabric(eng)
	for _, v := range []string{"a", "b", "c", "d", "sw"} {
		f.AddVertex(v)
	}
	for _, v := range []string{"a", "b", "c", "d"} {
		f.Connect(v, "sw", 10*units.MBps, 0)
	}
	var abDone, cdDone bool
	f.StartFlow("a", "b", 10*units.MB, func() { abDone = true })
	f.StartFlow("c", "d", 10*units.MB, func() { cdDone = true })
	eng.After(0.5, func() { f.SetVertexLinks("d", 0) })
	eng.Run()
	if !abDone || cdDone {
		t.Fatalf("after cutting d: a→b done=%v (want true), c→d done=%v (want false)", abDone, cdDone)
	}
}

func TestFlowOverDownLinkWaitsForRestore(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, 10*units.MBps, 0)
	f.SetVertexLinks("b", 0)
	var doneAt sim.Time
	// Admitted at rate 0 while the link is down; restored at t=2, the
	// 10 MB drain at 10 MB/s, done at 3.
	f.StartFlow("a", "b", 10*units.MB, func() { doneAt = eng.Now() })
	eng.After(2, func() { f.SetVertexLinks("b", 1) })
	eng.Run()
	if !almost(float64(doneAt), 3.0, 1e-9) {
		t.Fatalf("flow over restored link done at %v, want 3.0", doneAt)
	}
}

func TestMessageDroppedAtDownLink(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, 10*units.MBps, 0)
	f.SetVertexLinks("b", 0)
	delivered := false
	f.Send("a", "b", 1000, func() { delivered = true })
	eng.Run()
	if delivered {
		t.Fatal("message crossed a down link")
	}
}

// TestCutFlushesQueuedMessages pins flush-on-cut: A, B and C queue on a's
// access link, 0.1 s each. Cutting a's links mid-A still delivers A (it is
// on the wire) but drops B and C at cut time, so restoring the links right
// after — while A is still transmitting — does not bring them back.
func TestCutFlushesQueuedMessages(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, 10*units.MBps, 0)
	delivered := map[string]sim.Time{}
	for _, name := range []string{"A", "B", "C"} {
		f.Send("a", "b", units.MB, func() { delivered[name] = eng.Now() })
	}
	eng.At(0.05, func() { f.SetVertexLinks("a", 0) })
	eng.At(0.06, func() { f.SetVertexLinks("a", 1) })
	eng.Run()
	if len(delivered) != 1 || !almost(float64(delivered["A"]), 0.2, 1e-12) {
		t.Fatalf("delivered %v, want only A at 0.2", delivered)
	}
	if got := f.Route("a", "b")[0].Bytes(); got != units.MB {
		t.Fatalf("cut link carried %v, want only A's %v", got, units.MB)
	}
	if len(f.freeMsgs) != msgChunk {
		t.Fatalf("%d message records pooled after the flush, want all %d", len(f.freeMsgs), msgChunk)
	}
}

// TestDegradeRetimesQueuedMessages: a queued message transmits at the
// capacity in force when it starts, not when it was queued. A, B and C
// queue on a's access link at 0.1 s each. Halving it mid-A leaves A alone
// and stretches B to 0.2 s; restoring it mid-B leaves B alone and runs C at
// full rate again.
func TestDegradeRetimesQueuedMessages(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, 10*units.MBps, 0)
	delivered := map[string]sim.Time{}
	for _, name := range []string{"A", "B", "C"} {
		f.Send("a", "b", units.MB, func() { delivered[name] = eng.Now() })
	}
	eng.At(0.05, func() { f.SetVertexLinks("a", 0.5) })
	eng.At(0.15, func() { f.SetVertexLinks("a", 1) })
	eng.Run()
	// a→sw: A [0, 0.1], B [0.1, 0.3] at half rate, C [0.3, 0.4]; sw→b adds
	// 0.1 s each, queued behind the previous message.
	want := map[string]float64{"A": 0.2, "B": 0.4, "C": 0.5}
	for name, at := range want {
		if !almost(float64(delivered[name]), at, 1e-12) {
			t.Errorf("%s delivered at %v, want %v", name, delivered[name], at)
		}
	}
}

func TestSetVertexLinksRejectsBadScale(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, 10*units.MBps, 0)
	for _, bad := range []float64{-1, nan()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetVertexLinks(%v) did not panic", bad)
				}
			}()
			f.SetVertexLinks("b", bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetVertexLinks on unknown vertex did not panic")
			}
		}()
		f.SetVertexLinks("nope", 0.5)
	}()
}

func nan() float64 {
	z := 0.0
	return z / z
}

// BenchmarkSendDegraded pins the degraded-path cost: messaging over a link
// running at half capacity must stay allocation-free like the healthy path
// BenchmarkSend pins.
func BenchmarkSendDegraded(b *testing.B) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Gbps(1), 0)
	f.SetVertexLinks("b", 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send("a", "b", 1000, nil)
		eng.Run()
	}
}
