package netsim

import (
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

func TestConnectAsymOneWay(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng)
	f.AddVertex("a")
	f.AddVertex("b")
	f.ConnectAsym(f.Vertex("a"), f.Vertex("b"), units.Mbps(100), 0)
	if got := len(f.Route(f.Vertex("a"), f.Vertex("b"))); got != 1 {
		t.Fatalf("forward route %d hops", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reverse route should not exist")
		}
	}()
	f.Route(f.Vertex("b"), f.Vertex("a"))
}

func TestRouteCacheInvalidatedByConnect(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng)
	for _, v := range []string{"a", "b", "c"} {
		f.AddVertex(v)
	}
	f.Connect(f.Vertex("a"), f.Vertex("b"), units.Mbps(100), 0)
	f.Connect(f.Vertex("b"), f.Vertex("c"), units.Mbps(100), 0)
	if got := len(f.Route(f.Vertex("a"), f.Vertex("c"))); got != 2 {
		t.Fatalf("route a-c %d hops, want 2", got)
	}
	// A direct cable should shorten the path after cache invalidation.
	f.Connect(f.Vertex("a"), f.Vertex("c"), units.Mbps(100), 0)
	if got := len(f.Route(f.Vertex("a"), f.Vertex("c"))); got != 1 {
		t.Fatalf("route a-c after direct link %d hops, want 1", got)
	}
}

func TestMessagesAndFlowsCoexist(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	a, b := f.Vertex("a"), f.Vertex("b")
	var msgDone, flowDone bool
	f.StartFlow(a, b, units.Bytes(12.5e6/2), func() { flowDone = true })
	f.Send(a, b, 1000, func() { msgDone = true })
	eng.Run()
	if !msgDone || !flowDone {
		t.Fatalf("msg=%v flow=%v", msgDone, flowDone)
	}
}

func TestConnectUnknownVertexPanics(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng)
	a := f.AddVertex("a")
	for name, call := range map[string]func(){
		"unknown name":   func() { f.Vertex("ghost") },
		"foreign handle": func() { f.Connect(a, a+1, units.Mbps(10), 0) },
		"negative":       func() { f.ConnectAsym(-1, a, units.Mbps(10), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
	if f.AddVertex("a") != a || f.Vertex("a") != a {
		t.Fatalf("re-adding %q gave a new handle", "a")
	}
}

func TestFlowRateVisible(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	a, b := f.Vertex("a"), f.Vertex("b")
	fl := f.StartFlow(a, b, units.Bytes(12.5e6), nil)
	eng.Step() // admit flow into the sharing set
	if fl.Finished() {
		t.Fatal("finished too early")
	}
	eng.RunUntil(0.5)
	if r := float64(fl.Rate()); r < 12.4e6/1.01 || r > 12.6e6 {
		t.Fatalf("single-flow rate %g, want ≈12.5e6 B/s", r)
	}
	eng.Run()
	if !fl.Finished() {
		t.Fatal("flow never finished")
	}
}

func TestManyConcurrentFlowsConserveBytes(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	a, b := f.Vertex("a"), f.Vertex("b")
	const n = 20
	size := units.Bytes(1e6)
	done := 0
	for i := 0; i < n; i++ {
		f.StartFlow(a, b, size, func() { done++ })
	}
	eng.Run()
	if done != n {
		t.Fatalf("%d flows finished, want %d", done, n)
	}
	// Each flow crosses 2 links.
	want := units.Bytes(n) * size * 2
	got := f.TotalBytes()
	if got < want*99/100 || got > want*101/100 {
		t.Fatalf("carried %v, want ≈%v", got, want)
	}
}
