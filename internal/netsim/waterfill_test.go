package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// leafSpineFabric builds a 2-spine × 2-leaf × 4-host fat tree: 100 Mbps
// host access links, 1 Gbps leaf-spine uplinks (the platform_matrix shape).
func leafSpineFabric(eng *sim.Engine) (*Fabric, []Vertex) {
	f := NewFabric(eng)
	var hosts []Vertex
	for s := 0; s < 2; s++ {
		f.AddVertex(fmt.Sprintf("spine%d", s))
	}
	for l := 0; l < 2; l++ {
		leaf := f.AddVertex(fmt.Sprintf("leaf%d", l))
		for s := 0; s < 2; s++ {
			f.Connect(leaf, f.Vertex(fmt.Sprintf("spine%d", s)), units.Gbps(1), 0.1e-3)
		}
		for h := 0; h < 4; h++ {
			host := f.AddVertex(fmt.Sprintf("h%d-%d", l, h))
			f.Connect(host, leaf, units.Mbps(100), 0.2e-3)
			hosts = append(hosts, host)
		}
	}
	return f, hosts
}

// table6Fabric builds the paper's Table 6 testbed shape: 35 Edison-class
// hosts (100 Mbps NICs) spread over three access switches, a Dell-class
// host (1 Gbps NIC) on a fourth, 1 Gbps inter-switch links to a root.
func table6Fabric(eng *sim.Engine) (*Fabric, []Vertex) {
	f := NewFabric(eng)
	root := f.AddVertex("root")
	var hosts []Vertex
	for s := 0; s < 3; s++ {
		sw := f.AddVertex(fmt.Sprintf("esw%d", s))
		f.Connect(sw, root, units.Gbps(1), 0.1e-3)
		for h := 0; h < 12 && len(hosts) < 35; h++ {
			host := f.AddVertex(fmt.Sprintf("e%02d", len(hosts)))
			f.Connect(host, sw, units.Mbps(100), 0.3e-3)
			hosts = append(hosts, host)
		}
	}
	dsw := f.AddVertex("dsw")
	f.Connect(dsw, root, units.Gbps(1), 0.1e-3)
	dell := f.AddVertex("dell")
	f.Connect(dell, dsw, units.Gbps(1), 0.1e-3)
	hosts = append(hosts, dell)
	return f, hosts
}

// driveTrace schedules the given flow trace on the fabric, sampling every
// flow's rate at fixed intervals and recording completion times. Returned
// slices are deterministic given the trace.
type flowEvent struct {
	at       float64
	src, dst Vertex
	size     units.Bytes
}

func driveTrace(eng *sim.Engine, f *Fabric, trace []flowEvent) (doneTimes []sim.Time, rateSamples []float64) {
	refs := make([]FlowRef, len(trace))
	doneTimes = make([]sim.Time, len(trace))
	var horizon float64
	for i, fe := range trace {
		i, fe := i, fe
		eng.At(sim.Time(fe.at), func() {
			refs[i] = f.StartFlow(fe.src, fe.dst, fe.size, func() {
				doneTimes[i] = eng.Now()
			})
		})
		if fe.at > horizon {
			horizon = fe.at
		}
	}
	// Sample all live rates on a fixed grid spanning the arrival window.
	for k := 0; k < 400; k++ {
		eng.At(sim.Time(float64(k)*horizon/400), func() {
			for _, r := range refs {
				rateSamples = append(rateSamples, float64(r.Rate()))
			}
		})
	}
	eng.Run()
	return doneTimes, rateSamples
}

// randomTrace builds a reproducible arrival/departure mix: flow sizes span
// RPC-ish to HDFS-block-ish so completions interleave heavily with
// arrivals.
func randomTrace(rng *rand.Rand, hosts []Vertex, n int) []flowEvent {
	trace := make([]flowEvent, n)
	for i := range trace {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		trace[i] = flowEvent{
			at:   rng.Float64() * 2.0,
			src:  src,
			dst:  dst,
			size: units.Bytes(1e4 + rng.Float64()*2e6),
		}
	}
	return trace
}

// close reports a ≈ b within a relative tolerance generous enough to absorb
// the lazy/eager float-accumulation difference (progress credited in one
// closed-form chunk per rate change vs one chunk per event) but far tighter
// than any behavioral divergence.
func closeTo(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-6*math.Max(math.Abs(a), math.Abs(b))+1e-9
}

// TestLazyMatchesEagerReference: on randomized flow traces over the
// leaf-spine and Table-6 topologies, the lazy default (dirty-component
// crediting + completion heap) must reproduce the eager reference
// implementation within float tolerance — same completion time per flow,
// same completion order, same sampled rates. Rate samples that land in the
// sliver between the two modes' completion instants (one mode has finished
// the flow, the other finishes it a few ulps later) are excused only when
// one side reads exactly 0.
func TestLazyMatchesEagerReference(t *testing.T) {
	builders := map[string]func(*sim.Engine) (*Fabric, []Vertex){
		"leafSpine": leafSpineFabric,
		"table6":    table6Fabric,
	}
	for name, build := range builders {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				engLazy := sim.NewEngine()
				fabLazy, hosts := build(engLazy)
				engEager := sim.NewEngine()
				fabEager, _ := build(engEager)
				fabEager.SetEagerReference(true)

				trace := randomTrace(rand.New(rand.NewSource(seed)), hosts, 120)
				doneLazy, ratesLazy := driveTrace(engLazy, fabLazy, trace)
				doneEager, ratesEager := driveTrace(engEager, fabEager, trace)

				checkEquivalence(t, trace, doneLazy, doneEager, ratesLazy, ratesEager)
			})
		}
	}
}

func checkEquivalence(t *testing.T, trace []flowEvent, doneLazy, doneEager []sim.Time, ratesLazy, ratesEager []float64) {
	t.Helper()
	for i := range doneLazy {
		if (doneLazy[i] == 0) != (doneEager[i] == 0) {
			t.Fatalf("flow %d (%d->%d): finished in one mode only: %v (lazy) vs %v (eager)",
				i, trace[i].src, trace[i].dst, doneLazy[i], doneEager[i])
		}
		if !closeTo(float64(doneLazy[i]), float64(doneEager[i])) {
			t.Fatalf("flow %d (%d->%d): completion %v (lazy) != %v (eager)",
				i, trace[i].src, trace[i].dst, doneLazy[i], doneEager[i])
		}
	}
	// Completion order must match exactly (the heap ties on admission seq to
	// reproduce the eager sweep's order).
	orderOf := func(done []sim.Time) []int {
		order := make([]int, 0, len(done))
		for i, d := range done {
			if d != 0 {
				order = append(order, i)
			}
		}
		sort.SliceStable(order, func(a, b int) bool { return done[order[a]] < done[order[b]] })
		return order
	}
	ol, oe := orderOf(doneLazy), orderOf(doneEager)
	for i := range ol {
		if ol[i] != oe[i] {
			// Permit swaps between flows whose completions are within
			// tolerance of each other — their order is float noise.
			if closeTo(float64(doneLazy[ol[i]]), float64(doneLazy[oe[i]])) {
				continue
			}
			t.Fatalf("completion order diverged at position %d: flow %d (lazy) vs %d (eager)", i, ol[i], oe[i])
		}
	}
	if len(ratesLazy) != len(ratesEager) {
		t.Fatalf("sample count %d != %d", len(ratesLazy), len(ratesEager))
	}
	for i := range ratesLazy {
		if ratesLazy[i] == ratesEager[i] {
			continue
		}
		if ratesLazy[i] == 0 || ratesEager[i] == 0 {
			continue // sample landed between the modes' completion instants
		}
		if !closeTo(ratesLazy[i], ratesEager[i]) {
			t.Fatalf("rate sample %d: %v (lazy) != %v (eager)",
				i, ratesLazy[i], ratesEager[i])
		}
	}
}

// faultStorm schedules link cut/degrade/restore storms against a couple of
// vertices: mass simultaneous rate changes, aborted crossing flows, and
// rate-0 admissions that must wait for restore — the paths most likely to
// break the lazy-crediting invariant.
func faultStorm(eng *sim.Engine, f *Fabric, victims []string) {
	for i, name := range victims {
		v := f.Vertex(name)
		base := 0.35 + 0.1*float64(i)
		eng.At(sim.Time(base), func() { f.SetVertexLinks(v, 0) })        // cut
		eng.At(sim.Time(base+0.3), func() { f.SetVertexLinks(v, 0.25) }) // partial restore, degraded
		eng.At(sim.Time(base+0.7), func() { f.SetVertexLinks(v, 1) })    // healthy
	}
}

// TestLazyMatchesEagerReferenceWithFaults runs the same lockstep comparison
// through link cut/degrade storms. Flows whose completion (in either mode)
// lands within a hair of a fault instant are excused from the per-flow
// checks: a cut arriving a few ulps before vs after a completion flips the
// flow between finished and aborted, which is fault-timing noise, not a
// divergence. The seeds are chosen so at most a handful of flows hit that
// window.
func TestLazyMatchesEagerReferenceWithFaults(t *testing.T) {
	builders := map[string]struct {
		build   func(*sim.Engine) (*Fabric, []Vertex)
		victims []string
	}{
		"leafSpine": {leafSpineFabric, []string{"h0-1", "leaf1"}},
		"table6":    {table6Fabric, []string{"e05", "esw2"}},
	}
	for name, tc := range builders {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				engLazy := sim.NewEngine()
				fabLazy, hosts := tc.build(engLazy)
				faultStorm(engLazy, fabLazy, tc.victims)
				engEager := sim.NewEngine()
				fabEager, _ := tc.build(engEager)
				fabEager.SetEagerReference(true)
				faultStorm(engEager, fabEager, tc.victims)

				trace := randomTrace(rand.New(rand.NewSource(seed)), hosts, 120)
				doneLazy, ratesLazy := driveTrace(engLazy, fabLazy, trace)
				doneEager, ratesEager := driveTrace(engEager, fabEager, trace)

				finLazy, finEager, aborted := 0, 0, 0
				for i := range doneLazy {
					if doneLazy[i] != 0 {
						finLazy++
					}
					if doneEager[i] != 0 {
						finEager++
					}
					if (doneLazy[i] == 0) != (doneEager[i] == 0) {
						aborted++
						continue
					}
					if doneLazy[i] == 0 {
						continue // aborted in both modes
					}
					if !closeTo(float64(doneLazy[i]), float64(doneEager[i])) {
						t.Fatalf("flow %d (%d->%d): completion %v (lazy) != %v (eager)",
							i, trace[i].src, trace[i].dst, doneLazy[i], doneEager[i])
					}
				}
				if aborted > 2 {
					t.Fatalf("%d flows flipped finished/aborted across modes (fault-window noise budget is 2)", aborted)
				}
				if finLazy == len(trace) || finLazy == 0 {
					t.Fatalf("fault storm had no effect: %d/%d flows finished (lazy)", finLazy, len(trace))
				}
				mismatched := 0
				for i := range ratesLazy {
					if ratesLazy[i] == ratesEager[i] || ratesLazy[i] == 0 || ratesEager[i] == 0 {
						continue
					}
					if !closeTo(ratesLazy[i], ratesEager[i]) {
						mismatched++
					}
				}
				if mismatched > 0 {
					t.Fatalf("%d rate samples diverged beyond tolerance", mismatched)
				}
			})
		}
	}
}

// TestFlowChurnSteadyStateNoAlloc pins the whole lazy flow path — StartFlow,
// admission, dirty-component water-filling, heap re-keying, completion — at
// zero allocations per flow once the pools and scratch have warmed up.
func TestFlowChurnSteadyStateNoAlloc(t *testing.T) {
	eng := sim.NewEngine()
	f, hosts := leafSpineFabric(eng)
	// Warm: pools, route cache, heap/scratch capacity.
	for i := 0; i < 3; i++ {
		for j := 0; j < len(hosts); j++ {
			f.StartFlow(hosts[j], hosts[(j+3)%len(hosts)], units.Bytes(1e5), nil)
		}
		eng.RunUntil(eng.Now() + 1)
	}
	avg := testing.AllocsPerRun(200, func() {
		f.StartFlow(hosts[0], hosts[5], units.Bytes(2e5), nil)
		f.StartFlow(hosts[1], hosts[6], units.Bytes(1e5), nil)
		eng.RunUntil(eng.Now() + 1)
	})
	if avg != 0 {
		t.Fatalf("steady-state flow churn allocates %.2f allocs/op, want 0", avg)
	}
}

// TestIncrementalSkipsUntouchedComponent: a flow in a disjoint component
// keeps its exact rate object through churn elsewhere, and the dirty-link
// list drains after every pass.
func TestIncrementalSkipsUntouchedComponent(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng)
	for _, v := range []string{"a", "b", "c", "d", "sw1", "sw2"} {
		f.AddVertex(v)
	}
	f.Connect(f.Vertex("a"), f.Vertex("sw1"), units.Mbps(100), 0)
	f.Connect(f.Vertex("b"), f.Vertex("sw1"), units.Mbps(100), 0)
	f.Connect(f.Vertex("c"), f.Vertex("sw2"), units.Mbps(100), 0)
	f.Connect(f.Vertex("d"), f.Vertex("sw2"), units.Mbps(100), 0)
	// Long-lived flow in the c/d component.
	long := f.StartFlow(f.Vertex("c"), f.Vertex("d"), units.Bytes(125e6), nil)
	// Churn in the a/b component.
	for i := 0; i < 5; i++ {
		f.StartFlow(f.Vertex("a"), f.Vertex("b"), units.Bytes(1e5), nil)
	}
	eng.RunUntil(1)
	if got := float64(long.Rate()); got != 12.5e6 {
		t.Fatalf("untouched flow rate %v, want 12.5e6", got)
	}
	if len(f.dirtyLinks) != 0 {
		t.Fatalf("%d dirty links left after passes, want 0", len(f.dirtyLinks))
	}
	eng.Run()
	if !long.Finished() {
		t.Fatal("long flow never finished")
	}
}

// BenchmarkFlowChurnManyComponents measures reallocation cost with many
// disjoint active components: 128 long-lived pair flows plus churn on one
// pair — the platform_matrix many-nodes shape. The lazy pass only touches
// the churning component; the eager variant is the retained reference
// (credit + recompute every component on every event).
func BenchmarkFlowChurnManyComponents(b *testing.B) {
	for _, mode := range []struct {
		name  string
		eager bool
	}{{"lazy", false}, {"eager", true}} {
		b.Run(mode.name, func(b *testing.B) {
			eng := sim.NewEngine()
			f := NewFabric(eng)
			f.SetEagerReference(mode.eager)
			const pairs = 128
			hosts := make([][2]Vertex, pairs)
			for i := 0; i < pairs; i++ {
				sw := f.AddVertex(fmt.Sprintf("sw%d", i))
				a, c := f.AddVertex(fmt.Sprintf("a%d", i)), f.AddVertex(fmt.Sprintf("b%d", i))
				f.Connect(a, sw, units.Gbps(1), 0)
				f.Connect(c, sw, units.Gbps(1), 0)
				hosts[i] = [2]Vertex{a, c}
			}
			// Keep every pair busy with an effectively infinite background flow.
			for i := 0; i < pairs; i++ {
				f.StartFlow(hosts[i][0], hosts[i][1], units.Bytes(1e18), nil)
			}
			eng.RunUntil(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.StartFlow(hosts[0][0], hosts[0][1], units.Bytes(1e6), nil)
				eng.RunUntil(eng.Now() + 1)
			}
		})
	}
}
