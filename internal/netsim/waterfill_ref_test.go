package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// refAffectedFlows is the sort-based component sweep that the live-list
// walk replaced, kept as the oracle for affectedFlows: BFS from the dirty
// links over the per-link flow lists, then a sort on seq. It reads the
// fabric but changes nothing (its visited sets are local).
func refAffectedFlows(dirty []*Link) []*Flow {
	seenL := map[*Link]bool{}
	seenF := map[*Flow]bool{}
	var aff []*Flow
	visit := func(l *Link) {
		if seenL[l] {
			return
		}
		seenL[l] = true
		for _, s := range l.flows {
			if !seenF[s.fl] {
				seenF[s.fl] = true
				aff = append(aff, s.fl)
			}
		}
	}
	for _, l := range dirty {
		visit(l)
	}
	for i := 0; i < len(aff); i++ {
		for _, l := range aff[i].path {
			visit(l)
		}
	}
	slices.SortFunc(aff, func(a, b *Flow) int {
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	return aff
}

// refWaterFill is the water-filling pass that tests every unfrozen flow in
// every round, kept as the oracle for waterFill. Its link state and frozen
// flags are local, and it returns the rates (parallel to flows) instead of
// writing them, so it leaves the fabric untouched.
func refWaterFill(flows []*Flow) []float64 {
	rem := map[*Link]float64{}
	cnt := map[*Link]int{}
	var links []*Link
	for _, fl := range flows {
		for _, l := range fl.path {
			if _, ok := rem[l]; !ok {
				rem[l] = l.effCap()
				links = append(links, l)
			}
			cnt[l]++
		}
	}
	rates := make([]float64, len(flows))
	for i, fl := range flows {
		rates[i] = fl.rate
	}
	frozen := make([]bool, len(flows))
	unfrozen := len(flows)
	for unfrozen > 0 {
		minShare := math.Inf(1)
		for _, l := range links {
			if cnt[l] > 0 {
				if share := rem[l] / float64(cnt[l]); share < minShare {
					minShare = share
				}
			}
		}
		if math.IsInf(minShare, 1) {
			break
		}
		progressed := false
		for i, fl := range flows {
			if frozen[i] {
				continue
			}
			bottlenecked := false
			for _, l := range fl.path {
				if cnt[l] > 0 && rem[l]/float64(cnt[l]) <= minShare*(1+1e-12) {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				continue
			}
			rates[i] = minShare
			frozen[i] = true
			unfrozen--
			for _, l := range fl.path {
				rem[l] -= minShare
				if rem[l] < 0 {
					rem[l] = 0
				}
				cnt[l]--
			}
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return rates
}

// liveList returns the live flows by walking the list from the head.
func liveList(f *Fabric) []*Flow {
	var out []*Flow
	for fl := f.head; fl != nil; fl = fl.next {
		out = append(out, fl)
	}
	return out
}

// checkWaterFill runs the production pass and the reference on the same
// closed flow set and reports the first rate that differs in any bit. The
// flows' rates are restored afterwards, so a check in the middle of a run
// does not perturb it.
func checkWaterFill(f *Fabric, flows []*Flow) error {
	saved := make([]float64, len(flows))
	for i, fl := range flows {
		saved[i] = fl.rate
	}
	want := refWaterFill(flows)
	f.waterFill(flows)
	var err error
	for i, fl := range flows {
		if err == nil && math.Float64bits(fl.rate) != math.Float64bits(want[i]) {
			err = fmt.Errorf("flow seq %d (%d of %d): rate %v, reference %v", fl.seq, i, len(flows), fl.rate, want[i])
		}
		fl.rate = saved[i]
	}
	return err
}

// fabricCase is a test topology, the vertices a fault storm hits, and the
// fixed capacity scales applied before any flow starts.
type fabricCase struct {
	build    func(*sim.Engine) (*Fabric, []Vertex)
	victims  []string
	degraded map[string]float64
}

var refFabricCases = map[string]fabricCase{
	"leafSpine": {leafSpineFabric, []string{"h0-1", "leaf1"}, map[string]float64{"h1-2": 0.5, "spine1": 0.3}},
	"table6":    {table6Fabric, []string{"e05", "esw2"}, map[string]float64{"e17": 0.5, "dsw": 0.125}},
}

// stepTrace schedules a seeded flow trace with a fault storm on the case's
// fabric and steps the engine event by event, calling check after each.
func stepTrace(t *testing.T, c fabricCase, seed int64, check func(f *Fabric)) {
	t.Helper()
	eng := sim.NewEngine()
	f, hosts := c.build(eng)
	for name, s := range c.degraded {
		f.SetVertexLinks(f.Vertex(name), s)
	}
	faultStorm(eng, f, c.victims)
	trace := randomTrace(rand.New(rand.NewSource(seed)), hosts, 160)
	for i, fe := range trace {
		if i%2 == 1 {
			// Start pairs together, so a later flow on a shorter path
			// admits before an earlier one.
			fe.at = trace[i-1].at
		}
		fe := fe
		eng.At(sim.Time(fe.at), func() { f.StartFlow(fe.src, fe.dst, fe.size, nil) })
	}
	for eng.Step() {
		check(f)
	}
}

// TestWaterFillMatchesReference pins the marked water-filling pass to the
// pass that tests every unfrozen flow, bit for bit: at every event of
// seeded traces on the leaf-spine and Table-6 fabrics, with degraded links,
// a cut/degrade/restore storm (rate-0 flows, aborts) and the equal shares
// of same-speed host links, both passes run on the whole live set and on
// the component of a random link, and every rate must be identical.
func TestWaterFillMatchesReference(t *testing.T) {
	for name, c := range refFabricCases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				checks, ties, zeros := 0, 0, 0
				stepTrace(t, c, seed, func(f *Fabric) {
					live := liveList(f)
					if len(live) == 0 {
						return
					}
					if err := checkWaterFill(f, live); err != nil {
						t.Fatal(err)
					}
					fl := live[rng.Intn(len(live))]
					comp := refAffectedFlows(fl.path[rng.Intn(len(fl.path)):][:1])
					if err := checkWaterFill(f, comp); err != nil {
						t.Fatalf("component: %v", err)
					}
					checks++
					seen := map[float64]bool{}
					for _, fl := range live {
						if fl.rate == 0 {
							zeros++
						} else if seen[fl.rate] {
							ties++
						}
						seen[fl.rate] = true
					}
				})
				if checks == 0 || ties == 0 || zeros == 0 {
					t.Fatalf("trace too tame: %d checks, %d equal-share flows, %d rate-0 flows", checks, ties, zeros)
				}
			})
		}
	}
}

// TestWaterFillRetestAfterFreeze covers the one case where a link's share
// falls to the bottleneck in the middle of a round: float rounding of a
// frozen flow's subtraction. Flow X crosses links B and L, the other
// N-1 flows cross L alone. B (one flow) is the round's bottleneck; L's
// share starts one ulp above the freeze threshold, and once X freezes the
// rounded (c-b)/(N-1) is within it, so the reference freezes the next flow
// on L in the same round. The capacities were found by search for N=16386
// with b just below 2^24 B/s. The marked pass must see L pass after X's
// freeze to freeze that flow too.
func TestWaterFillRetestAfterFreeze(t *testing.T) {
	const n = 16386
	var b, c float64 = 1.677720212369347e+07, 2.7491123399911615e+11
	thr := b * (1 + 1e-12)
	if !(c/n > thr) || !((c-b)/(n-1) <= thr) {
		t.Fatalf("capacities do not make the rounding edge: c/n=%v (c-b)/(n-1)=%v thr=%v", c/n, (c-b)/(n-1), thr)
	}
	f := NewFabric(sim.NewEngine())
	B := &Link{Capacity: units.BytesPerSec(b), scale: 1}
	L := &Link{Capacity: units.BytesPerSec(c), scale: 1}
	flows := make([]*Flow, n)
	for i := range flows {
		fl := &Flow{fab: f, seq: uint64(i + 1), heapPos: -1}
		fl.path = []*Link{L}
		if i == 0 {
			fl.path = []*Link{B, L}
		}
		for j, l := range fl.path {
			fl.linkPos = append(fl.linkPos, int32(len(l.flows)))
			l.flows = append(l.flows, linkSlot{fl: fl, pathIdx: int32(j)})
		}
		flows[i] = fl
	}
	if err := checkWaterFill(f, flows); err != nil {
		t.Fatal(err)
	}
	f.waterFill(flows)
	if flows[0].rate != b || flows[1].rate != b {
		t.Fatalf("rates %v, %v: want both frozen at the bottleneck share %v in the first round", flows[0].rate, flows[1].rate, b)
	}
}

// TestLiveListSeqOrder drives seeded admit, complete and abort traces (with
// out-of-order admissions: a later flow on a shorter path admits first)
// and checks after every event that the live list is in strictly
// increasing seq order and as long as ActiveFlows reports, and that
// affectedFlows returns exactly the sorted reference component on both of
// its branches — the live-list walk and the sort.
func TestLiveListSeqOrder(t *testing.T) {
	for name, c := range refFabricCases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var prev map[uint64]bool
				outOfOrder, walks, sorts := 0, 0, 0
				stepTrace(t, c, seed, func(f *Fabric) {
					live := liveList(f)
					if len(live) != f.ActiveFlows() {
						t.Fatalf("live list holds %d flows, ActiveFlows %d", len(live), f.ActiveFlows())
					}
					var last *Flow
					for i, fl := range live {
						if fl.prev != last {
							t.Fatalf("live list back link broken at %d", i)
						}
						if last != nil && last.seq >= fl.seq {
							t.Fatalf("live list out of order at %d: seq %d before %d", i, last.seq, fl.seq)
						}
						last = fl
					}
					if f.tail != last {
						t.Fatal("live list tail is not its last flow")
					}
					seqs := make(map[uint64]bool, len(live))
					for i, fl := range live {
						if i < len(live)-1 && !prev[fl.seq] {
							outOfOrder++ // admitted behind a later-started flow
						}
						seqs[fl.seq] = true
					}
					prev = seqs
					if len(live) == 0 || len(f.dirtyLinks) != 0 {
						return
					}
					// One random link, then every path link of a random flow.
					fl := live[rng.Intn(len(live))]
					for _, dirty := range [][]*Link{fl.path[rng.Intn(len(fl.path)):][:1], fl.path} {
						want := refAffectedFlows(dirty)
						for _, l := range dirty {
							f.markDirty(l)
						}
						got := f.affectedFlows()
						if len(live) <= listWalkRatio*len(want) {
							walks++
						} else {
							sorts++
						}
						if !slices.Equal(got, want) {
							t.Fatalf("affectedFlows returned %d flows, reference %d (or a different order)", len(got), len(want))
						}
					}
				})
				if outOfOrder == 0 || walks == 0 || sorts == 0 {
					t.Fatalf("trace too tame: %d out-of-order admissions, %d list walks, %d sorts", outOfOrder, walks, sorts)
				}
			})
		}
	}
}

// TestWaterFillSteadyStateNoAlloc: once its scratch is warm, re-filling a
// 60-flow component — the dirty-component sweep, the marked pass and the
// heap re-key — allocates nothing.
func TestWaterFillSteadyStateNoAlloc(t *testing.T) {
	eng := sim.NewEngine()
	f, hosts := leafSpineFabric(eng)
	for i := 0; i < 60; i++ {
		src := i % len(hosts)
		dst := (src + 1 + i/len(hosts)%(len(hosts)-1)) % len(hosts)
		f.StartFlow(hosts[src], hosts[dst], units.Bytes(1e12), nil)
	}
	eng.RunUntil(1)
	live := liveList(f)
	if len(live) != 60 {
		t.Fatalf("%d live flows, want 60", len(live))
	}
	l := live[0].path[0]
	f.markDirty(l)
	f.reallocate()
	if n := len(f.affScratch); n != 60 {
		t.Fatalf("component of %d flows, want all 60", n)
	}
	avg := testing.AllocsPerRun(200, func() {
		f.markDirty(l)
		f.reallocate()
		f.waterFill(live)
	})
	if avg != 0 {
		t.Fatalf("warm water-filling allocates %.2f allocs/op, want 0", avg)
	}
}
