package yarn

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"edisim/internal/hw"
	"edisim/internal/sim"
)

// refRM is the heartbeat scheduler as it ran before pending requests were
// kept in service order: Request appends, and every tick stable-sorts the
// whole pending list by priority, tries place for every request under the
// grant cap and rebuilds the list. It borrows the production RM for its
// nodes and place, which this reference does not change, and keeps its own
// pending list and heartbeat.
type refRM struct {
	*ResourceManager
	pending []*pendingReq
	ticking bool
}

func (rm *refRM) Request(req ContainerRequest, done func(*Container)) {
	rm.pending = append(rm.pending, &pendingReq{req: req, done: done})
	rm.ensureTicking()
}

func (rm *refRM) ensureTicking() {
	if rm.ticking {
		return
	}
	rm.ticking = true
	rm.eng.After(rm.HeartbeatInterval, rm.tick)
}

func (rm *refRM) tick() {
	rm.ticking = false
	grants := 0
	sort.SliceStable(rm.pending, func(i, j int) bool {
		return rm.pending[i].req.Priority > rm.pending[j].req.Priority
	})
	var still []*pendingReq
	for _, p := range rm.pending {
		if grants >= rm.GrantsPerHeartbeat {
			still = append(still, p)
			continue
		}
		nm := rm.place(p.req, p.waited >= delayRounds)
		if nm == nil {
			p.waited++
			still = append(still, p)
			continue
		}
		grants++
		rm.granted++
		nm.usedMem += p.req.MemoryMB
		nm.usedVC += p.req.VCores
		c := &Container{Node: nm, Req: p.req}
		startup := rm.ContainerStartup(nm.Node)
		p := p
		rm.eng.After(startup, func() { p.done(c) })
	}
	rm.pending = still
	if len(rm.pending) > 0 {
		rm.ensureTicking()
	}
}

func (rm *refRM) Release(c *Container) {
	if c.released {
		panic("yarn: double release of container")
	}
	c.released = true
	c.Node.usedMem -= c.Req.MemoryMB
	c.Node.usedVC -= c.Req.VCores
	if len(rm.pending) > 0 {
		rm.ensureTicking()
	}
}

// scheduler is the API both implementations offer the driver.
type scheduler interface {
	Request(req ContainerRequest, done func(*Container))
	Release(c *Container)
	SetNodeUsable(n *hw.Node, usable bool)
}

// streamOp is one step of a seeded request stream: a request (with the time
// its container is held before release), or a node usability toggle.
type streamOp struct {
	at     sim.Time
	toggle bool
	node   int // toggled node
	usable bool
	req    ContainerRequest
	prefer []int // preferred node indices
	hold   float64
}

// mixedNodes builds 6 micro and 2 brawny slaves on eng.
func mixedNodes(eng *sim.Engine) []*hw.Node {
	var nodes []*hw.Node
	for i := 0; i < 6; i++ {
		nodes = append(nodes, hw.NewNode(eng, hw.EdisonSpec(), fmt.Sprintf("e%d", i)))
	}
	for i := 0; i < 2; i++ {
		nodes = append(nodes, hw.NewNode(eng, hw.DellR620Spec(), fmt.Sprintf("d%d", i)))
	}
	return nodes
}

// newStream draws a request stream that keeps the mixed cluster mostly
// full: micro- and brawny-sized containers at three priorities, half with
// preferred nodes, held 5-60 s before release, plus usability toggles.
func newStream(seed int64, nodes int) []streamOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []streamOp
	for t := 0.0; t < 200; t += rng.ExpFloat64() / 3 {
		op := streamOp{at: sim.Time(t), hold: 5 + 55*rng.Float64()}
		if rng.Intn(12) == 0 {
			op.toggle, op.node, op.usable = true, rng.Intn(nodes), rng.Intn(2) == 0
			ops = append(ops, op)
			continue
		}
		if rng.Intn(3) == 0 {
			op.req = ContainerRequest{MemoryMB: 1024 * (1 + rng.Intn(2)), VCores: 1 + rng.Intn(2)}
		} else {
			op.req = ContainerRequest{MemoryMB: 150 * (1 + rng.Intn(2)), VCores: 1}
		}
		op.req.Priority = rng.Intn(3)
		if rng.Intn(2) == 0 {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				op.prefer = append(op.prefer, rng.Intn(nodes))
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// grantRecord is one grant as the driver observed it.
type grantRecord struct {
	op   int
	node string
	at   sim.Time
}

// pendingRecord is one request still pending at the end of a run.
type pendingRecord struct {
	prio, mem, vc, prefer, waited int
}

// driveStream plays the stream against a fresh RM (the reference when ref
// is set) with the given grant cap and returns the grants in order and the
// requests left pending, in service order.
func driveStream(ops []streamOp, grantsPerHeartbeat int, ref bool) ([]grantRecord, []pendingRecord) {
	eng := sim.NewEngine()
	master := hw.NewNode(eng, hw.DellR620Spec(), "master")
	nodes := mixedNodes(eng)
	rm, err := NewResourceManager(eng, master, nodes, DefaultResources)
	if err != nil {
		panic(err)
	}
	rm.GrantsPerHeartbeat = grantsPerHeartbeat
	var s scheduler = rm
	var rrm *refRM
	if ref {
		rrm = &refRM{ResourceManager: rm}
		s = rrm
	}
	var grants []grantRecord
	for i, op := range ops {
		eng.At(op.at, func() {
			if op.toggle {
				s.SetNodeUsable(nodes[op.node], op.usable)
				return
			}
			req := op.req
			for _, n := range op.prefer {
				req.PreferredNodes = append(req.PreferredNodes, rm.NodeManagerOf(nodes[n]))
			}
			s.Request(req, func(c *Container) {
				grants = append(grants, grantRecord{i, c.Node.Node.ID, eng.Now()})
				eng.After(op.hold, func() { s.Release(c) })
			})
		})
	}
	eng.RunUntil(400)
	var left []pendingRecord
	add := func(p *pendingReq) {
		left = append(left, pendingRecord{p.req.Priority, p.req.MemoryMB, p.req.VCores, len(p.req.PreferredNodes), p.waited})
	}
	if ref {
		sort.SliceStable(rrm.pending, func(i, j int) bool {
			return rrm.pending[i].req.Priority > rrm.pending[j].req.Priority
		})
		for _, p := range rrm.pending {
			add(p)
		}
	} else {
		for i := range rm.pending {
			add(&rm.pending[i])
		}
	}
	return grants, left
}

// TestTickMatchesSortedReference pins the in-order pending list and the
// no-fit skip against the sort-and-rebuild heartbeat they replaced: over
// seeded streams mixing priorities, micro and brawny container sizes,
// preferred nodes, usability toggles and releases between heartbeats, both
// grant the same requests in the same order on the same nodes at the same
// instants, and leave the same requests pending with the same delay-
// scheduling counters.
func TestTickMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, grantCap := range []int{24, 3} {
			ops := newStream(seed, 8)
			got, gotLeft := driveStream(ops, grantCap, false)
			want, wantLeft := driveStream(ops, grantCap, true)
			if len(got) < 100 || len(wantLeft) == 0 {
				t.Fatalf("seed %d cap %d: %d grants, %d left pending; the stream must keep the cluster contended",
					seed, grantCap, len(got), len(wantLeft))
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d cap %d: %d grants, reference %d", seed, grantCap, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d cap %d: grant %d is %+v, reference %+v", seed, grantCap, i, got[i], want[i])
				}
			}
			if fmt.Sprint(gotLeft) != fmt.Sprint(wantLeft) {
				t.Fatalf("seed %d cap %d: pending at the end\n got %v\nwant %v", seed, grantCap, gotLeft, wantLeft)
			}
		}
	}
}
