package netsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"edisim/internal/cluster"
	"edisim/internal/hw"
	"edisim/internal/netsim"
	"edisim/internal/sim"
	"edisim/internal/units"
)

// pairRoute is the route search Fabric.Route ran before the route table: a
// BFS from src over links in Connect order, with a map of tree links, that
// stops once dst is reached and runs afresh for every ordered pair. It
// returns nil when dst is unreachable (or is src).
func pairRoute(f *netsim.Fabric, src, dst netsim.Vertex) []*netsim.Link {
	prev := map[netsim.Vertex]*netsim.Link{src: nil}
	queue := []netsim.Vertex{src}
	for len(queue) > 0 && prev[dst] == nil {
		v := queue[0]
		queue = queue[1:]
		for _, l := range f.OutLinks(v) {
			if _, seen := prev[l.Dst]; !seen {
				prev[l.Dst] = l
				queue = append(queue, l.Dst)
			}
		}
		if _, ok := prev[dst]; ok {
			break
		}
	}
	back, ok := prev[dst]
	if !ok || back == nil {
		return nil
	}
	var rev []*netsim.Link
	for l := back; l != nil; l = prev[l.Src] {
		rev = append(rev, l)
	}
	path := make([]*netsim.Link, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path
}

// tableRoute reads the route table, reporting a missing route as nil.
func tableRoute(f *netsim.Fabric, src, dst netsim.Vertex) (path []*netsim.Link, ok bool) {
	defer func() {
		if recover() != nil {
			path, ok = nil, false
		}
	}()
	return f.Route(src, dst), true
}

// checkRoutes compares the route table with the per-pair BFS for every
// ordered pair: the same links, pointer for pointer, or no route in both.
func checkRoutes(t *testing.T, name string, f *netsim.Fabric) {
	t.Helper()
	n := f.NumVertices()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			src, dst := netsim.Vertex(s), netsim.Vertex(d)
			want := pairRoute(f, src, dst)
			got, ok := tableRoute(f, src, dst)
			if src != dst && (want == nil) == ok {
				t.Fatalf("%s: %d -> %d routed %v, reference routed %v", name, src, dst, ok, want != nil)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d -> %d is %d hops, reference %d", name, src, dst, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: %d -> %d hop %d is link %d->%d, reference %d->%d", name, src, dst,
						i, got[i].Src, got[i].Dst, want[i].Src, want[i].Dst)
				}
			}
		}
	}
}

// randomFabric builds a seeded random directed graph: ConnectAsym links
// (some parallel, some vertices unreachable from others) plus a few duplex
// cables.
func randomFabric(seed int64) (*netsim.Fabric, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	f := netsim.NewFabric(sim.NewEngine())
	n := 5 + rng.Intn(90)
	for i := 0; i < n; i++ {
		f.AddVertex(fmt.Sprintf("v%d", i))
	}
	for e := 2 * n; e > 0; e-- {
		a, b := netsim.Vertex(rng.Intn(n)), netsim.Vertex(rng.Intn(n))
		if a == b {
			continue
		}
		if rng.Intn(4) == 0 {
			f.Connect(a, b, units.Mbps(100), 1e-4)
		} else {
			f.ConnectAsym(a, b, units.Mbps(100), 1e-4)
		}
	}
	return f, rng
}

// TestRouteTableMatchesPairBFS pins the route table — one BFS per source,
// paths materialized on first read — against the per-pair BFS it replaced
// on the paper's full testbed, a Table 6 web tier, a leaf/spine fabric and
// seeded random graphs, including a Connect made after routes were read.
func TestRouteTableMatchesPairBFS(t *testing.T) {
	checkRoutes(t, "cluster.DefaultConfig", cluster.New(cluster.DefaultConfig()).Fab)

	micro, brawny := hw.BaselinePair()
	full := cluster.Table6For(micro, brawny)[0]
	mt, bt := full.Tier(micro), full.Tier(brawny)
	web := cluster.New(cluster.Config{
		Groups: []cluster.GroupConfig{
			{Platform: micro, Nodes: mt.Web + mt.Cache},
			{Platform: brawny, Nodes: bt.Web + bt.Cache},
		},
		DBNodes: 2, Clients: 8,
	})
	checkRoutes(t, "Table 6 web tier", web.Fab)

	ls, _ := cluster.LeafSpine(sim.NewEngine(), cluster.LeafSpineConfig{Spines: 3, Leaves: 6, HostsPerLeaf: 12})
	checkRoutes(t, "leaf/spine", ls)

	for seed := int64(1); seed <= 12; seed++ {
		f, rng := randomFabric(seed)
		n := f.NumVertices()
		// Read some routes first, so rows and path blocks exist when the
		// topology changes under them.
		for k := 0; k < n; k++ {
			tableRoute(f, netsim.Vertex(rng.Intn(n)), netsim.Vertex(rng.Intn(n)))
		}
		checkRoutes(t, fmt.Sprintf("random seed %d", seed), f)
		a := netsim.Vertex(rng.Intn(n))
		b := (a + 1 + netsim.Vertex(rng.Intn(n-1))) % netsim.Vertex(n)
		f.Connect(a, b, units.Gbps(1), 1e-5)
		checkRoutes(t, fmt.Sprintf("random seed %d after a late Connect", seed), f)
	}
}
