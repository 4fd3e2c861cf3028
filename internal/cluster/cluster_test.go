package cluster

import (
	"math"
	"testing"

	"edisim/internal/hw"
	"edisim/internal/netsim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func pair() (micro, brawny *hw.Platform) { return hw.BaselinePair() }

func TestTestbedSizes(t *testing.T) {
	micro, brawny := pair()
	tb := New(DefaultConfig())
	if len(tb.Nodes(micro)) != 35 || len(tb.Nodes(brawny)) != 3 || len(tb.DB) != 2 || len(tb.Clients) != 8 {
		t.Fatalf("sizes: %d micro, %d brawny, %d db, %d clients",
			len(tb.Nodes(micro)), len(tb.Nodes(brawny)), len(tb.DB), len(tb.Clients))
	}
}

// route and rtt look up the testbed's route and RTT between two named
// vertices.
func route(tb *Testbed, a, b string) []*netsim.Link {
	return tb.Fab.Route(tb.Fab.Vertex(a), tb.Fab.Vertex(b))
}

func rtt(tb *Testbed, a, b string) float64 {
	return tb.Fab.RTT(tb.Fab.Vertex(a), tb.Fab.Vertex(b))
}

func TestMeasuredRTTsMatchSection44(t *testing.T) {
	micro, brawny := pair()
	tb := New(DefaultConfig())
	mn, bn := tb.Nodes(micro), tb.Nodes(brawny)
	// Micro <-> micro across boxes: paper measures ≈1.3 ms.
	ee := rtt(tb, mn[0].ID, mn[34].ID)
	if ee < 1.0e-3 || ee > 1.5e-3 {
		t.Errorf("micro-micro RTT %.2fms, want ≈1.3ms", ee*1e3)
	}
	// Brawny <-> brawny: ≈0.24 ms.
	dd := rtt(tb, bn[0].ID, bn[1].ID)
	if dd < 0.20e-3 || dd > 0.30e-3 {
		t.Errorf("brawny-brawny RTT %.2fms, want ≈0.24ms", dd*1e3)
	}
	// Brawny <-> micro: ≈0.8 ms.
	de := rtt(tb, bn[0].ID, mn[0].ID)
	if de < 0.6e-3 || de > 1.0e-3 {
		t.Errorf("brawny-micro RTT %.2fms, want ≈0.8ms", de*1e3)
	}
}

func TestClusterIdlePowerMatchesTable3(t *testing.T) {
	micro, brawny := pair()
	tb := New(DefaultConfig())
	if got := float64(tb.Group(micro).Meter.Power()); !almost(got, 49.0, 0.01) {
		t.Errorf("micro cluster idle power %.2fW, want 49.0W", got)
	}
	if got := float64(tb.Group(brawny).Meter.Power()); !almost(got, 156, 0.01) {
		t.Errorf("brawny cluster idle power %.2fW, want 156W", got)
	}
}

func TestTable3Rows(t *testing.T) {
	rows := Table3()
	want := []struct{ idle, busy float64 }{
		{0.36, 0.75}, {1.40, 1.68}, {49.0, 58.8}, {52, 109}, {156, 327},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, w := range want {
		if !almost(float64(rows[i].Idle), w.idle, 1e-6) || !almost(float64(rows[i].Busy), w.busy, 1e-6) {
			t.Errorf("row %q: %.2f/%.2f, want %.2f/%.2f",
				rows[i].Label, float64(rows[i].Idle), float64(rows[i].Busy), w.idle, w.busy)
		}
	}
}

func TestTable6Configuration(t *testing.T) {
	micro, brawny := pair()
	rows := Table6()
	full := rows[0]
	mt, bt := full.Tier(micro), full.Tier(brawny)
	if mt.Web != 24 || mt.Cache != 11 || bt.Web != 2 || bt.Cache != 1 {
		t.Fatalf("full-scale row wrong: %+v", full)
	}
	// Web servers ≈ 2× cache servers throughout (paper's provisioning rule).
	for _, r := range rows {
		mt := r.Tier(micro)
		if mt.Cache > 0 && (mt.Web < mt.Cache || mt.Web > 3*mt.Cache) {
			t.Errorf("scale %s: web/cache ratio off: %d/%d", r.Name, mt.Web, mt.Cache)
		}
	}
}

func TestMicroUplinkIsBottleneck(t *testing.T) {
	// The client room reaches the micro room through a single 1 Gbps path;
	// each individual link to a brawny host is also ≈1 Gbps. Verify topology
	// wiring by comparing hop counts.
	micro, brawny := pair()
	tb := New(DefaultConfig())
	pEd := route(tb, "client0", tb.Nodes(micro)[0].ID)
	pDl := route(tb, "client0", tb.Nodes(brawny)[0].ID)
	if len(pEd) <= len(pDl) {
		t.Fatalf("micro path (%d hops) should be longer than brawny path (%d hops)",
			len(pEd), len(pDl))
	}
}

func TestScaledDownCluster(t *testing.T) {
	micro, brawny := pair()
	tb := New(Config{
		Groups:  []GroupConfig{{Platform: micro, Nodes: 8}, {Platform: brawny, Nodes: 1}},
		DBNodes: 2, Clients: 4,
	})
	if len(tb.Nodes(micro)) != 8 || len(tb.Nodes(brawny)) != 1 {
		t.Fatal("scaled config not honored")
	}
	// All nodes still mutually routable.
	route(tb, tb.Nodes(micro)[7].ID, tb.DB[1].ID)
	route(tb, tb.Nodes(micro)[0].ID, tb.Nodes(micro)[7].ID)
}

func TestNodesUseCorrectSpecs(t *testing.T) {
	micro, brawny := pair()
	tb := New(DefaultConfig())
	if tb.Nodes(micro)[0].Spec.Name != micro.Spec.Name {
		t.Fatal("micro node has wrong spec")
	}
	if tb.Nodes(brawny)[0].Spec.CPU.Cores != 6 {
		t.Fatal("brawny node has wrong spec")
	}
}

// TestAnyCatalogPlatformDeploys: the testbed builder must handle every
// catalog entry — leaf-switched or flat — with DB/client infra present.
func TestAnyCatalogPlatformDeploys(t *testing.T) {
	for _, p := range hw.Platforms() {
		tb := New(Config{
			Groups:  []GroupConfig{{Platform: p, Nodes: 9}},
			DBNodes: 1, Clients: 2,
		})
		nodes := tb.Nodes(p)
		if len(nodes) != 9 {
			t.Fatalf("%s: %d nodes", p.Name, len(nodes))
		}
		// Mutually routable and reachable from infra.
		route(tb, nodes[0].ID, nodes[8].ID)
		route(tb, "client0", nodes[0].ID)
		route(tb, nodes[8].ID, tb.DB[0].ID)
		if g := tb.Group(p); g.Meter == nil {
			t.Fatalf("%s: no meter", p.Name)
		}
	}
}

// TestInfraSwitchNotDuplicated: deploying a group on the infra platform
// must reuse its root switch rather than panicking or double-adding.
func TestInfraSwitchNotDuplicated(t *testing.T) {
	_, brawny := pair()
	tb := New(Config{
		Groups:  []GroupConfig{{Platform: brawny, Nodes: 3}},
		DBNodes: 2, Clients: 2,
	})
	route(tb, tb.Nodes(brawny)[0].ID, tb.DB[1].ID)
}
