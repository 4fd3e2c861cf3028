// Package cluster assembles testbeds from the hw platform catalog. The
// default configuration is the paper's setup (§3, Figure 1): a 35-node
// Edison cluster packed as five boxes of seven nodes each with a per-box
// switch, a Dell PowerEdge R620 cluster under a top-of-rack switch, two Dell
// database servers, and the client machines — all joined by a core switch.
// Link capacities and propagation delays come from each platform's
// NetworkProfile and reproduce the measured §4.4 numbers for the baseline
// pair: 1.3 ms RTT micro–micro, 0.8 ms brawny–micro, 0.24 ms brawny–brawny,
// and the 1 Gbps aggregate path between the clients' room and the micro
// room that motivates the paper's "20% image" fairness argument.
//
// Any catalog platform can be deployed: a testbed is an ordered list of
// per-platform node groups plus the shared infrastructure tier (database
// servers and load generators) that always runs on the infra platform.
package cluster

import (
	"fmt"

	"edisim/internal/hw"
	"edisim/internal/netsim"
	"edisim/internal/power"
	"edisim/internal/sim"
	"edisim/internal/units"
)

// Group is one platform's node set inside a testbed, with its own power
// instrument (the paper: a Mastech DC supply / an SNMP rack PDU).
type Group struct {
	Platform *hw.Platform
	Nodes    []*hw.Node
	Meter    *power.Meter
}

// Testbed is the full experimental setup on one engine and one fabric.
type Testbed struct {
	Eng *sim.Engine
	Fab *netsim.Fabric

	Groups  []*Group   // per-platform node groups, in Config order
	DB      []*hw.Node // database servers (shared by all groups)
	Clients []string   // client machine vertex names (load generators)

	// Infra is the platform the DB and client tier attaches to (the
	// paper's machine room: always the brawny baseline).
	Infra *hw.Platform
}

// Group returns the node group for a platform, or nil if the testbed has
// none.
func (tb *Testbed) Group(p *hw.Platform) *Group {
	for _, g := range tb.Groups {
		if g.Platform == p {
			return g
		}
	}
	return nil
}

// Nodes returns the platform's nodes (nil when absent).
func (tb *Testbed) Nodes(p *hw.Platform) []*hw.Node {
	if g := tb.Group(p); g != nil {
		return g.Nodes
	}
	return nil
}

// MaxGroupNodes caps one platform group's node count — a sanity bound
// against typo-sized configs. Datacenter-scale sweeps (leaf-spine fleets up
// to ~10k nodes, the ROADMAP north-star) are in range; only clearly absurd
// sizes are rejected. Public-API validation (edisim workload expansion)
// checks against this same constant so oversized scenarios fail with an
// error before reaching the builder's panic.
const MaxGroupNodes = 10000

// GroupConfig sizes one platform's node group.
type GroupConfig struct {
	Platform *hw.Platform
	Nodes    int
}

// Config sizes the testbed.
type Config struct {
	Groups  []GroupConfig
	DBNodes int // database servers, paper uses 2
	Clients int // load generator machines, paper uses 8 httperf + 30 logger
	// Infra hosts the DB/client tier; nil selects the baseline brawny
	// platform (the paper's Dell machine room).
	Infra *hw.Platform
	// Interrupt, when non-nil, is polled by the testbed's engine every few
	// thousand events; returning true stops the run early (sim.Engine's
	// cooperative cancellation — edisim.Run wires the caller's context here
	// so a long faulty simulation honors cancellation mid-run).
	Interrupt func() bool
	// Energy selects the power model armed on every node the builder
	// creates (group, DB); the zero value keeps each platform's calibrated
	// linear model, byte-identical to the seed behavior.
	Energy hw.PowerModelKind
}

// PairConfig sizes a two-group testbed over the baseline pair — the shape
// every paper experiment uses.
func PairConfig(microNodes, brawnyNodes, dbNodes, clients int) Config {
	micro, brawny := hw.BaselinePair()
	return Config{
		Groups:  []GroupConfig{{Platform: micro, Nodes: microNodes}, {Platform: brawny, Nodes: brawnyNodes}},
		DBNodes: dbNodes,
		Clients: clients,
	}
}

// DefaultConfig is the paper's full setup.
func DefaultConfig() Config { return PairConfig(35, 3, 2, 8) }

// New builds a testbed on a fresh engine.
func New(cfg Config) *Testbed {
	eng := sim.NewEngine()
	return NewOn(eng, cfg)
}

// NewOn builds a testbed on an existing engine. Group subtrees are built in
// Config order; the infra root switch is created on demand when no group
// already built it, then the DB and client tiers attach there.
func NewOn(eng *sim.Engine, cfg Config) *Testbed {
	infra := cfg.Infra
	if infra == nil {
		_, infra = hw.BaselinePair()
	}
	if cfg.Interrupt != nil {
		eng.SetInterrupt(cfg.Interrupt)
	}
	tb := &Testbed{Eng: eng, Fab: netsim.NewFabric(eng), Infra: infra}
	f := tb.Fab

	core := f.AddVertex("core")

	// roots maps each built root switch's name to its vertex.
	roots := map[string]netsim.Vertex{}
	buildRoot := func(p *hw.Platform) netsim.Vertex {
		net := p.Net
		sw := f.AddVertex(net.SwitchName)
		f.Connect(sw, core, net.CoreUplink, net.CoreDelay)
		roots[net.SwitchName] = sw
		return sw
	}

	for _, gc := range cfg.Groups {
		p := gc.Platform
		if p == nil {
			panic("cluster: group without a platform")
		}
		if gc.Nodes < 0 || gc.Nodes > MaxGroupNodes {
			panic(fmt.Sprintf("cluster: invalid %s node count %d", p.Name, gc.Nodes))
		}
		if gc.Nodes == 0 {
			continue
		}
		if _, dup := roots[p.Net.SwitchName]; dup {
			panic(fmt.Sprintf("cluster: duplicate group for %s", p.Name))
		}
		root := buildRoot(p)

		net := p.Net
		var leaves []netsim.Vertex
		if net.LeafFanout > 0 {
			nLeaves := (gc.Nodes + net.LeafFanout - 1) / net.LeafFanout
			for b := 0; b < nLeaves; b++ {
				sw := f.AddVertex(fmt.Sprintf("%s%d", net.LeafPrefix, b))
				f.Connect(sw, root, net.LeafUplink, net.LeafUplinkDelay)
				leaves = append(leaves, sw)
			}
		}
		g := &Group{Platform: p}
		for i := 0; i < gc.Nodes; i++ {
			name := fmt.Sprintf(net.HostFormat, i)
			v := f.AddVertex(name)
			attach := root
			if net.LeafFanout > 0 {
				attach = leaves[i/net.LeafFanout]
			}
			f.Connect(v, attach, p.Spec.NIC.TCPGoodput, net.AccessDelay)
			n := hw.NewNode(eng, p.Spec, name)
			if cfg.Energy != hw.PowerLinear {
				n.SetPowerModel(p.PowerModelFor(cfg.Energy))
			}
			g.Nodes = append(g.Nodes, n)
		}
		tb.Groups = append(tb.Groups, g)
	}

	// --- Infrastructure tier: DB servers and clients under the infra
	// platform's root switch (the paper's Dell machine room, which exists
	// even in micro-only deployments).
	infraRoot, ok := roots[infra.Net.SwitchName]
	if !ok {
		infraRoot = buildRoot(infra)
	}
	for i := 0; i < cfg.DBNodes; i++ {
		name := fmt.Sprintf("db%d", i)
		f.Connect(f.AddVertex(name), infraRoot, infra.Spec.NIC.TCPGoodput, infra.Net.AccessDelay)
		n := hw.NewNode(eng, infra.Spec, name)
		if cfg.Energy != hw.PowerLinear {
			n.SetPowerModel(infra.PowerModelFor(cfg.Energy))
		}
		tb.DB = append(tb.DB, n)
	}
	// Clients: each with its own 1 Gbps-class access link.
	for i := 0; i < cfg.Clients; i++ {
		name := fmt.Sprintf("client%d", i)
		f.Connect(f.AddVertex(name), infraRoot, units.Mbps(942), infra.Net.AccessDelay)
		tb.Clients = append(tb.Clients, name)
	}

	for _, g := range tb.Groups {
		g.Meter = power.NewMeter(g.Platform.MeterName, g.Nodes)
	}
	return tb
}

// PowerState is one row of Table 3.
type PowerState struct {
	Label      string
	Idle, Busy units.Watts
}

// Table3 reproduces the paper's measured power states from the baseline
// pair's specs.
func Table3() []PowerState {
	micro, brawny := hw.BaselinePair()
	e := micro.Spec.Power
	d := brawny.Spec.Power
	bare := hw.PowerSpec{Idle: e.Idle, Busy: e.Busy}
	rows := []PowerState{
		{fmt.Sprintf("1 %s without Ethernet adaptor", micro.Label), bare.IdleDraw(), bare.BusyDraw()},
		{fmt.Sprintf("1 %s with Ethernet adaptor", micro.Label), e.IdleDraw(), e.BusyDraw()},
		{fmt.Sprintf("%s cluster of 35 nodes", micro.Label), 35 * e.IdleDraw(), 35 * e.BusyDraw()},
		{fmt.Sprintf("1 %s server", brawny.Label), d.IdleDraw(), d.BusyDraw()},
		{fmt.Sprintf("%s cluster of 3 nodes", brawny.Label), 3 * d.IdleDraw(), 3 * d.BusyDraw()},
	}
	return rows
}

// WebTier is one platform's web/cache contribution at a scale factor.
type WebTier struct {
	Platform   *hw.Platform
	Web, Cache int
}

// WebScale is a row of Table 6: how many web/cache servers each cluster
// contributes at each scale factor. Tiers are ordered micro then brawny.
type WebScale struct {
	Name  string
	Tiers []WebTier
}

// Tier returns the row's tier for a platform (zero sizes when absent).
func (s WebScale) Tier(p *hw.Platform) WebTier {
	for _, t := range s.Tiers {
		if t.Platform == p {
			return t
		}
	}
	return WebTier{Platform: p}
}

// Table6 returns the paper's cluster scale configurations over the
// baseline pair.
func Table6() []WebScale {
	return Table6For(hw.BaselinePair())
}

// Table6For returns the paper's scale ladder over an arbitrary compared
// pair (the tier sizes are the paper's; the platforms are the caller's).
func Table6For(micro, brawny *hw.Platform) []WebScale {
	return []WebScale{
		{Name: "full", Tiers: []WebTier{{micro, 24, 11}, {brawny, 2, 1}}},
		{Name: "1/2", Tiers: []WebTier{{micro, 12, 6}, {brawny, 1, 1}}},
		{Name: "1/4", Tiers: []WebTier{{micro, 6, 3}}},
		{Name: "1/8", Tiers: []WebTier{{micro, 3, 2}}},
	}
}
