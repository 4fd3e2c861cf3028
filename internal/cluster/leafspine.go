package cluster

import (
	"fmt"

	"edisim/internal/netsim"
	"edisim/internal/sim"
	"edisim/internal/units"
)

// LeafSpineConfig sizes a generic datacenter leaf-spine fabric: Leaves leaf
// switches, each with HostsPerLeaf hosts on access links, every leaf
// connected to every spine. This is the scale-out shape the paper's testbed
// grows into past its five-boxes-and-a-core layout (§3) — the topology the
// datacenter-scale benchmarks and the ROADMAP's million-user fleets run on.
type LeafSpineConfig struct {
	Spines, Leaves, HostsPerLeaf int

	HostLink units.BytesPerSec // host access capacity; 0 means 1 Gbps
	Uplink   units.BytesPerSec // each leaf-spine link; 0 means 10 Gbps

	AccessDelay float64 // host-leaf propagation; 0 means 0.02 ms
	UplinkDelay float64 // leaf-spine propagation; 0 means 0.01 ms
}

func (c LeafSpineConfig) withDefaults() LeafSpineConfig {
	if c.HostLink == 0 {
		c.HostLink = units.Gbps(1)
	}
	if c.Uplink == 0 {
		c.Uplink = units.Gbps(10)
	}
	if c.AccessDelay == 0 {
		c.AccessDelay = 0.02e-3
	}
	if c.UplinkDelay == 0 {
		c.UplinkDelay = 0.01e-3
	}
	return c
}

// LeafSpine builds the leaf-spine fabric on the engine and returns it with
// the host vertices, leaf-major (named "h<leaf>-<index>"). Host counts are
// bounded by Leaves × HostsPerLeaf ≤ MaxGroupNodes, the same sanity cap as
// testbed groups.
func LeafSpine(eng *sim.Engine, cfg LeafSpineConfig) (*netsim.Fabric, []netsim.Vertex) {
	cfg = cfg.withDefaults()
	if cfg.Spines <= 0 || cfg.Leaves <= 0 || cfg.HostsPerLeaf <= 0 {
		panic(fmt.Sprintf("cluster: leaf-spine needs positive dimensions, got %d/%d/%d",
			cfg.Spines, cfg.Leaves, cfg.HostsPerLeaf))
	}
	if n := cfg.Leaves * cfg.HostsPerLeaf; n > MaxGroupNodes {
		panic(fmt.Sprintf("cluster: leaf-spine host count %d exceeds group cap %d", n, MaxGroupNodes))
	}
	f := netsim.NewFabric(eng)
	spines := make([]netsim.Vertex, cfg.Spines)
	for s := range spines {
		spines[s] = f.AddVertex(fmt.Sprintf("spine%d", s))
	}
	hosts := make([]netsim.Vertex, 0, cfg.Leaves*cfg.HostsPerLeaf)
	for l := 0; l < cfg.Leaves; l++ {
		leaf := f.AddVertex(fmt.Sprintf("leaf%d", l))
		for _, spine := range spines {
			f.Connect(leaf, spine, cfg.Uplink, cfg.UplinkDelay)
		}
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			host := f.AddVertex(fmt.Sprintf("h%d-%d", l, h))
			f.Connect(host, leaf, cfg.HostLink, cfg.AccessDelay)
			hosts = append(hosts, host)
		}
	}
	return f, hosts
}
