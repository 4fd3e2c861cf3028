package microbench

import (
	"fmt"

	"edisim/internal/cluster"
	"edisim/internal/hw"
	"edisim/internal/netsim"
	"edisim/internal/sim"
	"edisim/internal/units"
)

// MeasureNetwork reproduces the §4.4 iperf3/ping matrix on the testbed:
// brawny→brawny, brawny→micro, and micro→micro TCP transfers of 1 GB, plus
// ping RTTs. UDP rates come from the slower endpoint's measured goodput
// (UDP has no congestion control; iperf UDP just paces at line rate).
func MeasureNetwork(micro, brawny *hw.Platform) []NetworkResult {
	tb := cluster.New(cluster.Config{
		Groups:  []cluster.GroupConfig{{Platform: micro, Nodes: 35}, {Platform: brawny, Nodes: 2}},
		DBNodes: 0, Clients: 0,
	})
	mn := tb.Nodes(micro)
	bn := tb.Nodes(brawny)

	v := func(n *hw.Node) netsim.Vertex { return tb.Fab.Vertex(n.ID) }
	pairs := []struct {
		name     string
		src, dst netsim.Vertex
		udp      units.BytesPerSec
	}{
		{fmt.Sprintf("%s to %s", brawny.Label, brawny.Label), v(bn[0]), v(bn[1]), brawny.Spec.NIC.UDPGoodput},
		{fmt.Sprintf("%s to %s", brawny.Label, micro.Label), v(bn[0]), v(mn[0]), micro.Spec.NIC.UDPGoodput},
		{fmt.Sprintf("%s to %s", micro.Label, micro.Label), v(mn[0]), v(mn[34]), micro.Spec.NIC.UDPGoodput},
	}

	var out []NetworkResult
	for _, p := range pairs {
		var doneAt sim.Time
		start := tb.Eng.Now()
		tb.Fab.StartFlow(p.src, p.dst, iperfBytes, func() { doneAt = tb.Eng.Now() })
		tb.Eng.Run()
		elapsed := float64(doneAt - start)
		if elapsed <= 0 {
			panic(fmt.Sprintf("microbench: zero-time transfer %s", p.name))
		}
		out = append(out, NetworkResult{
			Pair: p.name,
			TCP:  units.BytesPerSec(float64(iperfBytes) / elapsed),
			UDP:  p.udp,
			RTT:  tb.Fab.RTT(p.src, p.dst),
		})
	}
	return out
}
