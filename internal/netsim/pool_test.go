package netsim

import (
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// TestFlowRecordsRecycled: records return to the pool when flows finish,
// and a stale ref must report finished without touching the reused record.
func TestFlowRecordsRecycled(t *testing.T) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Mbps(100), 0)
	a, b := f.Vertex("a"), f.Vertex("b")
	ref1 := f.StartFlow(a, b, units.Bytes(1e6), nil)
	eng.Run()
	if !ref1.Finished() {
		t.Fatal("first flow not finished")
	}
	if got := len(f.freeFlows); got != flowChunk {
		t.Fatalf("free list has %d records after completion, want %d", got, flowChunk)
	}
	// The next flow must reuse the recycled record; the stale ref stays dead.
	ref2 := f.StartFlow(a, b, units.Bytes(1e6), nil)
	if ref1.fl != ref2.fl {
		t.Fatal("record not reused from the pool")
	}
	if ref1.Finished() != true || ref2.Finished() {
		t.Fatal("stale ref leaked into the reused record")
	}
	if ref1.Rate() != 0 {
		t.Fatal("dead ref reports a rate")
	}
	eng.Run()
	if !ref2.Finished() {
		t.Fatal("second flow not finished")
	}
}

// TestFlowZeroRefInert: the zero FlowRef is inert.
func TestFlowZeroRefInert(t *testing.T) {
	var r FlowRef
	if r.Finished() || r.Rate() != 0 {
		t.Fatal("zero ref not inert")
	}
}

// BenchmarkFlowChurn measures the per-flow cost of the bulk-transfer path:
// start → water-filling admission → completion. With pooled records the
// steady state does not allocate per flow beyond the engine's own events.
func BenchmarkFlowChurn(b *testing.B) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Gbps(1), 0)
	src, dst := f.Vertex("a"), f.Vertex("b")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.StartFlow(src, dst, units.Bytes(1e6), nil)
		eng.Run()
	}
}

// BenchmarkFlowChurnConcurrent keeps 8 flows in flight per round, the
// shuffle-like shape that stresses reallocation.
func BenchmarkFlowChurnConcurrent(b *testing.B) {
	eng := sim.NewEngine()
	f := lineFabric(eng, units.Gbps(1), 0)
	src, dst := f.Vertex("a"), f.Vertex("b")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			f.StartFlow(src, dst, units.Bytes(1e6), nil)
		}
		eng.Run()
	}
}
