package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkSchedule measures the schedule→fire round trip: one event is
// always pending, so every iteration exercises a heap push and pop.
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Step()
	}
}

// BenchmarkScheduleDeep measures push/pop with a deep heap (4096 pending
// events), the regime the web sweeps run in.
func BenchmarkScheduleDeep(b *testing.B) {
	e := NewEngine()
	const depth = 4096
	for i := 0; i < depth; i++ {
		e.After(float64(i)+1e6, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Step()
	}
}

// BenchmarkScheduleCancel measures the schedule→cancel churn that
// ProcShare.reschedule and the netsim flow set generate on every
// arrival/departure.
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := e.After(1, func() {})
		ev.Cancel()
	}
	e.Run()
}

// BenchmarkEngineDrain measures bulk scheduling followed by a full drain,
// in batches so the heap repeatedly grows and empties.
func BenchmarkEngineDrain(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	const batch = 1024
	for i := 0; i < b.N; i += batch {
		for j := 0; j < batch; j++ {
			e.After(float64(j%17)+0.001, func() {})
		}
		e.Run()
	}
}

// BenchmarkProcShare measures task submit/complete through the
// processor-sharing CPU, the hot path of every compute call in the models.
func BenchmarkProcShare(b *testing.B) {
	e := NewEngine()
	p := NewProcShare(e, 2, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Submit(1, func() {})
		e.Run()
	}
}

// BenchmarkProcShareCancel measures submit/cancel churn through the pooled
// task records (speculative work torn down before completion).
func BenchmarkProcShareCancel(b *testing.B) {
	e := NewEngine()
	p := NewProcShare(e, 2, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Submit(1, nil).Cancel()
	}
	e.Run()
}

// BenchmarkChainedEvents measures the common event shape of the models:
// about 100 events pending, and each callback schedules one successor a
// short random delay ahead (a message hop scheduling the next hop).
func BenchmarkChainedEvents(b *testing.B) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	var delays [1024]float64
	for i := range delays {
		delays[i] = rng.ExpFloat64() * 1e-3
	}
	k := 0
	var hop func()
	hop = func() {
		k++
		e.After(delays[k%len(delays)], hop)
	}
	for i := 0; i < 100; i++ {
		e.After(delays[i], hop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
