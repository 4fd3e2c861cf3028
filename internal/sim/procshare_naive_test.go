package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestProcShareMatchesNaiveOracle drives both implementations with an
// identical randomized workload (staggered arrivals, varying sizes) and
// requires identical completion times to within numerical tolerance.
func TestProcShareMatchesNaiveOracle(t *testing.T) {
	type arrival struct {
		at   float64
		work float64
	}
	run := func(arrivals []arrival, fast bool) []float64 {
		eng := NewEngine()
		var times []float64
		collect := func() { times = append(times, float64(eng.Now())) }
		if fast {
			p := NewProcShare(eng, 3, 100)
			for _, a := range arrivals {
				a := a
				eng.At(Time(a.at), func() { p.Submit(a.work, collect) })
			}
		} else {
			p := NewNaiveProcShare(eng, 3, 100)
			for _, a := range arrivals {
				a := a
				eng.At(Time(a.at), func() { p.Submit(a.work, collect) })
			}
		}
		eng.Run()
		return times
	}
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		var arrivals []arrival
		for i, r := range raw {
			arrivals = append(arrivals, arrival{
				at:   float64(i%7) * 0.25,
				work: float64(r%5000)/10 + 1,
			})
		}
		a := run(arrivals, true)
		b := run(arrivals, false)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			tol := 1e-6 * (1 + math.Abs(b[i]))
			if math.Abs(a[i]-b[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveProcShareBasic(t *testing.T) {
	eng := NewEngine()
	p := NewNaiveProcShare(eng, 1, 100)
	var t1, t2 Time
	p.Submit(100, func() { t1 = eng.Now() })
	p.Submit(100, func() { t2 = eng.Now() })
	eng.Run()
	if !almost(float64(t1), 2.0, 1e-9) || !almost(float64(t2), 2.0, 1e-9) {
		t.Fatalf("naive PS: %v, %v, want 2.0 both", t1, t2)
	}
	if p.Active() != 0 {
		t.Fatal("tasks left behind")
	}
}

// benchPS measures event-processing cost with n concurrent tasks.
func benchPS(b *testing.B, n int, fast bool) {
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		if fast {
			p := NewProcShare(eng, 4, 100)
			for j := 0; j < n; j++ {
				p.Submit(float64(j%17)+1, nil)
			}
		} else {
			p := NewNaiveProcShare(eng, 4, 100)
			for j := 0; j < n; j++ {
				p.Submit(float64(j%17)+1, nil)
			}
		}
		eng.Run()
	}
}

// Ablation: virtual-time PS vs naive rescan PS, 1000 concurrent tasks.
func BenchmarkAblation_ProcShareVirtualTime_1000(b *testing.B) { benchPS(b, 1000, true) }
func BenchmarkAblation_ProcShareNaive_1000(b *testing.B)       { benchPS(b, 1000, false) }
