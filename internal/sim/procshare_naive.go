package sim

// NaiveProcShare is a reference implementation of egalitarian processor
// sharing that rescans every task on each arrival/departure: O(n) per event
// versus ProcShare's O(log n) virtual-time scheme. It exists as the
// correctness oracle for the equivalence property test and as the baseline
// for BenchmarkAblation_ProcShareNaive_1000 (against
// BenchmarkAblation_ProcShareVirtualTime_1000); simulations use ProcShare.
type NaiveProcShare struct {
	eng   *Engine
	cores float64
	speed float64

	tasks    []*naiveTask
	lastT    Time
	nextDone EventRef
}

type naiveTask struct {
	remaining float64
	done      func()
}

// NewNaiveProcShare mirrors NewProcShare.
func NewNaiveProcShare(eng *Engine, cores, speedPerCore float64) *NaiveProcShare {
	if cores <= 0 || speedPerCore <= 0 {
		panic("sim: NaiveProcShare needs positive cores and speed")
	}
	return &NaiveProcShare{eng: eng, cores: cores, speed: speedPerCore, lastT: eng.Now()}
}

func (p *NaiveProcShare) rate() float64 {
	m := float64(len(p.tasks))
	if m == 0 {
		return 0
	}
	if m <= p.cores {
		return p.speed
	}
	return p.speed * p.cores / m
}

// advance credits elapsed service to every task.
func (p *NaiveProcShare) advance() {
	now := p.eng.Now()
	dt := float64(now - p.lastT)
	p.lastT = now
	if dt <= 0 {
		return
	}
	served := dt * p.rate()
	for _, t := range p.tasks {
		t.remaining -= served
	}
}

// Submit mirrors ProcShare.Submit.
func (p *NaiveProcShare) Submit(work float64, done func()) {
	if work < 0 {
		panic("sim: negative work")
	}
	p.advance()
	p.tasks = append(p.tasks, &naiveTask{remaining: work, done: done})
	p.reschedule()
}

func (p *NaiveProcShare) reschedule() {
	p.nextDone.Cancel()
	p.nextDone = EventRef{}
	if len(p.tasks) == 0 {
		return
	}
	min := p.tasks[0].remaining
	for _, t := range p.tasks[1:] {
		if t.remaining < min {
			min = t.remaining
		}
	}
	if min < 0 {
		min = 0
	}
	p.nextDone = p.eng.After(min/p.rate(), p.complete)
}

func (p *NaiveProcShare) complete() {
	p.nextDone = EventRef{}
	p.advance()
	eps := 1e-9 * (1 + absf(p.servedScale()))
	var finished []*naiveTask
	var live []*naiveTask
	for _, t := range p.tasks {
		if t.remaining <= eps {
			finished = append(finished, t)
		} else {
			live = append(live, t)
		}
	}
	p.tasks = live
	p.reschedule()
	for _, t := range finished {
		if t.done != nil {
			t.done()
		}
	}
}

// servedScale estimates the magnitude of accumulated service for a relative
// epsilon, mirroring ProcShare's livelock guard.
func (p *NaiveProcShare) servedScale() float64 {
	return float64(p.eng.Now()) * p.speed
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Active reports in-flight tasks.
func (p *NaiveProcShare) Active() int { return len(p.tasks) }
