package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

// Span names: one per public call the benchmark times.
const (
	spanClusterBuild = "cluster.build"
	spanWebDeploy    = "web.deploy"
	spanWebWarm      = "web.warm"
	spanWebRun       = "web.run"
	spanJobsDeploy   = "jobs.deploy"
	spanHDFSStage    = "hdfs.stage"
	spanMapredRun    = "mapred.run"
)

var spanNames = []string{spanClusterBuild, spanWebDeploy, spanWebWarm, spanWebRun, spanJobsDeploy, spanHDFSStage, spanMapredRun}

type spanStat struct{ ns, allocBytes float64 }

// tracer times the calls of one point. Untraced it only sums the set-up
// calls; traced it also records every span's time and allocated bytes.
type tracer struct {
	traced bool
	setup  time.Duration
	spans  map[string]*spanStat
}

func (t *tracer) span(name string, setup bool, fn func()) {
	var m0, m1 runtime.MemStats
	if t.traced {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	if setup {
		t.setup += d
	}
	if !t.traced {
		return
	}
	runtime.ReadMemStats(&m1)
	s := t.spans[name]
	if s == nil {
		s = &spanStat{}
		t.spans[name] = s
	}
	s.ns += float64(d)
	s.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
}

// pass is one run over every point of a workload.
type pass struct {
	pointNS  []float64 // host time per point, set-up included
	setupNS  []float64
	outcomes []outcome
	errs     []error
	// Runtime counters over the points alone, leaving out the collections
	// and calibration between them.
	alloc     float64 // bytes allocated
	mallocs   float64
	gcCycles  float64
	gcPauseNS float64
	spans     map[string]*spanStat
	profile   map[string]int64 // CPU samples per layer (traced passes)
	// calNS is the time calRuns calibration kernels took between points.
	calNS   float64
	calRuns int
}

// speed is how much slower than the reference machine this pass ran.
func (p *pass) speed() float64 { return p.calNS / (float64(p.calRuns) * float64(calNominal)) }

// calPerPass is how many calibration kernels a pass runs in all, spread
// evenly before its points.
const calPerPass = 40

var cal = newCalState()

// runPoint runs one point, turning a panic into an error.
func runPoint(pt point, tr *tracer) (o outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return pt.run(tr)
}

func runPass(pts []point, traced, keepRaw bool) (*pass, error) {
	p := &pass{spans: map[string]*spanStat{}}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	slice := (calPerPass + len(pts) - 1) / len(pts)
	for _, pt := range pts {
		tr := &tracer{traced: traced, spans: p.spans}
		for k := 0; k < slice; k++ {
			p.calNS += float64(cal.run())
			p.calRuns++
		}
		runtime.GC() // every point starts from the same heap state
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		o, err := runPoint(pt, tr)
		p.pointNS = append(p.pointNS, float64(time.Since(start)))
		runtime.ReadMemStats(&m1)
		p.setupNS = append(p.setupNS, float64(tr.setup))
		p.alloc += float64(m1.TotalAlloc - m0.TotalAlloc)
		p.mallocs += float64(m1.Mallocs - m0.Mallocs)
		p.gcCycles += float64(m1.NumGC - m0.NumGC)
		p.gcPauseNS += float64(m1.PauseTotalNs - m0.PauseTotalNs)
		if !keepRaw {
			o.raw = nil // measured passes keep no results alive
		}
		p.outcomes = append(p.outcomes, o)
		if err != nil {
			err = fmt.Errorf("%s: %w", pt.name, err)
		}
		p.errs = append(p.errs, err)
	}
	if traced {
		pprof.StopCPUProfile()
		b, err := profileBuckets(prof.Bytes())
		if err != nil {
			return nil, err
		}
		p.profile = b
	}
	return p, nil
}

// options selects one benchmark run.
type options struct {
	workload workload
	seed     int64
	budget   time.Duration // time spent in measured passes
	traced   bool
	ledger   ledger
}

// minPasses is the fewest measured passes of each kind a run makes, so
// every median has company even when one pass outlasts the budget.
const minPasses = 3

// summary is a finished run.
type summary struct {
	attempted, failed int
	passes            int
	metrics           map[string]float64
	paperErr          float64 // NaN where the workload has no paper reference
	rawWall, speed    float64 // unscaled wall_s and the median pass speed
	problems          []string
}

func (s *summary) fail(format string, args ...any) {
	s.failed++
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// bench runs one workload: a reference pass, which also warms the process
// and is checked against the paper ledger; a determinism re-run of its
// cheapest point; then measured passes until the budget is spent (traced
// runs alternate untraced and traced passes).
func bench(opt options) (*summary, error) {
	w := opt.workload
	pts := w.points(opt.seed)
	s := &summary{paperErr: math.NaN(), metrics: map[string]float64{}}

	ref, err := runPass(pts, false, true)
	if err != nil {
		return nil, err
	}
	s.attempted += len(pts)
	refOK := true
	for _, e := range ref.errs {
		if e != nil {
			refOK = false
			s.fail("%v", e)
		}
	}
	if refOK && w.compare != nil {
		raws := make([]any, len(ref.outcomes))
		for i, o := range ref.outcomes {
			raws[i] = o.raw
		}
		comps, err := opt.ledger.resolve(w.compare(opt.seed, raws))
		if err != nil {
			return nil, err
		}
		if s.paperErr, err = paperErr(comps); err != nil {
			s.fail("%v", err)
		}
		if opt.seed == 1 {
			for _, msg := range opt.ledger.pin(comps) {
				s.fail("seed-1 fidelity pin: %s", msg)
			}
		}
	}

	// Determinism: the cheapest point again, in the same process.
	cheapest := 0
	for i, ns := range ref.pointNS {
		if ns < ref.pointNS[cheapest] {
			cheapest = i
		}
	}
	again, err := runPoint(pts[cheapest], &tracer{})
	s.attempted++
	if err != nil || ref.errs[cheapest] != nil || again.fingerprint != ref.outcomes[cheapest].fingerprint {
		s.fail("determinism: %s differs on a second run (%v)", pts[cheapest].name, err)
	}

	var plain, traced []*pass
	start := time.Now()
	for len(plain) < minPasses || (opt.traced && len(traced) < minPasses) || time.Since(start) < opt.budget {
		doTrace := opt.traced && len(traced) < len(plain)
		p, err := runPass(pts, doTrace, false)
		if err != nil {
			return nil, err
		}
		s.attempted += len(pts)
		for i, e := range p.errs {
			switch {
			case e != nil:
				s.fail("%v", e)
			case p.outcomes[i].fingerprint != ref.outcomes[i].fingerprint:
				s.fail("determinism: %s differs from the reference pass", pts[i].name)
			}
		}
		if doTrace {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	s.passes = len(plain) + len(traced)

	if opt.traced {
		perLayerMetrics(s.metrics, ref, plain, traced)
	} else {
		s.metrics["wall_s"] = sumOfMedians(plain, func(p *pass) []float64 { return scaled(p, p.pointNS) }) / 1e9
		s.metrics["setup_s"] = sumOfMedians(plain, func(p *pass) []float64 { return scaled(p, p.setupNS) }) / 1e9
		s.rawWall = sumOfMedians(plain, func(p *pass) []float64 { return p.pointNS }) / 1e9
		s.speed = medianOf(plain, (*pass).speed)
		s.metrics["alloc_mb"] = medianOf(plain, func(p *pass) float64 { return p.alloc }) / 1e6
		s.metrics["peak_rss_mb"] = peakRSSBytes() / 1e6
	}
	return s, nil
}

// scaled converts a pass's host times to the reference machine speed.
func scaled(p *pass, ns []float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = v / p.speed()
	}
	return out
}

// sumOfMedians estimates one pass's total as the sum over points of each
// point's median across passes, so one disturbed point in one pass does not
// move the figure.
func sumOfMedians(ps []*pass, per func(*pass) []float64) float64 {
	total := 0.0
	for i := range per(ps[0]) {
		xs := make([]float64, len(ps))
		for k, p := range ps {
			xs[k] = per(p)[i]
		}
		total += median(xs)
	}
	return total
}

func medianOf(ps []*pass, f func(*pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perLayerMetrics fills the traced run's metrics. Span times, scaled to the
// reference machine speed, and CPU shares come from the traced passes;
// runtime counters from the untraced ones, which the profiler and span
// bookkeeping do not disturb; simulated counts from the reference pass
// (every pass repeats them exactly).
func perLayerMetrics(m map[string]float64, ref *pass, plain, traced []*pass) {
	for _, name := range spanNames {
		m[name+"_ms"] = medianOf(traced, func(p *pass) float64 { return spanOf(p, name).ns / p.speed() }) / 1e6
		m[name+"_alloc_mb"] = medianOf(traced, func(p *pass) float64 { return spanOf(p, name).allocBytes }) / 1e6
	}

	var t outcome
	for _, o := range ref.outcomes {
		t.events += o.events
		t.netBytes += o.netBytes
		t.ops += o.ops
		t.energyJ += o.energyJ
		t.replies += o.replies
		t.errors += o.errors
		t.shed += o.shed
		t.attempts += o.attempts
		t.offered += o.offered
		t.actions += o.actions
		t.hitReplies += o.hitReplies
		t.tasks += o.tasks
		t.taskAttempts += o.taskAttempts
		t.mapTasks += o.mapTasks
		t.localMaps += o.localMaps
		t.shuffleBytes += o.shuffleBytes
	}
	events := float64(t.events)
	m["sim.events"] = events
	m["sim.ns_per_event"] = medianOf(traced, func(p *pass) float64 {
		return (spanOf(p, spanWebRun).ns + spanOf(p, spanMapredRun).ns) / p.speed() / events
	})
	m["sim.events_per_op"] = ratio(events, t.ops)
	m["netsim.bytes_per_op"] = ratio(t.netBytes, t.ops)
	m["web.replies"] = t.replies
	m["web.attempts_per_reply"] = ratio(t.attempts, t.replies)
	m["web.shed_frac"] = ratio(t.shed, t.replies+t.errors+t.shed)
	m["web.error_frac"] = ratio(t.errors, t.replies+t.errors)
	m["web.cache_hit"] = ratio(t.hitReplies, t.replies)
	m["load.offered"] = t.offered
	m["autoscale.actions"] = t.actions
	m["mapred.tasks"] = t.tasks
	m["mapred.attempts_per_task"] = ratio(t.taskAttempts, t.tasks)
	m["mapred.local_frac"] = ratio(t.localMaps, t.mapTasks)
	m["mapred.shuffle_gb"] = t.shuffleBytes / 1e9
	m["power.sim_kj"] = t.energyJ / 1e3

	m["runtime.allocs_per_event"] = medianOf(plain, func(p *pass) float64 { return p.mallocs }) / events
	m["runtime.gc_cycles"] = medianOf(plain, func(p *pass) float64 { return p.gcCycles })
	m["runtime.gc_pause_ms"] = medianOf(plain, func(p *pass) float64 { return p.gcPauseNS }) / 1e6

	samples := map[string]int64{}
	var total int64
	for _, p := range traced {
		for l, n := range p.profile {
			if l != "harness" {
				samples[l] += n
				total += n
			}
		}
	}
	for _, l := range []string{"sim", "netsim", "hw", "web", "load", "autoscale", "mapred", "power", "stats"} {
		m[l+".cpu_frac"] = ratio(float64(samples[l]), float64(total))
	}
	m["runtime.gc_cpu_frac"] = ratio(float64(samples["runtime"]), float64(total))

	tracedNS := sumOfMedians(traced, func(p *pass) []float64 { return scaled(p, p.pointNS) })
	plainNS := sumOfMedians(plain, func(p *pass) []float64 { return scaled(p, p.pointNS) })
	m["trace.overhead_frac"] = tracedNS/plainNS - 1
}

func spanOf(p *pass, name string) spanStat {
	if s := p.spans[name]; s != nil {
		return *s
	}
	return spanStat{}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSBytes is the process's peak resident set (getrusage ru_maxrss,
// kilobytes on Linux).
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024
}
