package main

import (
	"fmt"
	"math"

	"edisim/internal/autoscale"
	"edisim/internal/cluster"
	"edisim/internal/core"
	"edisim/internal/hw"
	"edisim/internal/jobs"
	"edisim/internal/load"
	"edisim/internal/mapred"
	"edisim/internal/report"
	"edisim/internal/web"
)

// point is one simulation of a workload: a fresh testbed built, loaded and
// run through the public layer calls, each inside a span.
type point struct {
	name string
	run  func(tr *tracer) (outcome, error)
}

// workload is a named list of points plus the paper comparisons its
// outputs support (nil when it has none).
type workload struct {
	name    string
	points  func(seed int64) []point
	compare func(seed int64, raws []any) []report.Comparison
}

var workloads = []workload{
	{name: "web_closed", points: webClosedPoints, compare: webClosedComparisons},
	{name: "hadoop_jobs", points: hadoopPoints, compare: hadoopComparisons},
	{name: "web_open", points: webOpenPoints},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is what one point leaves behind: the layer counters read after
// its calls, the raw result for paper comparisons, and a fingerprint of
// every simulated output for the determinism checks.
type outcome struct {
	raw    any
	events uint64
	// netBytes is netsim.Fabric.TotalBytes: bytes carried, each hop counted.
	netBytes float64
	ops      float64 // settled requests (web) or task attempts (Hadoop)
	energyJ  float64

	// Web request accounting, in the measurement window.
	replies, errors, shed, attempts, offered, actions, hitReplies float64

	// Hadoop accounting.
	tasks, taskAttempts, mapTasks, localMaps, shuffleBytes float64

	fingerprint string
}

// --- web_closed -------------------------------------------------------------

// webClosedPoints rebuilds the cmd/paper -quick grids behind Figures 4-9 and
// Table 7 in their sweep order, with the seeds core.Sweep derives, so seed 1
// runs exactly the simulations cmd/paper -quick -seed 1 runs.
func webClosedPoints(seed int64) []point {
	cfg := core.Config{Seed: seed, Quick: true}
	micro, brawny := hw.BaselinePair()
	full := cluster.Table6For(micro, brawny)[0]
	mt, bt := full.Tier(micro), full.Tier(brawny)
	concs := []float64{64, 512, 1024}
	const dur = 4 // the -quick web window

	var pts []point
	add := func(sweep string, i int, p *hw.Platform, tier cluster.WebTier, rc web.RunConfig) {
		s := cfg.PointSeed(sweep, i)
		pts = append(pts, point{
			name: fmt.Sprintf("%s/%d", sweep, i),
			run:  func(tr *tracer) (outcome, error) { return runWebPoint(tr, p, tier.Web, tier.Cache, rc, s) },
		})
	}
	curves := func(sweep string, image float64, hits ...float64) {
		i := 0
		for _, hit := range hits {
			for _, c := range []struct {
				p    *hw.Platform
				tier cluster.WebTier
			}{{micro, mt}, {brawny, bt}} {
				for _, conc := range concs {
					add(sweep, i, c.p, c.tier, web.RunConfig{Concurrency: conc, ImageFrac: image, CacheHit: hit, Duration: dur})
					i++
				}
			}
		}
	}
	curves("fig4_fig7", 0, 0.93)
	curves("fig5_fig8", 0, 0.77, 0.60)
	curves("fig6_fig9", 0.20, 0.93)
	for i := 0; i < 4; i++ {
		rate := table7Rates[i/2]
		rc := web.RunConfig{Concurrency: rate / 8, ImageFrac: 0.20, CacheHit: 0.93, Duration: dur}
		if i%2 == 0 {
			add("table7", i, micro, mt, rc)
		} else {
			add("table7", i, brawny, bt, rc)
		}
	}
	return pts
}

var table7Rates = []float64{480, 3840}

// runWebPoint is core's per-point web run, with each call in a span.
func runWebPoint(tr *tracer, p *hw.Platform, nWeb, nCache int, rc web.RunConfig, seed int64) (outcome, error) {
	var tb *cluster.Testbed
	tr.span(spanClusterBuild, true, func() {
		tb = cluster.New(cluster.Config{
			Groups:  []cluster.GroupConfig{{Platform: p, Nodes: nWeb + nCache}},
			DBNodes: 2, Clients: 8,
		})
	})
	var dep *web.Deployment
	tr.span(spanWebDeploy, true, func() { dep = web.NewDeployment(tb, p, nWeb, nCache, seed) })
	tr.span(spanWebWarm, true, func() { dep.WarmFor(rc) })
	var res web.Result
	tr.span(spanWebRun, false, func() { res = dep.Run(rc) })
	o := webOutcome(res)
	o.events = tb.Eng.Fired()
	o.netBytes = float64(tb.Fab.TotalBytes())
	o.fingerprint = fmt.Sprintf("%s events=%d bytes=%v", o.fingerprint, o.events, o.netBytes)
	return o, checkWeb(o, res)
}

// webOutcome reads the web.Result counters. Replies are the successful
// operations in the measurement window.
func webOutcome(res web.Result) outcome {
	window := res.Config.Duration * (1 - res.Config.WarmupFrac)
	o := outcome{raw: res, energyJ: float64(res.Energy)}
	o.replies = math.Round(res.Throughput * window)
	o.errors = float64(res.Errors500 + res.ConnFailures)
	o.shed = float64(res.Shed)
	o.attempts = o.replies + o.errors
	if res.Config.RequestTimeout > 0 {
		o.attempts = float64(res.Attempts)
	}
	o.offered = float64(res.Offered)
	o.actions = float64(res.ScaleUps + res.ScaleDowns)
	o.hitReplies = res.HitRatio * o.replies
	o.ops = o.replies + o.errors + o.shed
	o.fingerprint = fmt.Sprintf("tput=%v delay=%v err=%v power=%v energy=%v hit=%v cpu=%v/%v db=%v cache=%v total=%v p99=%v offered=%d shed=%d attempts=%d retries=%d timeouts=%d degraded=%d denied=%d breaches=%d ups=%d downs=%d boots=%d active=%v",
		res.Throughput, res.MeanDelay, res.ErrorRate, res.MeanPower, res.Energy, res.HitRatio, res.WebCPU, res.CacheCPU,
		res.DBDelay.Mean(), res.CacheDelay.Mean(), res.WebTotal.Mean(), res.Latency.Quantile(0.99),
		res.Offered, res.Shed, res.Attempts, res.Retries, res.Timeouts, res.Degraded, res.RetryDenied, res.SLOBreaches,
		res.ScaleUps, res.ScaleDowns, res.Boots, res.MeanActive)
	return o
}

// checkWeb rejects a web point whose outputs cannot be right.
func checkWeb(o outcome, res web.Result) error {
	for _, v := range []struct {
		name string
		v    float64
	}{
		{"throughput", res.Throughput}, {"mean delay", res.MeanDelay}, {"error rate", res.ErrorRate},
		{"power", float64(res.MeanPower)}, {"energy", float64(res.Energy)}, {"hit ratio", res.HitRatio},
		{"web cpu", res.WebCPU}, {"cache cpu", res.CacheCPU}, {"db delay", res.DBDelay.Mean()},
		{"cache delay", res.CacheDelay.Mean()}, {"web delay", res.WebTotal.Mean()},
		{"p99", res.Latency.Quantile(0.99)}, {"mean active", res.MeanActive},
	} {
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) || v.v < 0 {
			return fmt.Errorf("%s = %v, want finite and non-negative", v.name, v.v)
		}
	}
	if o.replies <= 0 {
		return fmt.Errorf("no replies")
	}
	if o.replies > o.attempts {
		return fmt.Errorf("replies %v exceed attempts %v", o.replies, o.attempts)
	}
	if res.ErrorRate > 1 || res.HitRatio > 1 {
		return fmt.Errorf("error rate %v or hit ratio %v above 1", res.ErrorRate, res.HitRatio)
	}
	if o.shed > o.ops {
		return fmt.Errorf("shed %v exceeds settled operations %v", o.shed, o.ops)
	}
	return nil
}

// webClosedComparisons recomputes the Figure 4/6 peak and energy-efficiency
// comparisons and the Table 7 rows from the points' results, as
// internal/core does.
func webClosedComparisons(_ int64, raws []any) []report.Comparison {
	micro, brawny := hw.BaselinePair()
	res := func(i int) web.Result { return raws[i].(web.Result) }
	var out []report.Comparison
	peaks := func(fig string, first int) {
		var mPeak, bPeak, mPow, bPow float64
		for k := 0; k < 3; k++ {
			if r := res(first + k); r.Throughput > mPeak {
				mPeak, mPow = r.Throughput, float64(r.MeanPower)
			}
			if r := res(first + 3 + k); r.Throughput > bPeak {
				bPeak, bPow = r.Throughput, float64(r.MeanPower)
			}
		}
		out = append(out,
			report.Comparison{Artifact: fig, Metric: fmt.Sprintf("peak %s req/s", micro.Label), Measured: mPeak},
			report.Comparison{Artifact: fig, Metric: fmt.Sprintf("peak %s req/s", brawny.Label), Measured: bPeak},
			report.Comparison{Artifact: fig, Metric: "energy-efficiency ratio (x)", Measured: (mPeak / mPow) / (bPeak / bPow)})
	}
	peaks("Figure 4", 0)  // fig4_fig7: points 0-5
	peaks("Figure 6", 18) // fig6_fig9: after fig5_fig8's 12 points
	names := []string{"DB delay E ms", "DB delay D ms", "cache delay E ms", "cache delay D ms", "total E ms", "total D ms"}
	for ri, rate := range table7Rates {
		re, rd := res(24+2*ri), res(24+2*ri+1)
		row := []float64{
			re.DBDelay.Mean() * 1e3, rd.DBDelay.Mean() * 1e3,
			re.CacheDelay.Mean() * 1e3, rd.CacheDelay.Mean() * 1e3,
			re.WebTotal.Mean() * 1e3, rd.WebTotal.Mean() * 1e3,
		}
		for i, n := range names {
			out = append(out, report.Comparison{Artifact: fmt.Sprintf("Table 7 @ %.0f req/s", rate), Metric: n, Measured: row[i]})
		}
	}
	return out
}

// --- hadoop_jobs ------------------------------------------------------------

// hadoopCell is one Hadoop run: a job on a homogeneous cluster.
type hadoopCell struct {
	job    string
	label  string // Table 8 cluster label
	p      *hw.Platform
	slaves int
	seed   int64
}

// hadoopCells lists the Table 8 pair runs (35 micro and 2 brawny slaves,
// at the root seed as cmd/paper's trace, logcount and terasort experiments
// run them), the -quick Figure 18/19 cells, and the scaled micro clusters
// of the full Figure 18/19 grid, each with its sweep seed.
func hadoopCells(seed int64) []hadoopCell {
	cfg := core.Config{Seed: seed, Quick: true}
	micro, brawny := hw.BaselinePair()
	var cells []hadoopCell
	for _, j := range jobs.Names() {
		cells = append(cells,
			hadoopCell{j, "35E", micro, 35, seed},
			hadoopCell{j, "2D", brawny, 2, seed})
	}
	for i, j := range []string{"wordcount2", "pi"} {
		cells = append(cells, hadoopCell{j, "35E", micro, 35, cfg.PointSeed("fig18_fig19_table8", i)})
	}
	// The full grid is jobs × {35E, 17E, 8E, 4E, 2D, 1D}.
	scaled := []struct {
		label  string
		slaves int
		col    int
	}{{"17E", 17, 1}, {"8E", 8, 2}, {"4E", 4, 3}}
	for ji, j := range jobs.Names() {
		for _, s := range scaled {
			cells = append(cells, hadoopCell{j, s.label, micro, s.slaves, cfg.PointSeed("fig18_fig19_table8", ji*6+s.col)})
		}
	}
	return cells
}

func hadoopPoints(seed int64) []point {
	var pts []point
	for _, c := range hadoopCells(seed) {
		pts = append(pts, point{
			name: fmt.Sprintf("%s/%s", c.job, c.label),
			run:  func(tr *tracer) (outcome, error) { return runHadoopPoint(tr, c) },
		})
	}
	return pts
}

// runHadoopPoint is jobs.Run with each call in a span.
func runHadoopPoint(tr *tracer, c hadoopCell) (outcome, error) {
	groups := []jobs.SlaveGroup{{Platform: c.p, Nodes: c.slaves}}
	if tr.traced {
		// jobs builds its testbed inside NewHadoopGroupsEnergy; an
		// identical build, timed on its own, gives the cluster layer's
		// share of that call.
		gcs := []cluster.GroupConfig{{Platform: c.p, Nodes: c.slaves + 1}}
		if jobs.MasterGroupIndex(groups) < 0 {
			m, _ := hw.LookupPlatform(c.p.Hadoop.MasterPlatform)
			gcs = []cluster.GroupConfig{{Platform: c.p, Nodes: c.slaves}, {Platform: m, Nodes: 1}}
		}
		tr.span(spanClusterBuild, false, func() { cluster.New(cluster.Config{Groups: gcs}) })
	}
	var h *jobs.Hadoop
	var err error
	tr.span(spanJobsDeploy, true, func() {
		h, err = jobs.NewHadoopGroupsEnergy(groups, jobs.BlockSizeFor(c.job, c.p), c.seed, hw.PowerLinear)
	})
	if err != nil {
		return outcome{}, err
	}
	tr.span(spanHDFSStage, true, func() { h.Stage(c.job) })
	var r *mapred.JobResult
	tr.span(spanMapredRun, false, func() { r, err = h.Cluster.Run(h.Def(c.job)) })
	if err != nil {
		return outcome{}, err
	}
	o := outcome{
		raw:          r,
		events:       h.Eng.Fired(),
		netBytes:     float64(h.Fab.TotalBytes()),
		ops:          float64(r.TaskAttempts),
		energyJ:      float64(r.Energy),
		tasks:        float64(r.MapTasks + r.ReduceTasks),
		taskAttempts: float64(r.TaskAttempts),
		mapTasks:     float64(r.MapTasks),
		localMaps:    float64(r.DataLocalMaps),
		shuffleBytes: float64(r.ShuffledBytes),
	}
	o.fingerprint = fmt.Sprintf("dur=%v energy=%v maps=%d reduces=%d local=%d shuffled=%d out=%d attempts=%d events=%d bytes=%v",
		r.Duration, r.Energy, r.MapTasks, r.ReduceTasks, r.DataLocalMaps, r.ShuffledBytes, r.OutputBytes, r.TaskAttempts, o.events, o.netBytes)
	return o, checkHadoop(o, r)
}

func checkHadoop(o outcome, r *mapred.JobResult) error {
	if !r.Completed || r.Failed {
		return fmt.Errorf("job not completed (failed=%v %s)", r.Failed, r.FailReason)
	}
	if math.IsNaN(r.Duration) || math.IsInf(r.Duration, 0) || r.Duration <= 0 ||
		math.IsNaN(o.energyJ) || math.IsInf(o.energyJ, 0) || o.energyJ <= 0 {
		return fmt.Errorf("duration %v / energy %v not finite and positive", r.Duration, o.energyJ)
	}
	if o.tasks > o.taskAttempts {
		return fmt.Errorf("tasks %v exceed attempts %v", o.tasks, o.taskAttempts)
	}
	if l := r.LocalityFraction(); l < 0 || l > 1 {
		return fmt.Errorf("locality %v outside [0,1]", l)
	}
	return nil
}

// hadoopComparisons lists Table 8 time and energy per job and cluster, and
// the §5.2.4 terasort energy-efficiency gain, as internal/core does. Table 8
// carries its paper values; the harness looks the others up in the ledger.
func hadoopComparisons(seed int64, raws []any) []report.Comparison {
	var out []report.Comparison
	cells := hadoopCells(seed)
	for i, c := range cells {
		r := raws[i].(*mapred.JobResult)
		artifact := fmt.Sprintf("Table 8 / %s / %s", c.job, c.label)
		paper := core.PaperTable8[c.job][c.label]
		out = append(out,
			report.Comparison{Artifact: artifact, Metric: "time s", Paper: paper[0], Measured: r.Duration},
			report.Comparison{Artifact: artifact, Metric: "energy J", Paper: paper[1], Measured: float64(r.Energy)})
		if c.job == "terasort" && c.label == "2D" {
			re := raws[i-1].(*mapred.JobResult)
			out = append(out, report.Comparison{Artifact: "§5.2.4", Metric: "terasort energy-efficiency gain (x)",
				Measured: float64(r.Energy) / float64(re.Energy)})
		}
	}
	return out
}

// --- web_open ---------------------------------------------------------------

// webOpenPoints drive a quarter-scale micro tier (Table 6's 1/4 row) with
// open-loop arrivals well past its connection capacity, under the full
// overload stack: deadline shedding, client timeouts with a retry budget,
// an SLO controller with brownout and a target-utilisation autoscaler.
func webOpenPoints(seed int64) []point {
	cfg := core.Config{Seed: seed}
	micro, brawny := hw.BaselinePair()
	tier := cluster.Table6For(micro, brawny)[2].Tier(micro)
	capacity := float64(tier.Web) * micro.Web.ConnRate
	const dur = 12
	profiles := []struct {
		name string
		prof load.Profile
	}{
		{"spike", load.Spike{Base: 0.6 * capacity, Peak: 2.5 * capacity, Start: dur / 3, Duration: dur / 3}},
		{"diurnal", load.Diurnal{Min: 0.3 * capacity, Max: 2 * capacity, Period: dur}},
	}
	// Several replicas of each profile, each with its own seed: their
	// trajectories diverge (autoscaler decisions, retries), and averaging
	// them keeps one seed's luck from moving the pass.
	const replicas = 3
	var pts []point
	for i := 0; i < len(profiles)*replicas; i++ {
		pr := profiles[i/replicas]
		s := cfg.PointSeed("web_open", i)
		rc := web.RunConfig{
			Profile:        pr.prof,
			Duration:       dur,
			WarmupFrac:     0.1,
			RequestTimeout: 0.5,
			RetryBudget:    0.1,
			Shed:           web.ShedPolicy{Mode: web.ShedDeadline, Deadline: 0.5},
			SLO:            &web.SLO{Latency: 0.5, Percentile: 0.99, Availability: 0.99, Window: 1, Brownout: true},
			Autoscale:      &autoscale.Config{Policy: autoscale.TargetUtil{Target: 0.6}},
		}
		pts = append(pts, point{
			name: fmt.Sprintf("web_open/%s/%d", pr.name, i%replicas),
			run: func(tr *tracer) (outcome, error) {
				o, err := runWebPoint(tr, micro, tier.Web, tier.Cache, rc, s)
				if err == nil {
					err = checkOpenLoop(o)
				}
				return o, err
			},
		})
	}
	return pts
}

// checkOpenLoop checks that in-window arrivals are accounted for. Each
// offered connection carries several requests, each of which is served,
// errors or is shed; a refused connection counts once in Shed. So settled
// operations must cover the offered connections.
func checkOpenLoop(o outcome) error {
	if o.offered <= 0 {
		return fmt.Errorf("no offered load")
	}
	if o.ops < o.offered {
		return fmt.Errorf("settled operations %v do not cover %v offered connections", o.ops, o.offered)
	}
	return nil
}
