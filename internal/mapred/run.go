package mapred

import (
	"fmt"
	"sort"

	"edisim/internal/hw"
	"edisim/internal/power"
	"edisim/internal/sim"
	"edisim/internal/stats"
	"edisim/internal/units"
	"edisim/internal/yarn"
)

// mapSeconds resolves the per-core map duration for a split on node n
// (mixed-platform slave sets calibrate rates per platform).
func mapSeconds(job *JobDef, n *hw.Node, size units.Bytes) float64 {
	c := job.rates(n)
	if c.MapFixedSeconds > 0 {
		return c.MapFixedSeconds
	}
	if c.MapMBps <= 0 {
		panic(fmt.Sprintf("mapred: job %q has no map rate", job.Name))
	}
	return float64(size) / float64(units.MBps) / c.MapMBps
}

func reduceSeconds(job *JobDef, n *hw.Node, size units.Bytes) float64 {
	c := job.rates(n)
	if c.ReduceMBps <= 0 {
		panic(fmt.Sprintf("mapred: job %q has no reduce rate", job.Name))
	}
	return float64(size) / float64(units.MBps) / c.ReduceMBps
}

// overheadSeconds is the fixed per-task-attempt cost on node n's platform.
func overheadSeconds(job *JobDef, n *hw.Node) float64 {
	return job.rates(n).TaskOverheadSeconds
}

// maxShuffleFetches bounds a reducer's parallel fetch streams (Hadoop's
// mapreduce.reduce.shuffle.parallelcopies is 5 by default).
const maxShuffleFetches = 4

// slowstartFraction is the completed-maps fraction before reduce containers
// are requested (Hadoop default 0.05); actual reduce start is later because
// map containers still hold the slots — which is exactly why the reduce
// phase starts at 61% of run time on the Edison cluster vs 28% on Dell.
const slowstartFraction = 0.05

// Run executes the job on the simulated cluster, returning when it
// completes. It drives the engine itself (synchronous convenience). Jobs
// with fault tolerance enabled under an injected fault plan should use
// Start plus Engine.RunUntil instead: a cluster that never recovers keeps
// heartbeating, so its event stream need not drain.
func (c *Cluster) Run(job *JobDef) (*JobResult, error) {
	res, err := c.Start(job, nil)
	if err != nil {
		return nil, err
	}
	c.Eng.Run()
	return res, nil
}

// attempt is one container-backed try at a task. A dead attempt's callbacks
// are inert: every stage of the task pipeline checks the flag, so a killed
// or superseded attempt can never release its container twice or corrupt
// job progress, no matter which of its events still fire.
type attempt struct {
	ct       *yarn.Container
	dead     bool
	watchdog sim.EventRef
	started  sim.Time
}

// mapTask tracks one split across its attempts. outputOn remembers where
// the winning attempt spilled its map output: if that node dies before the
// job finishes, the output is lost and the task reverts to not-done.
type mapTask struct {
	idx       int
	s         *split
	tries     int
	done      bool
	outputOn  *yarn.NodeManager
	out       units.Bytes
	cur, spec *attempt
}

// reduceTask tracks one reducer across its attempts.
type reduceTask struct {
	idx   int
	tries int
	done  bool
	cur   *attempt
}

// Start launches the job asynchronously; done (optional) runs at completion
// (successful or failed — check JobResult.Failed). The returned JobResult is
// filled in progressively and final once done.
//
// Without job.FT the execution path is the original fail-free engine, event
// for event. With it, every task attempt is watched: a timeout kills and
// re-launches it (up to MaxAttempts), a detected node crash fails the
// node's attempts immediately, re-executes completed maps whose output died
// with the node, and excludes the node from placement until it returns;
// repeated non-crash failures blacklist a node for the rest of the job.
func (c *Cluster) Start(job *JobDef, done func()) (*JobResult, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	eng := c.Eng
	splits := c.makeSplits(job)
	nMaps := len(splits)
	if nMaps == 0 {
		return nil, fmt.Errorf("mapred: job %q has no input splits", job.Name)
	}
	ftOn := job.FT != nil
	var ft FaultTolerance
	if ftOn {
		ft = job.FT.withDefaults()
	}

	res := &JobResult{
		Job:            job.Name,
		MapTasks:       nMaps,
		ReduceTasks:    job.NumReduces,
		Power:          stats.NewTimeSeries(job.Name + "/power"),
		CPU:            stats.NewTimeSeries(job.Name + "/cpu"),
		Mem:            stats.NewTimeSeries(job.Name + "/mem"),
		MapProgress:    stats.NewTimeSeries(job.Name + "/map"),
		ReduceProgress: stats.NewTimeSeries(job.Name + "/reduce"),
	}

	start := eng.Now()
	c.meter.Reset()

	// 1 Hz psutil-style sampling (Figures 12–17).
	sampler := power.NewSampler(eng, c.meter, 1.0)
	cpuGauge := power.MeanUtilization(c.Workers)
	memGauge := power.MeanMemUtilization(c.Workers)

	mapsDone := 0
	reducersDone := 0
	outSeq := 0
	reducersStarted := 0
	reducersRequested := false
	mapOutPerNode := make(map[*yarn.NodeManager]units.Bytes)
	var totalMapOut units.Bytes

	maps := make([]*mapTask, nMaps)
	for i, s := range splits {
		maps[i] = &mapTask{idx: i, s: s}
	}
	reduces := make([]*reduceTask, job.NumReduces)
	for i := range reduces {
		reduces[i] = &reduceTask{idx: i}
	}
	// Completed-map durations feed the speculative-execution straggler
	// threshold; nodeWasUp and the failure counts drive detection and
	// blacklisting (indexed/keyed over the RM's fixed node slice, so every
	// scan is deterministic).
	var mapDurSum float64
	var mapDurN int
	var nodeWasUp []bool
	nodeFailures := make(map[*yarn.NodeManager]int)
	blacklisted := make(map[*yarn.NodeManager]bool)
	if ftOn {
		nodeWasUp = make([]bool, len(c.RM.Nodes()))
		for i := range nodeWasUp {
			nodeWasUp[i] = true
		}
	}

	finished := false
	sample := func() {
		t := float64(eng.Now() - start)
		res.Power.Add(t, float64(c.meter.Power()))
		res.CPU.Add(t, cpuGauge())
		res.Mem.Add(t, memGauge())
		res.MapProgress.Add(t, 100*float64(mapsDone)/float64(nMaps))
		// Hadoop's reduce progress spans shuffle+sort+reduce; a granted
		// reducer in its shuffle phase contributes the first third.
		rp := (float64(reducersStarted)/3 + float64(reducersDone)*2/3) / float64(job.NumReduces)
		res.ReduceProgress.Add(t, 100*rp)
	}

	finish := func() {
		finished = true
		res.Completed = !res.Failed
		res.Duration = float64(eng.Now() - start)
		res.Energy = c.meter.Energy()
		sample()
		sampler.Stop()
		if done != nil {
			done()
		}
	}

	// The job holds an AM container for its whole life. (The AM is assumed
	// resilient — YARN restarts it elsewhere on failure — so it is not a
	// fault target here.)
	var amContainer *yarn.Container
	combine := 1.0
	if job.UseCombiner {
		combine = job.Cost.CombineRatio
	}

	maybeFinish := func() {
		if finished {
			return
		}
		if reducersDone == job.NumReduces {
			c.RM.Release(amContainer)
			finish()
		}
	}

	failJob := func(reason string) {
		if finished {
			return
		}
		res.Failed = true
		res.FailReason = reason
		if amContainer != nil {
			c.RM.Release(amContainer)
		}
		finish()
	}

	// killAttempt retires a live attempt: its remaining pipeline callbacks
	// become no-ops and its container is released exactly once.
	killAttempt := func(at *attempt) {
		if at == nil || at.dead {
			return
		}
		at.dead = true
		at.watchdog.Cancel()
		c.RM.Release(at.ct)
	}

	// noteFailure counts a non-crash attempt failure against the node and
	// blacklists it at the threshold (crashes are not counted: the node is
	// already excluded while down and is fine once rebooted).
	noteFailure := func(nm *yarn.NodeManager) {
		nodeFailures[nm]++
		if nodeFailures[nm] >= ft.BlacklistAfter && !blacklisted[nm] {
			blacklisted[nm] = true
			c.RM.SetNodeUsable(nm.Node, false)
		}
	}

	armWatchdog := func(at *attempt, expire func()) {
		if ftOn {
			at.watchdog = eng.After(ft.TaskTimeout, expire)
		}
	}

	var launchMap func(mt *mapTask, speculative bool)
	var launchReduce func(rt *reduceTask)

	// failMapAttempt retires a map attempt and re-launches the task unless a
	// sibling attempt is still running. countNode distinguishes timeout-ish
	// failures (blacklistable) from detected crashes.
	failMapAttempt := func(mt *mapTask, at *attempt, countNode bool) {
		if finished || at == nil || at.dead {
			return
		}
		nm := at.ct.Node
		killAttempt(at)
		if mt.cur == at {
			mt.cur = nil
		}
		if mt.spec == at {
			mt.spec = nil
		}
		if countNode {
			noteFailure(nm)
		}
		if mt.done || mt.cur != nil || mt.spec != nil {
			return
		}
		if mt.tries >= ft.MaxAttempts {
			failJob(fmt.Sprintf("map %d failed %d attempts", mt.idx, mt.tries))
			return
		}
		res.TaskRetries++
		launchMap(mt, false)
	}

	failReduceAttempt := func(rt *reduceTask, at *attempt, countNode bool) {
		if finished || at == nil || at.dead {
			return
		}
		nm := at.ct.Node
		killAttempt(at)
		if rt.cur == at {
			rt.cur = nil
		}
		if countNode {
			noteFailure(nm)
		}
		if rt.done {
			return
		}
		if rt.tries >= ft.MaxAttempts {
			failJob(fmt.Sprintf("reduce %d failed %d attempts", rt.idx, rt.tries))
			return
		}
		res.TaskRetries++
		launchReduce(rt)
	}

	var runReducer func(at *attempt, rt *reduceTask, shuffleShare units.Bytes, sources []*yarn.NodeManager)
	runReducer = func(at *attempt, rt *reduceTask, shuffleShare units.Bytes, sources []*yarn.NodeManager) {
		ct := at.ct
		node := ct.Node.Node
		// Fetch phase: pull this reducer's partition from every map node,
		// at most maxShuffleFetches streams at once.
		idx := 0
		active := 0
		var fetchNext func()
		fetched := 0
		afterFetch := func() {
			if at.dead {
				return
			}
			fetched++
			active--
			if fetched >= len(sources) {
				// Sort+merge+reduce, then write output to HDFS.
				node.ComputeSeconds(reduceSeconds(job, node, shuffleShare), func() {
					if at.dead {
						return
					}
					out := units.Bytes(float64(shuffleShare) * job.Cost.ReduceOutputRatio)
					outSeq++
					outName := fmt.Sprintf("%s/part-r-%05d", job.Name, outSeq)
					c.FS.Write(c.vx[node], node, outName, out, func() {
						if at.dead || rt.done {
							return
						}
						at.dead = true
						at.watchdog.Cancel()
						rt.done = true
						rt.cur = nil
						res.OutputBytes += out
						c.RM.Release(ct)
						reducersDone++
						maybeFinish()
					})
				})
				return
			}
			fetchNext()
		}
		fetchNext = func() {
			for active < maxShuffleFetches && idx < len(sources) {
				src := sources[idx]
				idx++
				active++
				seg := units.Bytes(float64(shuffleShare) / float64(len(sources)))
				res.ShuffledBytes += seg
				// Read the spilled segment, then stream it over.
				src.Node.Disk().Read(seg, true, func() {
					c.Fab.StartFlow(c.vx[src.Node], c.vx[node], seg, func() {
						node.Disk().Write(seg, true, afterFetch)
					})
				})
			}
			if len(sources) == 0 {
				afterFetch() // degenerate: no map output at all
			}
		}
		fetchNext()
	}

	// expectedMapOut is the job's total map output, known up front from the
	// split sizes and the cost model. Reducers size their shuffle share
	// from it so that fetches overlapping the map tail (as Hadoop's
	// incremental shuffle does) still account for every byte.
	var expectedMapOut units.Bytes
	for _, s := range splits {
		expectedMapOut += units.Bytes(float64(s.size) * job.Cost.OutputRatio * combine)
	}
	// Hadoop's AM lets a few reducers start shuffling while the map backlog
	// is still queued — but only where a node can spare ≈10% of its memory.
	// A 12 GB Dell node can host an early 1 GB reducer; a 600 MB Edison
	// node cannot spare 300 MB, which is exactly why the paper's reduce
	// phase starts at 28% of runtime on Dell but 61% on Edison (§5.2.1).
	earlyReducers := 0
	for _, nm := range c.RM.Nodes() {
		earlyReducers += int(0.1 * float64(nm.Capacity().MemoryMB) / float64(job.ReduceMemoryMB))
	}

	launchReduce = func(rt *reduceTask) {
		rt.tries++
		prio := 0
		if rt.idx < earlyReducers {
			prio = 1
		}
		c.RM.Request(yarn.ContainerRequest{MemoryMB: job.ReduceMemoryMB, Priority: prio}, func(ct *yarn.Container) {
			if finished || rt.done {
				c.RM.Release(ct)
				return
			}
			reducersStarted++
			res.TaskAttempts++
			at := &attempt{ct: ct, started: eng.Now()}
			rt.cur = at
			armWatchdog(at, func() { failReduceAttempt(rt, at, true) })
			// Fetch from the nodes holding map output at grant time;
			// output still being produced is folded into the evenly
			// divided expected share (incremental-shuffle model).
			// Deterministic source order: map iteration order would
			// perturb event ordering run-to-run.
			var sources []*yarn.NodeManager
			for nm, b := range mapOutPerNode {
				if b > 0 {
					sources = append(sources, nm)
				}
			}
			sort.Slice(sources, func(i, j int) bool {
				return sources[i].Node.ID < sources[j].Node.ID
			})
			share := units.Bytes(float64(expectedMapOut) / float64(job.NumReduces))
			// Reduce attempts pay the same (CPU-bound) setup overhead.
			ct.Node.Node.ComputeSeconds(overheadSeconds(job, ct.Node.Node), func() {
				if at.dead {
					return
				}
				runReducer(at, rt, share, sources)
			})
		})
	}

	requestReducers := func() {
		if reducersRequested {
			return
		}
		reducersRequested = true
		for _, rt := range reduces {
			launchReduce(rt)
		}
	}

	runMapper := func(at *attempt, mt *mapTask) {
		ct := at.ct
		node := ct.Node.Node
		s := mt.s
		// Read every block of the split (local disk or remote flow).
		remaining := len(s.blocks)
		local := true
		for _, b := range s.blocks {
			wasLocal := c.FS.ReadBlock(c.vx[node], node, b, func() {
				if at.dead {
					return
				}
				remaining--
				if remaining > 0 {
					return
				}
				// Task setup overhead (JVM, jar localization, JIT warmup —
				// CPU-bound, which is why the paper's Dell trace pegs 100%
				// CPU through the map phase), then the map computation and
				// the spill of (combined) output.
				work := overheadSeconds(job, node) +
					mapSeconds(job, node, s.size)
				node.ComputeSeconds(work, func() {
					if at.dead {
						return
					}
					out := units.Bytes(float64(s.size) * job.Cost.OutputRatio * combine)
					node.Disk().Write(out, true, func() {
						if at.dead || mt.done {
							return
						}
						at.dead = true
						at.watchdog.Cancel()
						mt.done = true
						mt.outputOn = ct.Node
						mt.out = out
						if local {
							res.DataLocalMaps++
						}
						mapDurSum += float64(eng.Now() - at.started)
						mapDurN++
						// Kill the losing speculative sibling, if any.
						loser := mt.cur
						if loser == at {
							loser = mt.spec
						}
						mt.cur, mt.spec = nil, nil
						mapOutPerNode[ct.Node] += out
						totalMapOut += out
						mapsDone++
						c.RM.Release(ct)
						killAttempt(loser)
						if float64(mapsDone) >= slowstartFraction*float64(nMaps) {
							requestReducers()
						}
					})
				})
			})
			local = local && wasLocal
		}
	}

	launchMap = func(mt *mapTask, speculative bool) {
		mt.tries++
		req := yarn.ContainerRequest{
			MemoryMB:       job.MapMemoryMB,
			PreferredNodes: c.preferredNodes(mt.s),
		}
		if speculative {
			// Backup attempts run wherever there is room, right away.
			req.PreferredNodes = nil
		}
		c.RM.Request(req, func(ct *yarn.Container) {
			if finished || mt.done {
				c.RM.Release(ct)
				return
			}
			res.TaskAttempts++
			at := &attempt{ct: ct, started: eng.Now()}
			if speculative {
				mt.spec = at
			} else {
				mt.cur = at
			}
			armWatchdog(at, func() { failMapAttempt(mt, at, true) })
			runMapper(at, mt)
		})
	}

	// Failure detection, piggybacked on the job's existing 1 Hz sampling
	// tick (no extra events): an up→down transition fails the node's live
	// attempts and re-executes completed maps whose output died with it; a
	// down→up transition re-admits the node (unless blacklisted).
	onNodeDown := func(nm *yarn.NodeManager) {
		c.RM.SetNodeUsable(nm.Node, false)
		c.FS.SetNodeAlive(nm.Node, false)
		for _, mt := range maps {
			if mt.cur != nil && mt.cur.ct.Node == nm {
				failMapAttempt(mt, mt.cur, false)
			}
			if mt.spec != nil && mt.spec.ct.Node == nm {
				failMapAttempt(mt, mt.spec, false)
			}
		}
		for _, rt := range reduces {
			if rt.cur != nil && rt.cur.ct.Node == nm {
				failReduceAttempt(rt, rt.cur, false)
			}
		}
		if finished {
			return
		}
		// Map output on the dead node is gone; those maps must run again
		// (the shuffle can no longer fetch from it).
		if mapOutPerNode[nm] > 0 {
			mapOutPerNode[nm] = 0
			for _, mt := range maps {
				if !mt.done || mt.outputOn != nm {
					continue
				}
				mt.done = false
				mt.outputOn = nil
				totalMapOut -= mt.out
				mapsDone--
				res.LostMapOutputs++
				if mt.cur != nil || mt.spec != nil {
					continue // a (speculative) attempt is already running
				}
				if mt.tries >= ft.MaxAttempts {
					failJob(fmt.Sprintf("map %d failed %d attempts", mt.idx, mt.tries))
					return
				}
				res.TaskRetries++
				launchMap(mt, false)
			}
		}
	}
	onNodeUp := func(nm *yarn.NodeManager) {
		c.FS.SetNodeAlive(nm.Node, true)
		if !blacklisted[nm] {
			c.RM.SetNodeUsable(nm.Node, true)
		}
	}
	detect := func() {
		for i, nm := range c.RM.Nodes() {
			up := nm.Node.Up()
			if nodeWasUp[i] == up {
				continue
			}
			nodeWasUp[i] = up
			if up {
				onNodeUp(nm)
			} else {
				onNodeDown(nm)
			}
		}
	}
	speculate := func() {
		if 2*mapsDone < nMaps || mapDurN == 0 {
			return
		}
		threshold := 2 * mapDurSum / float64(mapDurN)
		for _, mt := range maps {
			if mt.done || mt.spec != nil || mt.cur == nil {
				continue
			}
			if float64(eng.Now()-mt.cur.started) > threshold {
				res.SpeculativeBackups++
				launchMap(mt, true)
			}
		}
	}
	var tick func()
	tick = func() {
		if finished {
			return
		}
		if ftOn {
			detect()
			if finished {
				return // detection can fail the job (attempts exhausted)
			}
			if ft.Speculative {
				speculate()
			}
		}
		sample()
		eng.After(1.0, tick)
	}

	// Kick off: AM first, then all map requests with locality preferences.
	c.RM.Request(yarn.ContainerRequest{MemoryMB: job.AMMemoryMB}, func(am *yarn.Container) {
		amContainer = am
		for _, mt := range maps {
			launchMap(mt, false)
		}
	})
	eng.After(0, tick)
	return res, nil
}
