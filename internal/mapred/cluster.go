package mapred

import (
	"fmt"

	"edisim/internal/hdfs"
	"edisim/internal/hw"
	"edisim/internal/netsim"
	"edisim/internal/power"
	"edisim/internal/sim"
	"edisim/internal/stats"
	"edisim/internal/units"
	"edisim/internal/yarn"
)

// Cluster is a Hadoop deployment: HDFS + YARN over a set of worker nodes,
// with a (Dell) master hosting namenode and ResourceManager. The paper's
// hybrid configuration — Dell master, Edison slaves — exists because an
// Edison master cannot hold the daemons (yarn.ErrMasterTooSmall).
type Cluster struct {
	Eng *sim.Engine
	Fab *netsim.Fabric

	Master  *hw.Node
	Workers []*hw.Node

	FS *hdfs.FileSystem
	RM *yarn.ResourceManager

	meter *power.Meter
	vx    map[*hw.Node]netsim.Vertex // each worker's fabric vertex
}

// daemonMemory is what datanode+nodemanager consume on a worker (§5.2:
// ≈360 MB total on an Edison incl. the OS, ≈4 GB on a Dell), resolved from
// the hw platform catalog with a clock-speed heuristic for ad-hoc specs.
func daemonMemory(n *hw.Node) units.Bytes {
	if p := hw.PlatformForSpec(n.Spec.Name); p != nil {
		return p.Hadoop.DaemonMem
	}
	if n.Spec.CPU.Clock < 1000 {
		return 360 * units.MB
	}
	return 4 * units.GB
}

// NewCluster assembles HDFS and YARN. blockSize/replication follow the
// paper: 16 MB / 2 on the Edison cluster, 64 MB / 1 on the Dell cluster.
func NewCluster(eng *sim.Engine, fab *netsim.Fabric, master *hw.Node, workers []*hw.Node,
	blockSize units.Bytes, replication int, seed int64) (*Cluster, error) {
	rm, err := yarn.NewResourceManager(eng, master, workers, yarn.DefaultResources)
	if err != nil {
		return nil, err
	}
	for _, w := range workers {
		if err := w.AllocMem(daemonMemory(w)); err != nil {
			return nil, fmt.Errorf("mapred: worker %s cannot run daemons: %w", w.ID, err)
		}
		// Datanode + nodemanager keep a small steady load (heartbeats,
		// GC); reflected as a power floor.
		w.SetBusyFloor(0.04)
	}
	c := &Cluster{
		Eng:     eng,
		Fab:     fab,
		Master:  master,
		Workers: workers,
		RM:      rm,
		FS:      hdfs.New(fab, master.ID, workers, blockSize, replication, seed),
		// Energy accounting excludes the master on both platforms, as the
		// paper does ("the power consumed by the Dell master can be
		// considered as a static offset").
		meter: power.NewMeter("workers", workers),
		vx:    make(map[*hw.Node]netsim.Vertex, len(workers)),
	}
	for _, w := range workers {
		c.vx[w] = fab.Vertex(w.ID)
	}
	return c, nil
}

// JobResult is the outcome of one simulated job (one cell of Table 8).
type JobResult struct {
	Job      string
	Duration float64      // seconds
	Energy   units.Joules // worker nodes only, as in the paper

	MapTasks, ReduceTasks int
	DataLocalMaps         int

	// Traces sampled at 1 Hz for Figures 12–17.
	Power, CPU, Mem, MapProgress, ReduceProgress *stats.TimeSeries

	ShuffledBytes units.Bytes
	OutputBytes   units.Bytes

	// Completion state. A healthy run always completes; with fault injection
	// a job either completes (possibly degraded), fails (a task ran out of
	// attempts — FailReason says which), or is cut off by the driver's
	// deadline (jobs.RunGroupsFaulty marks that as failed too).
	Completed  bool
	Failed     bool
	FailReason string

	// Recovery accounting (all zero without fault tolerance configured).
	TaskAttempts       int // containers granted for map+reduce attempts
	TaskRetries        int // attempts re-launched after a failure/timeout
	LostMapOutputs     int // completed maps re-executed after their node died
	SpeculativeBackups int // backup attempts launched for stragglers
}

// LocalityFraction reports the share of data-local map tasks (the paper
// tunes replication so both clusters sit near 95%).
func (r *JobResult) LocalityFraction() float64 {
	if r.MapTasks == 0 {
		return 0
	}
	return float64(r.DataLocalMaps) / float64(r.MapTasks)
}

// split is one map task's input.
type split struct {
	blocks []*hdfs.Block
	size   units.Bytes
}

// makeSplits builds map inputs: one split per block normally, or packed
// splits up to MaxSplitSize with CombineFileInputFormat.
func (c *Cluster) makeSplits(job *JobDef) []*split {
	var blocks []*hdfs.Block
	for _, name := range job.Inputs {
		f, ok := c.FS.Lookup(name)
		if !ok {
			panic(fmt.Sprintf("mapred: input %q not in HDFS", name))
		}
		blocks = append(blocks, f.Blocks...)
	}
	var splits []*split
	if !job.CombineInput {
		for _, b := range blocks {
			splits = append(splits, &split{blocks: []*hdfs.Block{b}, size: b.Size})
		}
		return splits
	}
	// CombineFileInputFormat groups blocks by node so a combined split
	// stays data-local; pack within each node's group up to MaxSplitSize.
	byNode := make(map[*hw.Node][]*hdfs.Block)
	var order []*hw.Node
	for _, b := range blocks {
		n := b.Replicas[0].Node
		if _, seen := byNode[n]; !seen {
			order = append(order, n)
		}
		byNode[n] = append(byNode[n], b)
	}
	for _, n := range order {
		cur := &split{}
		for _, b := range byNode[n] {
			if cur.size > 0 && cur.size+b.Size > job.MaxSplitSize {
				splits = append(splits, cur)
				cur = &split{}
			}
			cur.blocks = append(cur.blocks, b)
			cur.size += b.Size
		}
		if cur.size > 0 {
			splits = append(splits, cur)
		}
	}
	return splits
}

// preferredNodes lists NodeManagers holding any block of the split.
func (c *Cluster) preferredNodes(s *split) []*yarn.NodeManager {
	var out []*yarn.NodeManager
	seen := map[*yarn.NodeManager]bool{}
	for _, b := range s.blocks {
		for _, r := range b.Replicas {
			if nm := c.RM.NodeManagerOf(r.Node); nm != nil && !seen[nm] {
				seen[nm] = true
				out = append(out, nm)
			}
		}
	}
	return out
}
