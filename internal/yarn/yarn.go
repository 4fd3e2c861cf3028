// Package yarn models Hadoop YARN as configured in §5.2: a ResourceManager
// that grants containers against per-node memory/vcore capacities via
// heartbeat-driven allocation, NodeManagers on every slave, and container
// launch overheads (JVM spin-up) that differ sharply between platforms.
// The paper's key operational finding is reproduced structurally: an
// Edison node cannot host the ResourceManager/NameNode (insufficient RAM),
// so the Edison cluster runs a hybrid with a Dell master.
package yarn

import (
	"fmt"
	"slices"

	"edisim/internal/hw"
	"edisim/internal/sim"
	"edisim/internal/units"
)

// NodeResources is the nameplate capacity a NodeManager offers (§5.2:
// 600 MB / 2 vcores on Edison, 12 GB / 12 vcores on Dell).
type NodeResources struct {
	MemoryMB int
	VCores   int
}

// ContainerRequest asks for one container of the given size.
type ContainerRequest struct {
	MemoryMB int
	VCores   int
	// PreferredNodes lists nodes whose local data make them better hosts
	// (HDFS locality); the scheduler tries them first.
	PreferredNodes []*NodeManager
	// Priority orders pending requests: higher first, FIFO within equal
	// priorities. MapReduce AMs use it to let a few early reducers start
	// shuffling ahead of the queued map backlog.
	Priority int
}

// Container is a granted allocation on a node.
type Container struct {
	Node *NodeManager
	Req  ContainerRequest

	released bool
}

// NodeManager tracks one slave's available resources.
type NodeManager struct {
	Node *hw.Node

	capacity NodeResources
	usedMem  int
	usedVC   int

	// unusable excludes the node from placement — crashed, unreachable or
	// blacklisted by an application master. Already-granted containers are
	// the application's to clean up (as in YARN, where the RM only learns of
	// their fate from heartbeats).
	unusable bool
}

// Available reports free resources.
func (nm *NodeManager) Available() NodeResources {
	return NodeResources{MemoryMB: nm.capacity.MemoryMB - nm.usedMem, VCores: nm.capacity.VCores - nm.usedVC}
}

// Capacity reports configured resources.
func (nm *NodeManager) Capacity() NodeResources { return nm.capacity }

func (nm *NodeManager) fits(r ContainerRequest) bool {
	return nm.capacity.MemoryMB-nm.usedMem >= r.MemoryMB && nm.capacity.VCores-nm.usedVC >= r.VCores
}

// ResourceManager grants containers over the slave set.
type ResourceManager struct {
	eng *sim.Engine

	// Master is the node hosting the RM + namenode (a Dell server in every
	// paper configuration; see §5.2).
	Master *hw.Node

	nodes []*NodeManager
	// pending is kept in service order — priority descending, FIFO within
	// a priority — by Request, so heartbeats never sort it.
	pending []pendingReq

	// HeartbeatInterval is the NM→RM heartbeat period gating allocation
	// (Hadoop default 1 s).
	HeartbeatInterval float64
	// GrantsPerHeartbeat caps how many containers the RM hands out per
	// heartbeat round, modeling RM scheduling throughput.
	GrantsPerHeartbeat int
	// ContainerStartup is the platform-dependent JVM launch time added
	// before a granted container begins useful work.
	ContainerStartup func(n *hw.Node) float64

	granted int64
	ticking bool
	tickFn  func() // tick, bound once so arming a heartbeat does not allocate
}

type pendingReq struct {
	req    ContainerRequest
	done   func(*Container)
	waited int // heartbeat rounds spent waiting for a data-local node
}

// delayRounds is how many heartbeat rounds a request with locality
// preferences waits for a preferred node before accepting any node (delay
// scheduling; this is how both clusters reach ≈95% data-local maps, §5.2).
const delayRounds = 4

// MasterMemoryMB is what namenode+RM consume on the master — far beyond an
// Edison node's 1 GB (§5.2: "a single Edison node cannot fulfill
// resource-intensive tasks").
const MasterMemoryMB = 8 * 1024

// ErrMasterTooSmall reports that the chosen master cannot host RM+namenode.
var ErrMasterTooSmall = fmt.Errorf("yarn: master node lacks memory for ResourceManager+NameNode (needs %d MB)", MasterMemoryMB)

// NewResourceManager builds an RM on master over the given slaves. It
// fails with ErrMasterTooSmall when the master cannot hold the daemons,
// reproducing the paper's failed Edison-master experiments.
func NewResourceManager(eng *sim.Engine, master *hw.Node, slaves []*hw.Node, res func(n *hw.Node) NodeResources) (*ResourceManager, error) {
	if err := master.AllocMem(units.Bytes(MasterMemoryMB) * units.MB); err != nil {
		return nil, ErrMasterTooSmall
	}
	rm := &ResourceManager{
		eng:                eng,
		Master:             master,
		HeartbeatInterval:  1.0,
		GrantsPerHeartbeat: 24,
		ContainerStartup:   DefaultContainerStartup,
	}
	rm.tickFn = rm.tick
	for _, s := range slaves {
		nm := &NodeManager{Node: s, capacity: res(s)}
		rm.nodes = append(rm.nodes, nm)
	}
	return rm, nil
}

// DefaultResources returns the node platform's NodeManager capacity from
// the hw catalog (§5.2 for the baseline pair). Ad-hoc specs outside the
// catalog fall back to a sensor-class-vs-server heuristic on clock speed.
func DefaultResources(n *hw.Node) NodeResources {
	if p := hw.PlatformForSpec(n.Spec.Name); p != nil {
		return NodeResources{MemoryMB: p.Hadoop.NodeMemoryMB, VCores: p.Hadoop.VCores}
	}
	if n.Spec.CPU.Clock < 1000 {
		return NodeResources{MemoryMB: 600, VCores: 2}
	}
	return NodeResources{MemoryMB: 12 * 1024, VCores: 12}
}

// DefaultContainerStartup returns the node platform's JVM + container
// localization time from the hw catalog: the paper's traces show ≈20 s of
// ramp on the brawny cluster and ≈45 s (2.3×) on the micro cluster before
// CPU rises.
func DefaultContainerStartup(n *hw.Node) float64 {
	if p := hw.PlatformForSpec(n.Spec.Name); p != nil {
		return p.Hadoop.ContainerStartup
	}
	if n.Spec.CPU.Clock < 1000 {
		return 12.0
	}
	return 2.5
}

// Nodes returns the NodeManagers.
func (rm *ResourceManager) Nodes() []*NodeManager { return rm.nodes }

// Granted reports the total containers granted.
func (rm *ResourceManager) Granted() int64 { return rm.granted }

// Request queues a container request; done runs (after the heartbeat
// allocation delay and JVM startup) with the granted container. The
// request goes after the last pending request of equal or higher priority:
// the order a stable sort by descending priority gives the arrival order.
func (rm *ResourceManager) Request(req ContainerRequest, done func(*Container)) {
	i := len(rm.pending)
	for i > 0 && rm.pending[i-1].req.Priority < req.Priority {
		i--
	}
	rm.pending = slices.Insert(rm.pending, i, pendingReq{req: req, done: done})
	rm.ensureTicking()
}

func (rm *ResourceManager) ensureTicking() {
	if rm.ticking {
		return
	}
	rm.ticking = true
	rm.eng.After(rm.HeartbeatInterval, rm.tickFn)
}

// tick is one heartbeat round: grant up to GrantsPerHeartbeat pending
// requests onto nodes with room, preferring data-local nodes. Requests are
// served in pending order (by priority, FIFO within a class); granted ones
// are filtered out in place.
//
// A grant only shrinks free capacity, and nothing frees any within a tick,
// so once a request's search of every node fails, no request at least as
// large in both dimensions can fit anywhere this tick either. Such requests
// skip place and count the round as waited, exactly as a failed place
// would, so grants and delay scheduling are unchanged. On a full cluster a
// heartbeat then costs one node scan per distinct request size instead of
// one per pending request.
func (rm *ResourceManager) tick() {
	rm.ticking = false
	grants := 0
	var noFit NodeResources // the smallest request whose search of every node failed
	haveNoFit := false
	kept := 0
	for i := range rm.pending {
		p := &rm.pending[i]
		if grants < rm.GrantsPerHeartbeat {
			var nm *NodeManager
			if !haveNoFit || p.req.MemoryMB < noFit.MemoryMB || p.req.VCores < noFit.VCores {
				anyNode := p.waited >= delayRounds
				nm = rm.place(p.req, anyNode)
				if nm == nil && (anyNode || len(p.req.PreferredNodes) == 0) &&
					(!haveNoFit || p.req.MemoryMB <= noFit.MemoryMB && p.req.VCores <= noFit.VCores) {
					noFit, haveNoFit = NodeResources{MemoryMB: p.req.MemoryMB, VCores: p.req.VCores}, true
				}
			}
			if nm != nil {
				rm.grant(nm, p.req, p.done)
				grants++
				continue
			}
			p.waited++
		}
		if kept != i {
			rm.pending[kept] = *p
		}
		kept++
	}
	clear(rm.pending[kept:]) // release the granted requests' callbacks
	rm.pending = rm.pending[:kept]
	if len(rm.pending) > 0 {
		rm.ensureTicking()
	}
}

// grant books req's container on nm; done runs once the container starts.
func (rm *ResourceManager) grant(nm *NodeManager, req ContainerRequest, done func(*Container)) {
	rm.granted++
	nm.usedMem += req.MemoryMB
	nm.usedVC += req.VCores
	c := &Container{Node: nm, Req: req}
	rm.eng.After(rm.ContainerStartup(nm.Node), func() { done(c) })
}

// place chooses a node for the request: preferred (data-local) first; any
// fitting node only once the request has waited out its delay-scheduling
// rounds (or has no preference).
func (rm *ResourceManager) place(req ContainerRequest, anyNode bool) *NodeManager {
	for _, nm := range req.PreferredNodes {
		if !nm.unusable && nm.fits(req) {
			return nm
		}
	}
	if len(req.PreferredNodes) > 0 && !anyNode {
		return nil
	}
	var best *NodeManager
	for _, nm := range rm.nodes {
		if nm.unusable || !nm.fits(req) {
			continue
		}
		if best == nil || nm.Available().MemoryMB > best.Available().MemoryMB {
			best = nm
		}
	}
	return best
}

// Release returns a container's resources; the next heartbeat can reuse
// them. Releasing twice panics (it is always an accounting bug).
func (rm *ResourceManager) Release(c *Container) {
	if c.released {
		panic("yarn: double release of container")
	}
	c.released = true
	c.Node.usedMem -= c.Req.MemoryMB
	c.Node.usedVC -= c.Req.VCores
	if len(rm.pending) > 0 {
		rm.ensureTicking()
	}
}

// SetNodeUsable includes or excludes a node from container placement
// (failure detection and blacklisting). Unknown nodes are ignored. Toggling
// usability never touches granted containers or queued requests; a request
// that can no longer be placed simply keeps waiting for the next heartbeat.
func (rm *ResourceManager) SetNodeUsable(n *hw.Node, usable bool) {
	if nm := rm.NodeManagerOf(n); nm != nil {
		nm.unusable = !usable
	}
}

// NodeManagerOf finds the NodeManager for a given hardware node.
func (rm *ResourceManager) NodeManagerOf(n *hw.Node) *NodeManager {
	for _, nm := range rm.nodes {
		if nm.Node == n {
			return nm
		}
	}
	return nil
}
