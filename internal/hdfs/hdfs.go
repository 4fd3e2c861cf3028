// Package hdfs models the Hadoop Distributed File System as used in §5.2:
// a namenode holding file→block→replica metadata, datanodes storing block
// replicas on their node's disk, block placement with replication, and
// block reads/writes that move real byte counts through the disk and
// network models. The paper's configuration is reproduced by the callers:
// 16 MB blocks and replication 2 on the Edison cluster, 64 MB blocks and
// replication 1 on the Dell cluster (so both see ≈95% data-local maps).
package hdfs

import (
	"fmt"
	"sort"

	"edisim/internal/hw"
	"edisim/internal/netsim"
	"edisim/internal/rng"
	"edisim/internal/units"
)

// BlockID identifies one block of one file.
type BlockID struct {
	File  string
	Index int
}

// String renders "file#idx".
func (b BlockID) String() string { return fmt.Sprintf("%s#%d", b.File, b.Index) }

// Block is the namenode's record of one block.
type Block struct {
	ID       BlockID
	Size     units.Bytes
	Replicas []*DataNode // placement, first is the "primary"
}

// File is the namenode's record of one file.
type File struct {
	Name   string
	Size   units.Bytes
	Blocks []*Block
}

// DataNode stores replicas on one cluster node.
type DataNode struct {
	Node *hw.Node

	vx     netsim.Vertex // Node's fabric vertex
	fs     *FileSystem
	blocks map[BlockID]bool
	used   units.Bytes
	alive  bool
}

// Used reports bytes stored on this datanode.
func (d *DataNode) Used() units.Bytes { return d.used }

// Alive reports whether the datanode is serving.
func (d *DataNode) Alive() bool { return d.alive }

// HasBlock reports whether a replica of b lives here.
func (d *DataNode) HasBlock(b BlockID) bool { return d.blocks[b] }

// FileSystem is the namenode plus the datanode set.
type FileSystem struct {
	BlockSize   units.Bytes
	Replication int

	fab   *netsim.Fabric
	files map[string]*File
	nodes []*DataNode
	rnd   *rng.Source

	// MasterVertex is where the namenode runs (for metadata RPC latency).
	MasterVertex string
}

// New creates a filesystem with the given block size and replication over
// the provided nodes, each a vertex of fab under its ID. master names the
// fabric vertex hosting the namenode.
func New(fab *netsim.Fabric, master string, nodes []*hw.Node, blockSize units.Bytes, replication int, seed int64) *FileSystem {
	if blockSize <= 0 || replication <= 0 {
		panic("hdfs: invalid block size or replication")
	}
	if replication > len(nodes) {
		panic(fmt.Sprintf("hdfs: replication %d exceeds %d datanodes", replication, len(nodes)))
	}
	fs := &FileSystem{
		BlockSize:    blockSize,
		Replication:  replication,
		fab:          fab,
		files:        make(map[string]*File),
		rnd:          rng.New(seed).Derive("hdfs"),
		MasterVertex: master,
	}
	for _, n := range nodes {
		fs.nodes = append(fs.nodes, &DataNode{Node: n, vx: fab.Vertex(n.ID), fs: fs, blocks: make(map[BlockID]bool), alive: true})
	}
	return fs
}

// DataNodes returns the datanode set.
func (fs *FileSystem) DataNodes() []*DataNode { return fs.nodes }

// DataNodeOf finds the datanode on a given hardware node (nil if none).
func (fs *FileSystem) DataNodeOf(n *hw.Node) *DataNode {
	for _, d := range fs.nodes {
		if d.Node == n {
			return d
		}
	}
	return nil
}

// SetNodeAlive flips a datanode's liveness for a TRANSIENT outage: unlike
// FailNode, the replica metadata survives, because the blocks are still on
// the rebooted node's disk when it comes back. While dead the node serves no
// reads and takes no new replicas; readers fail over to surviving replicas
// (see ReadBlock). Unknown nodes are ignored.
func (fs *FileSystem) SetNodeAlive(n *hw.Node, alive bool) {
	if d := fs.DataNodeOf(n); d != nil {
		d.alive = alive
	}
}

// Files reports the stored file names, sorted.
func (fs *FileSystem) Files() []string {
	out := make([]string, 0, len(fs.files))
	for name := range fs.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup returns a file's metadata.
func (fs *FileSystem) Lookup(name string) (*File, bool) {
	f, ok := fs.files[name]
	return f, ok
}

// TotalStored reports bytes across all replicas on all datanodes.
func (fs *FileSystem) TotalStored() units.Bytes {
	var total units.Bytes
	for _, d := range fs.nodes {
		total += d.used
	}
	return total
}

// placeReplicas picks Replication distinct live datanodes, preferring the
// local node first (HDFS's write-path locality), then random remotes.
func (fs *FileSystem) placeReplicas(local *DataNode) []*DataNode {
	var out []*DataNode
	if local != nil && local.alive {
		out = append(out, local)
	}
	perm := fs.rnd.Perm(len(fs.nodes))
	for _, i := range perm {
		if len(out) == fs.Replication {
			break
		}
		d := fs.nodes[i]
		if !d.alive || (local != nil && d == local) {
			continue
		}
		out = append(out, d)
	}
	if len(out) < fs.Replication {
		panic("hdfs: not enough live datanodes for replication")
	}
	return out
}

// CreateInstant registers a file and places its blocks without simulating
// the write I/O — used to set up pre-existing datasets (the paper's input
// files are already in HDFS when jobs start).
func (fs *FileSystem) CreateInstant(name string, size units.Bytes) *File {
	if _, exists := fs.files[name]; exists {
		panic(fmt.Sprintf("hdfs: file %q already exists", name))
	}
	f := &File{Name: name, Size: size}
	for off := units.Bytes(0); off < size || (size == 0 && off == 0); off += fs.BlockSize {
		bs := fs.BlockSize
		if size-off < bs {
			bs = size - off
		}
		b := &Block{ID: BlockID{File: name, Index: len(f.Blocks)}, Size: bs}
		b.Replicas = fs.placeReplicas(nil)
		for _, d := range b.Replicas {
			d.blocks[b.ID] = true
			d.used += bs
		}
		f.Blocks = append(f.Blocks, b)
		if size == 0 {
			break
		}
	}
	fs.files[name] = f
	return f
}

// Write streams a file of the given size from the writer vertex into HDFS:
// each block is pushed over the network to every replica and committed to
// each replica's disk (pipelined per block, sequential across blocks, as
// the HDFS client does). done runs when the last replica commits.
func (fs *FileSystem) Write(writer netsim.Vertex, writerNode *hw.Node, name string, size units.Bytes, done func()) {
	if _, exists := fs.files[name]; exists {
		panic(fmt.Sprintf("hdfs: file %q already exists", name))
	}
	f := &File{Name: name, Size: size}
	fs.files[name] = f

	var local *DataNode
	for _, d := range fs.nodes {
		if writerNode != nil && d.Node == writerNode {
			local = d
		}
	}

	var writeBlock func(off units.Bytes)
	writeBlock = func(off units.Bytes) {
		if off >= size {
			if done != nil {
				done()
			}
			return
		}
		bs := fs.BlockSize
		if size-off < bs {
			bs = size - off
		}
		b := &Block{ID: BlockID{File: name, Index: len(f.Blocks)}, Size: bs}
		b.Replicas = fs.placeReplicas(local)
		f.Blocks = append(f.Blocks, b)

		remaining := len(b.Replicas)
		for _, d := range b.Replicas {
			d := d
			fs.fab.StartFlow(writer, d.vx, bs, func() {
				d.Node.Disk().Write(bs, true, func() {
					d.blocks[b.ID] = true
					d.used += bs
					remaining--
					if remaining == 0 {
						writeBlock(off + bs)
					}
				})
			})
		}
	}
	writeBlock(0)
}

// readProbeInterval and maxReadProbes bound a reader's wait for a replica to
// come back from a transient outage: one probe per second for ten minutes,
// then the read is silently abandoned (the caller's watchdog owns recovery).
// The bound keeps the event stream finite when nothing ever recovers.
const (
	readProbeInterval = 1.0
	maxReadProbes     = 600
)

// ReadBlock delivers one block to the reader vertex: a local disk read when
// a replica is co-located, otherwise a remote replica's disk read plus a
// network flow. It reports whether the read was data-local.
//
// When every replica is down but still registered (a transient outage, see
// SetNodeAlive) the read probes once a second until a replica returns, up to
// maxReadProbes; a block with NO registered replicas is permanent data loss
// (FailNode removed them) and panics, as before.
func (fs *FileSystem) ReadBlock(reader netsim.Vertex, readerNode *hw.Node, b *Block, done func()) (local bool) {
	// Prefer a replica on the reading node.
	for _, d := range b.Replicas {
		if d.alive && readerNode != nil && d.Node == readerNode {
			d.Node.Disk().Read(b.Size, true, done)
			return true
		}
	}
	fs.remoteRead(reader, b, done, 0)
	return false
}

// remoteRead reads from the first live replica, retrying while every replica
// is transiently dead.
func (fs *FileSystem) remoteRead(reader netsim.Vertex, b *Block, done func(), probes int) {
	for _, d := range b.Replicas {
		if !d.alive {
			continue
		}
		d := d
		d.Node.Disk().Read(b.Size, true, func() {
			fs.fab.StartFlow(d.vx, reader, b.Size, done)
		})
		return
	}
	if len(b.Replicas) == 0 {
		panic(fmt.Sprintf("hdfs: no live replica of %v", b.ID))
	}
	if probes >= maxReadProbes {
		return // abandoned: the caller's timeout machinery takes over
	}
	fs.fab.Engine().After(readProbeInterval, func() {
		fs.remoteRead(reader, b, done, probes+1)
	})
}

// FailNode marks a datanode dead: its replicas are lost, and every block it
// held is re-replicated from a surviving replica onto a fresh node (HDFS's
// recovery path). done receives the number of blocks re-replicated. Blocks
// whose only replica lived on d stay under-replicated (data loss), which
// CheckInvariants reports.
func (fs *FileSystem) FailNode(d *DataNode, done func(reReplicated int)) {
	if !d.alive {
		panic("hdfs: failing a dead datanode")
	}
	d.alive = false

	type job struct {
		b    *Block
		from *DataNode
		to   *DataNode
	}
	var jobs []job
	// Deterministic file order (map iteration would perturb placement).
	for _, name := range fs.Files() {
		f := fs.files[name]
		for _, b := range f.Blocks {
			held := false
			var survivors []*DataNode
			for _, r := range b.Replicas {
				if r == d {
					held = true
				} else {
					survivors = append(survivors, r)
				}
			}
			if !held {
				continue
			}
			// The dead node's replica is gone.
			b.Replicas = survivors
			var live []*DataNode
			for _, r := range survivors {
				if r.alive {
					live = append(live, r)
				}
			}
			if len(live) == 0 {
				continue // data loss; nothing to copy from
			}
			// Choose a live target not already holding the block.
			var target *DataNode
			for _, i := range fs.rnd.Perm(len(fs.nodes)) {
				cand := fs.nodes[i]
				if cand.alive && !cand.blocks[b.ID] {
					target = cand
					break
				}
			}
			if target == nil {
				continue
			}
			b.Replicas = append(b.Replicas, target)
			jobs = append(jobs, job{b: b, from: live[0], to: target})
		}
	}
	// Lost replicas no longer occupy the dead node's storage accounting.
	d.blocks = make(map[BlockID]bool)
	d.used = 0
	if len(jobs) == 0 {
		if done != nil {
			done(0)
		}
		return
	}
	remaining := len(jobs)
	for _, j := range jobs {
		j := j
		j.from.Node.Disk().Read(j.b.Size, true, func() {
			fs.fab.StartFlow(j.from.vx, j.to.vx, j.b.Size, func() {
				j.to.Node.Disk().Write(j.b.Size, true, func() {
					j.to.blocks[j.b.ID] = true
					j.to.used += j.b.Size
					remaining--
					if remaining == 0 && done != nil {
						done(len(jobs))
					}
				})
			})
		})
	}
}

// CheckInvariants verifies metadata consistency: every block has between 1
// and Replication live replicas on distinct nodes, and datanode byte
// accounting matches block sizes. It returns an error describing the first
// violation.
func (fs *FileSystem) CheckInvariants() error {
	expected := make(map[*DataNode]units.Bytes)
	for _, f := range fs.files {
		for _, b := range f.Blocks {
			seen := make(map[*DataNode]bool)
			live := 0
			for _, r := range b.Replicas {
				if seen[r] {
					return fmt.Errorf("hdfs: duplicate replica of %v", b.ID)
				}
				seen[r] = true
				if r.alive {
					live++
				}
				if !r.blocks[b.ID] {
					return fmt.Errorf("hdfs: replica map missing %v", b.ID)
				}
				expected[r] += b.Size
			}
			if live == 0 {
				return fmt.Errorf("hdfs: block %v has no live replica", b.ID)
			}
			if len(b.Replicas) > fs.Replication+1 {
				return fmt.Errorf("hdfs: block %v over-replicated", b.ID)
			}
		}
	}
	for _, d := range fs.nodes {
		if d.used != expected[d] {
			return fmt.Errorf("hdfs: datanode %s accounts %v, blocks sum to %v",
				d.Node.ID, d.used, expected[d])
		}
	}
	return nil
}
