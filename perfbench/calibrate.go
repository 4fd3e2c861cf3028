package main

import "time"

// The benchmark runs on shared machines whose speed drifts by tens of
// percent over minutes as neighbours load the host. Host times are
// therefore reported at a reference machine speed: a fixed kernel that calls
// no simulator code runs between points, and each pass's times are scaled
// by the kernel's nominal duration over its measured one. A change to the
// simulator moves the scaled times; a slower or faster host moves the kernel
// too and cancels out.

// calNominal defines the reference machine: one on which a kernel call
// takes exactly this long.
const calNominal = time.Millisecond

// calState is the kernel's fixed working set: a 4-ary min-heap, a hash map
// and a permutation to chase, the access patterns an event-driven
// simulator makes.
type calState struct {
	heap  []uint64
	table map[uint64]uint32
	chain []uint32
}

func newCalState() *calState {
	c := &calState{heap: make([]uint64, 2048), table: make(map[uint64]uint32, 4096), chain: make([]uint32, 1<<16)}
	x := uint64(1)
	for i := range c.heap {
		x = lcg(x)
		c.heap[i] = x >> 1
		c.siftDown(i)
	}
	for i := uint64(0); i < 4096; i++ {
		c.table[i*2654435761] = uint32(i)
	}
	for i := range c.chain {
		c.chain[i] = uint32((i*40503 + 7) % len(c.chain))
	}
	return c
}

func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

func (c *calState) siftDown(i int) {
	h := c.heap
	for {
		min := i
		for k := 4*i + 1; k <= 4*i+4 && k < len(h); k++ {
			if h[k] < h[min] {
				min = k
			}
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// calIters sizes one kernel call to about calNominal.
const calIters = 5000

// calNode is the kernel's short-lived allocation: the simulator allocates
// as it runs, and a collector sharing the host with a busy neighbour slows
// it down, so the kernel allocates too.
type calNode struct {
	key  uint64
	next *calNode
	pad  [4]uint64
}

// run executes the kernel once and returns its duration.
func (c *calState) run() time.Duration {
	start := time.Now()
	x, j, acc := uint64(7), uint32(0), uint32(0)
	var list *calNode
	for i := 0; i < calIters; i++ {
		x = lcg(x)
		c.heap[0] = c.heap[0] + x>>40 // replace the minimum with a later key
		c.siftDown(0)
		acc += c.table[(x>>52)*2654435761]
		j = c.chain[(j+uint32(x))%uint32(len(c.chain))]
		if i%2 == 0 {
			list = &calNode{key: x, next: list}
		}
		if i%64 == 0 {
			list = nil
		}
	}
	calSink += acc + j
	calList = list
	return time.Since(start)
}

var (
	calSink uint32
	calList *calNode
)
