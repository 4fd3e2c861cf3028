package hw

import (
	"edisim/internal/sim"
	"edisim/internal/units"
)

// Disk is a FIFO storage device: one operation in service at a time, the
// rest queued, with per-operation latency plus size/throughput service time
// taken from the platform's measured DiskSpec (Table 5).
type Disk struct {
	eng  *sim.Engine
	spec DiskSpec
	q    *sim.Resource

	// down black-holes new operations (node crash); gen invalidates the
	// completion events of operations in flight at kill time; rate scales
	// service times for straggler injection (0 = never set = nominal).
	down bool
	gen  uint64
	rate float64

	readBytes units.Bytes
	ops       int64
}

// NewDisk returns an idle disk with the given measured characteristics.
func NewDisk(eng *sim.Engine, spec DiskSpec) *Disk {
	return &Disk{eng: eng, spec: spec, q: sim.NewResource(eng, 1)}
}

// Read schedules a read of size bytes; buffered reads hit the page cache
// rate, direct reads the device rate. done runs when the data is available.
func (d *Disk) Read(size units.Bytes, buffered bool, done func()) {
	rate := d.spec.Read
	lat := d.spec.ReadLatency
	if buffered {
		rate = d.spec.BufRead
		lat = 0 // page-cache hit: no device latency
	}
	d.readBytes += size
	d.submit(lat+rate.Seconds(size), done)
}

// Write schedules a write of size bytes; buffered writes return at the
// page-cache rate, direct (dsync) writes at the committed-to-device rate.
func (d *Disk) Write(size units.Bytes, buffered bool, done func()) {
	rate := d.spec.Write
	lat := d.spec.WriteLatency
	if buffered {
		rate = d.spec.BufWrite
		lat = d.spec.WriteLatency / 4 // amortized by write-back
	}
	d.submit(lat+rate.Seconds(size), done)
}

func (d *Disk) submit(service float64, done func()) {
	if d.down {
		return // black hole: the device is dead, done never runs
	}
	if d.rate > 0 && d.rate != 1 {
		service /= d.rate
	}
	d.ops++
	gen := d.gen
	d.q.Acquire(func() {
		d.eng.After(service, func() {
			if gen != d.gen {
				return // killed while in service
			}
			d.q.Release()
			if done != nil {
				done()
			}
		})
	})
}

// killAll drops every queued and in-service operation without running its
// done callback — the disk side of a node crash. The FIFO is replaced
// wholesale; stale completion events detect the generation bump and expire.
func (d *Disk) killAll() {
	d.down = true
	d.gen++
	d.q = sim.NewResource(d.eng, 1)
}

// restore re-opens a killed disk for new operations (reboot: the device is
// empty, any data-level consequences are the storage layer's to model).
func (d *Disk) restore() { d.down = false }

// setRateFactor rescales service times to nominal/factor (straggler
// injection). The caller (hw.Node.SetSlowFactor) validates the factor.
func (d *Disk) setRateFactor(factor float64) { d.rate = factor }

// QueueLen reports queued (not yet in service) operations.
func (d *Disk) QueueLen() int { return d.q.QueueLen() }

// Ops reports the total number of operations submitted.
func (d *Disk) Ops() int64 { return d.ops }

// BytesRead reports cumulative read volume.
func (d *Disk) BytesRead() units.Bytes { return d.readBytes }
