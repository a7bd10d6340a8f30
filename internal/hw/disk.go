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

	readBytes, writeBytes units.Bytes
	ops                   int64

	// free is the operation record pool (see diskOp).
	free []*diskOp
}

// diskOp is one read or write on a pooled record whose continuations are
// bound once, so an operation allocates nothing in steady state: start
// runs when the FIFO hands the operation the device and schedules finish
// after the service time.
type diskOp struct {
	d       *Disk
	service float64
	gen     uint64 // the disk's generation at submission
	done    func()

	startFn, finishFn func()
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
	d.writeBytes += size
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
	op := d.allocOp()
	op.service = service
	op.gen = d.gen
	op.done = done
	d.q.Acquire(op.startFn)
}

// allocOp takes an operation record from the pool, making one when empty.
func (d *Disk) allocOp() *diskOp {
	if len(d.free) == 0 {
		op := &diskOp{d: d}
		op.startFn, op.finishFn = op.start, op.finish
		return op
	}
	op := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	return op
}

// start holds the device for the operation's service time.
func (op *diskOp) start() { op.d.eng.After(op.service, op.finishFn) }

// finish releases the device and runs done, unless the operation was
// killed while in service. The record is recycled first, so done can
// reuse it at once.
func (op *diskOp) finish() {
	d, done := op.d, op.done
	killed := op.gen != d.gen
	op.done = nil // release the closure for GC
	d.free = append(d.free, op)
	if killed {
		return
	}
	d.q.Release()
	if done != nil {
		done()
	}
}

// killAll drops every queued and in-service operation without running its
// done callback — the disk side of a node crash. The FIFO is replaced
// wholesale, taking the queued operations' records with it; stale
// completion events detect the generation bump and expire.
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

// BytesWritten reports cumulative write volume.
func (d *Disk) BytesWritten() units.Bytes { return d.writeBytes }
