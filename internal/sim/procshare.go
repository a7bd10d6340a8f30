package sim

import (
	"fmt"
	"math"
)

// ProcShare models an N-core processor shared by single-threaded tasks
// (egalitarian processor sharing): with m active tasks each runs at
// speed*min(1, N/m). It is the CPU model for web request processing,
// MapReduce containers and benchmark threads.
//
// The implementation uses virtual time: v(t) advances at the common
// per-task rate, each task completes when v reaches its submission v plus
// its work, so arrivals and departures cost O(log m) instead of O(m).
//
// PSTask records are pooled like Event records: Submit takes one from a
// per-processor freelist (grown in chunks) and completion or cancellation
// returns it, so the compute hot path does not allocate in steady state.
// User code never holds *PSTask directly; it holds PSTaskRef handles,
// which stay safe across recycling.
type ProcShare struct {
	eng   *Engine
	cores float64 // effective parallel capacity (cores × HT factor)
	speed float64 // work units per second per core at the current factor
	base  float64 // nominal per-core speed (speed = base × slow factor)

	v        float64 // virtual work served per task so far
	lastT    Time    // when v was last advanced
	tasks    psHeap
	nextDone EventRef

	// free is the PSTask record pool; taskSeq stamps each submission so
	// stale PSTaskRefs are detected after recycling. doneQueue is reusable
	// scratch for one completion round's callbacks; completeFn is the
	// bound complete closure (allocated once instead of per re-arm).
	free       []*PSTask
	taskSeq    uint64
	doneQueue  []func()
	completeFn func()

	// OnActiveChange, when set, is called whenever the number of active
	// tasks changes (after the change); used for utilization/power tracking.
	OnActiveChange func(active int)

	busyIntegral *psBusyIntegral
}

// psBusyIntegral tracks ∫ busyCores dt for utilization accounting.
type psBusyIntegral struct {
	lastT Time
	cur   float64
	area  float64
}

// PSTask is a pooled task record. User code never holds *PSTask directly;
// it holds PSTaskRef handles (see Submit).
type PSTask struct {
	key   float64 // v at which this task completes
	seq   uint64  // unique per submission; 0 while on the freelist
	index int     // heap position; -1 when not in the heap
	done  func()
	work  float64
	ps    *ProcShare
}

// PSTaskRef is a cheap, copyable handle to a submitted task. The zero value
// is inert. A ref stays valid-to-use after its task completes or is
// cancelled: every operation on a dead ref is a no-op.
type PSTaskRef struct {
	t   *PSTask
	seq uint64
}

// live reports whether the ref still names an in-flight task.
func (r PSTaskRef) live() bool { return r.t != nil && r.t.seq == r.seq }

// Active reports whether the task is still in flight (not completed, not
// cancelled).
func (r PSTaskRef) Active() bool { return r.live() }

// Cancel removes the task before completion. Cancelling a completed,
// already-cancelled or zero ref is a no-op.
func (r PSTaskRef) Cancel() {
	if r.live() {
		r.t.ps.cancel(r.t)
	}
}

// psTaskChunk is how many PSTask records the freelist grows by at once.
const psTaskChunk = 64

// allocTask takes a task record from the freelist, growing it when empty.
func (p *ProcShare) allocTask() *PSTask {
	if len(p.free) == 0 {
		chunk := make([]PSTask, psTaskChunk)
		for i := range chunk {
			chunk[i].ps = p
			p.free = append(p.free, &chunk[i])
		}
	}
	t := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return t
}

// recycleTask invalidates outstanding refs and returns the record to the
// pool.
func (p *ProcShare) recycleTask(t *PSTask) {
	t.seq = 0
	t.done = nil // release the closure for GC
	p.free = append(p.free, t)
}

// psHeap is a concrete binary min-heap on PSTask.key (virtual finish time),
// avoiding container/heap's interface boxing on the submit/complete path.
type psHeap []*PSTask

func (h psHeap) siftUp(i int) {
	t := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if h[p].key <= t.key {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = t
	t.index = i
}

func (h psHeap) siftDown(i int) {
	n := len(h)
	t := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].key < h[c].key {
			c++
		}
		if h[c].key >= t.key {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = t
	t.index = i
}

func (h *psHeap) push(t *PSTask) {
	t.index = len(*h)
	*h = append(*h, t)
	h.siftUp(t.index)
}

// remove deletes the task at heap position i and returns it.
func (h *psHeap) remove(i int) *PSTask {
	old := *h
	n := len(old) - 1
	t := old[i]
	if i != n {
		old[i] = old[n]
		old[i].index = i
	}
	old[n] = nil
	*h = old[:n]
	if i < n {
		h.siftDown(i)
		h.siftUp(i)
	}
	t.index = -1
	return t
}

// NewProcShare returns a processor with the given effective core count and
// per-core speed (work units per second).
func NewProcShare(eng *Engine, cores, speedPerCore float64) *ProcShare {
	if cores <= 0 || speedPerCore <= 0 {
		panic("sim: ProcShare needs positive cores and speed")
	}
	p := &ProcShare{
		eng:          eng,
		cores:        cores,
		speed:        speedPerCore,
		base:         speedPerCore,
		lastT:        eng.Now(),
		busyIntegral: &psBusyIntegral{lastT: eng.Now()},
	}
	p.completeFn = p.complete
	return p
}

// rate reports the current per-task service rate in work units per second.
func (p *ProcShare) rate() float64 {
	m := float64(len(p.tasks))
	if m == 0 {
		return 0
	}
	if m <= p.cores {
		return p.speed
	}
	return p.speed * p.cores / m
}

// busyCores reports how many cores are busy right now.
func (p *ProcShare) busyCores() float64 {
	m := float64(len(p.tasks))
	if m > p.cores {
		return p.cores
	}
	return m
}

// advance brings virtual time and the busy integral up to now.
func (p *ProcShare) advance() {
	now := p.eng.Now()
	dt := float64(now - p.lastT)
	if dt > 0 {
		p.v += dt * p.rate()
		p.lastT = now
	}
	bi := p.busyIntegral
	bdt := float64(now - bi.lastT)
	if bdt > 0 {
		bi.area += bi.cur * bdt
		bi.lastT = now
	}
	bi.cur = p.busyCores()
}

// Submit adds a task needing the given amount of work; done runs at
// completion. Zero-work tasks complete via a zero-delay event.
func (p *ProcShare) Submit(work float64, done func()) PSTaskRef {
	if work < 0 {
		panic(fmt.Sprintf("sim: negative work %g", work))
	}
	p.advance()
	p.taskSeq++
	t := p.allocTask()
	t.key = p.v + work
	t.seq = p.taskSeq
	t.done = done
	t.work = work
	p.tasks.push(t)
	p.busyIntegral.cur = p.busyCores()
	p.reschedule()
	if p.OnActiveChange != nil {
		p.OnActiveChange(len(p.tasks))
	}
	return PSTaskRef{t: t, seq: t.seq}
}

// CancelTask removes a task before completion. Cancelling a completed,
// already-cancelled or zero ref is a no-op (equivalent to ref.Cancel).
func (p *ProcShare) CancelTask(r PSTaskRef) { r.Cancel() }

// cancel removes a live task from the heap and recycles its record.
func (p *ProcShare) cancel(t *PSTask) {
	p.advance()
	p.tasks.remove(t.index)
	p.recycleTask(t)
	p.busyIntegral.cur = p.busyCores()
	p.reschedule()
	if p.OnActiveChange != nil {
		p.OnActiveChange(len(p.tasks))
	}
}

// veps is the virtual-time comparison tolerance. It must be RELATIVE to the
// accumulated virtual work: with an absolute epsilon, a long-running
// processor (v ≫ 1) can reach a state where the head task's remaining work
// is positive but the implied delay underflows the simulation clock's
// float64 resolution, livelocking the engine at a single instant.
func (p *ProcShare) veps() float64 {
	v := p.v
	if v < 0 {
		v = -v
	}
	return 1e-9 * (v + 1)
}

// reschedule re-arms the next-completion event for the current head task,
// in place when one is pending (Engine.Rearm).
func (p *ProcShare) reschedule() {
	if len(p.tasks) == 0 {
		p.nextDone.Cancel()
		p.nextDone = EventRef{}
		return
	}
	head := p.tasks[0]
	remaining := head.key - p.v
	if remaining < 0 {
		remaining = 0
	}
	r := p.rate()
	dt := remaining / r
	p.nextDone = p.eng.Rearm(p.nextDone, p.eng.Now()+Time(dt), p.completeFn)
}

// complete pops every task whose virtual finish time has been reached.
// Finished records are recycled before their done callbacks run, so a
// callback submitting new work can reuse them immediately.
func (p *ProcShare) complete() {
	p.nextDone = EventRef{}
	p.advance()
	eps := p.veps()
	// Collect done callbacks in the reusable queue. complete never nests
	// (it only runs as an engine event), and callbacks submit tasks, not
	// callbacks, so iterating the queue below is safe.
	finished := p.doneQueue[:0]
	popped := 0
	for len(p.tasks) > 0 && p.tasks[0].key <= p.v+eps {
		t := p.tasks.remove(0)
		popped++
		if t.done != nil {
			finished = append(finished, t.done)
		}
		p.recycleTask(t)
	}
	p.busyIntegral.cur = p.busyCores()
	p.reschedule()
	if p.OnActiveChange != nil && popped > 0 {
		p.OnActiveChange(len(p.tasks))
	}
	for _, done := range finished {
		done()
	}
	for i := range finished {
		finished[i] = nil
	}
	p.doneQueue = finished[:0]
}

// SetSpeedFactor rescales the per-core speed to factor × the nominal speed
// (the construction-time speedPerCore). It models straggler injection: a
// factor below 1 slows every in-flight and future task proportionally from
// this instant on; factor 1 restores nominal speed. Work already served is
// untouched (virtual time is advanced before the rate changes). The factor
// must be positive and finite — a dead CPU is KillAll, not factor 0.
func (p *ProcShare) SetSpeedFactor(factor float64) {
	if !(factor > 0) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("sim: speed factor %g must be positive and finite", factor))
	}
	p.advance()
	p.speed = p.base * factor
	p.reschedule()
}

// SpeedFactor reports the current speed scaling (1 when never adjusted).
func (p *ProcShare) SpeedFactor() float64 { return p.speed / p.base }

// KillAll drops every in-flight task without running its done callback —
// the CPU side of a node crash. Outstanding PSTaskRefs go stale (every
// operation on them becomes a no-op); recovery is the caller's problem
// (upper-layer timeouts), exactly as with a real power loss.
func (p *ProcShare) KillAll() {
	if len(p.tasks) == 0 {
		return
	}
	p.advance()
	for len(p.tasks) > 0 {
		t := p.tasks.remove(len(p.tasks) - 1)
		p.recycleTask(t)
	}
	p.busyIntegral.cur = 0
	p.reschedule()
	if p.OnActiveChange != nil {
		p.OnActiveChange(0)
	}
}

// Active reports the number of in-flight tasks.
func (p *ProcShare) Active() int { return len(p.tasks) }

// Cores reports the effective core capacity.
func (p *ProcShare) Cores() float64 { return p.cores }

// Speed reports the per-core speed in work units per second.
func (p *ProcShare) Speed() float64 { return p.speed }

// Utilization reports busy cores / total cores at this instant.
func (p *ProcShare) Utilization() float64 { return p.busyCores() / p.cores }

// BusyCoreSeconds reports ∫ busyCores dt up to the current engine time.
func (p *ProcShare) BusyCoreSeconds() float64 {
	bi := p.busyIntegral
	return bi.area + bi.cur*float64(p.eng.Now()-bi.lastT)
}
