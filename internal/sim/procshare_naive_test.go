package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// NaiveProcShare is a reference implementation of egalitarian processor
// sharing that rescans every task on each arrival/departure: O(n) per event
// versus ProcShare's O(log n) virtual-time scheme. It is the correctness
// oracle for the equivalence property test and the baseline for the
// ablation benchmark below; simulations use ProcShare.
type NaiveProcShare struct {
	eng   *Engine
	cores float64
	speed float64

	tasks    []*naiveTask
	lastT    Time
	nextDone EventRef
}

type naiveTask struct {
	remaining float64
	done      func()
}

// NewNaiveProcShare mirrors NewProcShare.
func NewNaiveProcShare(eng *Engine, cores, speedPerCore float64) *NaiveProcShare {
	if cores <= 0 || speedPerCore <= 0 {
		panic("sim: NaiveProcShare needs positive cores and speed")
	}
	return &NaiveProcShare{eng: eng, cores: cores, speed: speedPerCore, lastT: eng.Now()}
}

func (p *NaiveProcShare) rate() float64 {
	m := float64(len(p.tasks))
	if m == 0 {
		return 0
	}
	if m <= p.cores {
		return p.speed
	}
	return p.speed * p.cores / m
}

// advance credits elapsed service to every task.
func (p *NaiveProcShare) advance() {
	now := p.eng.Now()
	dt := float64(now - p.lastT)
	p.lastT = now
	if dt <= 0 {
		return
	}
	served := dt * p.rate()
	for _, t := range p.tasks {
		t.remaining -= served
	}
}

// Submit mirrors ProcShare.Submit.
func (p *NaiveProcShare) Submit(work float64, done func()) {
	if work < 0 {
		panic("sim: negative work")
	}
	p.advance()
	p.tasks = append(p.tasks, &naiveTask{remaining: work, done: done})
	p.reschedule()
}

func (p *NaiveProcShare) reschedule() {
	p.nextDone.Cancel()
	p.nextDone = EventRef{}
	if len(p.tasks) == 0 {
		return
	}
	min := p.tasks[0].remaining
	for _, t := range p.tasks[1:] {
		if t.remaining < min {
			min = t.remaining
		}
	}
	if min < 0 {
		min = 0
	}
	p.nextDone = p.eng.After(min/p.rate(), p.complete)
}

func (p *NaiveProcShare) complete() {
	p.nextDone = EventRef{}
	p.advance()
	eps := 1e-9 * (1 + absf(p.servedScale()))
	var finished []*naiveTask
	var live []*naiveTask
	for _, t := range p.tasks {
		if t.remaining <= eps {
			finished = append(finished, t)
		} else {
			live = append(live, t)
		}
	}
	p.tasks = live
	p.reschedule()
	for _, t := range finished {
		if t.done != nil {
			t.done()
		}
	}
}

// servedScale estimates the magnitude of accumulated service for a relative
// epsilon, mirroring ProcShare's livelock guard.
func (p *NaiveProcShare) servedScale() float64 {
	return float64(p.eng.Now()) * p.speed
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Active reports in-flight tasks.
func (p *NaiveProcShare) Active() int { return len(p.tasks) }

// TestProcShareMatchesNaiveOracle drives both implementations with an
// identical randomized workload (staggered arrivals, varying sizes) and
// requires identical completion times to within numerical tolerance.
func TestProcShareMatchesNaiveOracle(t *testing.T) {
	type arrival struct {
		at   float64
		work float64
	}
	run := func(arrivals []arrival, fast bool) []float64 {
		eng := NewEngine()
		var times []float64
		collect := func() { times = append(times, float64(eng.Now())) }
		if fast {
			p := NewProcShare(eng, 3, 100)
			for _, a := range arrivals {
				a := a
				eng.At(Time(a.at), func() { p.Submit(a.work, collect) })
			}
		} else {
			p := NewNaiveProcShare(eng, 3, 100)
			for _, a := range arrivals {
				a := a
				eng.At(Time(a.at), func() { p.Submit(a.work, collect) })
			}
		}
		eng.Run()
		return times
	}
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		var arrivals []arrival
		for i, r := range raw {
			arrivals = append(arrivals, arrival{
				at:   float64(i%7) * 0.25,
				work: float64(r%5000)/10 + 1,
			})
		}
		a := run(arrivals, true)
		b := run(arrivals, false)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			tol := 1e-6 * (1 + math.Abs(b[i]))
			if math.Abs(a[i]-b[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveProcShareBasic(t *testing.T) {
	eng := NewEngine()
	p := NewNaiveProcShare(eng, 1, 100)
	var t1, t2 Time
	p.Submit(100, func() { t1 = eng.Now() })
	p.Submit(100, func() { t2 = eng.Now() })
	eng.Run()
	if !almost(float64(t1), 2.0, 1e-9) || !almost(float64(t2), 2.0, 1e-9) {
		t.Fatalf("naive PS: %v, %v, want 2.0 both", t1, t2)
	}
	if p.Active() != 0 {
		t.Fatal("tasks left behind")
	}
}

// benchPS measures event-processing cost with n concurrent tasks.
func benchPS(b *testing.B, n int, fast bool) {
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		if fast {
			p := NewProcShare(eng, 4, 100)
			for j := 0; j < n; j++ {
				p.Submit(float64(j%17)+1, nil)
			}
		} else {
			p := NewNaiveProcShare(eng, 4, 100)
			for j := 0; j < n; j++ {
				p.Submit(float64(j%17)+1, nil)
			}
		}
		eng.Run()
	}
}

// Ablation: virtual-time PS vs naive rescan PS.
func BenchmarkAblation_ProcShareVirtualTime_1000(b *testing.B) { benchPS(b, 1000, true) }
func BenchmarkAblation_ProcShareNaive_1000(b *testing.B)       { benchPS(b, 1000, false) }
