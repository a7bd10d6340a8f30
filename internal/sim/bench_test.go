package sim

import "testing"

// BenchmarkSchedule measures the schedule→fire round trip: one event is
// always pending, so every iteration exercises a heap push and pop.
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Step()
	}
}

// BenchmarkScheduleDeep measures push/pop with a deep heap (4096 pending
// events), the regime the web sweeps run in.
func BenchmarkScheduleDeep(b *testing.B) {
	e := NewEngine()
	const depth = 4096
	for i := 0; i < depth; i++ {
		e.After(float64(i)+1e6, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Step()
	}
}

// BenchmarkScheduleCancel measures the schedule→cancel churn that
// ProcShare.reschedule and the netsim flow set generate on every
// arrival/departure.
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := e.After(1, func() {})
		ev.Cancel()
	}
	e.Run()
}

// BenchmarkRearm measures re-keying a live event in place, as ProcShare
// re-arms its completion on every submit, with 4096 other events pending.
func BenchmarkRearm(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 4096; i++ {
		e.After(float64(i)+1e6, func() {})
	}
	fn := func() {}
	ref := e.After(1, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref = e.Rearm(ref, Time(1+i%64), fn)
	}
}

// BenchmarkEngineDrain measures bulk scheduling followed by a full drain,
// in batches so the heap repeatedly grows and empties.
func BenchmarkEngineDrain(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	const batch = 1024
	for i := 0; i < b.N; i += batch {
		for j := 0; j < batch; j++ {
			e.After(float64(j%17)+0.001, func() {})
		}
		e.Run()
	}
}

// BenchmarkProcShare measures task submit/complete through the
// processor-sharing CPU, the hot path of every compute call in the models.
func BenchmarkProcShare(b *testing.B) {
	e := NewEngine()
	p := NewProcShare(e, 2, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Submit(1, func() {})
		e.Run()
	}
}

// BenchmarkProcShareCancel measures submit/cancel churn through the pooled
// task records (speculative work torn down before completion).
func BenchmarkProcShareCancel(b *testing.B) {
	e := NewEngine()
	p := NewProcShare(e, 2, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Submit(1, nil).Cancel()
	}
	e.Run()
}

// BenchmarkScheduleTimers models the pending set of an open-loop web run:
// about 1000 constant-delay timers, nine in ten cancelled before they fire
// (a request timeout whose reply arrived), beside 80 other events that
// keep rescheduling themselves. Each iteration arms a timer, cancels the
// one armed 1024 iterations earlier unless it is every tenth, and fires
// the next event. plain arms the timers with Engine.After, lane on one
// Lane, which keeps all but the earliest out of the heap.
func BenchmarkScheduleTimers(b *testing.B) {
	for _, mode := range []string{"plain", "lane"} {
		b.Run(mode, func(b *testing.B) {
			e := NewEngine()
			arm := e.After
			if mode == "lane" {
				arm = e.NewLane().After
			}
			const others, timeout, lag = 80, 20.0, 1024
			step := 0
			var other func()
			other = func() {
				step++
				e.After(0.5+float64(step*37%64)/64, other)
			}
			for i := 0; i < others; i++ {
				e.After(float64(i)/others, other)
			}
			var timers [lag]EventRef
			fire := func() {}
			run := func(n int) {
				for i := 0; i < n; i++ {
					k := i % lag
					if i%10 != 0 {
						timers[k].Cancel()
					}
					timers[k] = arm(timeout, fire)
					e.Step()
				}
			}
			run(20 * lag) // reach the steady pending set
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}
