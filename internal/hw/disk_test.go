package hw

import (
	"testing"

	"edisim/internal/sim"
	"edisim/internal/units"
)

// TestDiskSteadyStateNoAlloc pins a read plus a write through the disk's
// FIFO at zero allocations once the operation pool has warmed up.
func TestDiskSteadyStateNoAlloc(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, EdisonSpec().Disk)
	n := 0
	done := func() { n++ }
	for range 4 {
		d.Read(units.MB, false, done)
		d.Write(units.MB, true, done)
	}
	eng.Run()
	avg := testing.AllocsPerRun(200, func() {
		d.Read(units.MB, false, done)
		d.Write(units.MB, true, done)
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state disk operations allocate %.2f allocs/op, want 0", avg)
	}
	if n != 2*(4+201) {
		t.Fatalf("%d operations completed, want %d", n, 2*(4+201))
	}
}

// TestDiskCrashDropsOperations: a crash drops the operation in service and
// the queued ones without their done callbacks, and after the restore a
// new operation starts on an idle device although the dropped one's
// completion event is still pending.
func TestDiskCrashDropsOperations(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, &Platform{Spec: EdisonSpec()}, "e0")
	d := n.Disk()
	dropped := 0
	for range 3 {
		d.Write(4*units.MB, false, func() { dropped++ })
	}
	var doneAt sim.Time
	eng.At(0.2, func() {
		n.Crash()
		n.Restore()
		d.Read(units.MB, true, func() { doneAt = eng.Now() })
	})
	eng.Run()
	if dropped != 0 {
		t.Fatalf("%d dropped operations ran their done callbacks", dropped)
	}
	want := 0.2 + EdisonSpec().Disk.BufRead.Seconds(units.MB)
	if !almost(float64(doneAt), want, 1e-9) {
		t.Fatalf("post-restore read finished at %v, want %v", doneAt, want)
	}
	if d.QueueLen() != 0 || d.Ops() != 4 {
		t.Fatalf("queue %d ops %d after the run, want 0 and 4", d.QueueLen(), d.Ops())
	}
}

// BenchmarkDiskReadWrite measures one direct read plus one buffered write
// through the disk's FIFO in steady state.
func BenchmarkDiskReadWrite(b *testing.B) {
	eng := sim.NewEngine()
	d := NewDisk(eng, EdisonSpec().Disk)
	done := func() {}
	d.Read(units.MB, false, done)
	d.Write(units.MB, true, done)
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read(units.MB, false, done)
		d.Write(units.MB, true, done)
		eng.Run()
	}
}
