package web

import (
	"math"
	"testing"

	"edisim/internal/sim"
)

// TestWebConnSteadyStateNoAlloc pins the pooled connection path —
// handshake, accept, the request loop, close and recycling — at zero
// allocations per connection once the connection, SYN, request, event,
// message and PS-task pools have warmed up. Connections are launched
// directly on a run state, without Run's per-run set-up.
func TestWebConnSteadyStateNoAlloc(t *testing.T) {
	cases := []struct {
		name string
		cfg  RunConfig
		// span is the simulated time one connection is given to finish.
		span float64
	}{
		{name: "closed-loop", cfg: RunConfig{Concurrency: 1, Duration: 1e4}, span: 0.5},
		// Every attempt times out (the timeout is far below a request's
		// service time), is abandoned and retried after backoff until the
		// retry limit fails the call; the late replies keep arriving at
		// recycled records.
		{name: "recovery", cfg: RunConfig{Concurrency: 1, Duration: 1e4, RequestTimeout: 1e-4}, span: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := smallTestbed(microP(), 9, 2, 4)
			d := NewDeployment(tb, microP(), 6, 3, 1)
			d.Warm(1.0)
			eng := d.Eng
			// Both cases measure inside the window, the in-window
			// bookkeeping (latency digests, counters) included.
			rs := d.begin(tc.cfg.withDefaults())
			eng.RunUntil(rs.winStart)
			launch := func(i int) {
				rs.launch(d.clients[i%len(d.clients)], d.Web[i%len(d.Web)])
				eng.RunUntil(eng.Now() + sim.Time(tc.span))
			}
			for i := 0; i < 100; i++ {
				launch(i)
			}
			// Each measurement is one run of 200 connections, so
			// AllocsPerRun, which divides by the run count, reports the
			// exact total. The minimum over three batches discounts a stray
			// allocation by another goroutine (the test runner finishing the
			// previous test); one on the connection path shows in every batch.
			const conns = 200
			allocs := math.Inf(1)
			for range 3 {
				allocs = min(allocs, testing.AllocsPerRun(1, func() {
					for i := 0; i < conns; i++ {
						launch(1)
					}
				}))
			}
			if allocs != 0 {
				t.Fatalf("%d steady-state connections allocated %v times, want 0", conns, allocs)
			}
			if d.Web[1].activeConns != 0 || len(d.conns.free) != 64 {
				t.Fatalf("connections left open: %d active, %d of 64 records free", d.Web[1].activeConns, len(d.conns.free))
			}
			if !rs.inWindow() {
				t.Fatal("measured past the measurement window")
			}
			if tc.cfg.RequestTimeout == 0 && rs.served == 0 {
				t.Fatal("closed-loop case served nothing")
			}
			if tc.cfg.RequestTimeout > 0 && (rs.res.Timeouts == 0 || rs.res.Retries == 0 || rs.errored == 0) {
				t.Fatalf("recovery stage not exercised: timeouts=%d retries=%d errored=%d", rs.res.Timeouts, rs.res.Retries, rs.errored)
			}
		})
	}
}

// TestWebConnStaleSafety: a reply that arrives after its attempt timed out
// never settles a connection record — in particular not one that has been
// recycled and is serving the next connection. Every attempt here times
// out, so every reply is late and no operation may count as served; the
// second connection reuses the first one's record while the first one's
// replies are still in flight.
func TestWebConnStaleSafety(t *testing.T) {
	d := smallDeployment(t, microP(), 6, 3)
	eng := d.Eng
	rs := d.begin(RunConfig{Concurrency: 1, CallsPerConn: 1, Duration: 1000,
		RequestTimeout: 1e-4, MaxRetries: 1, RetryBase: 1e-5}.withDefaults())
	eng.RunUntil(rs.winStart)
	settled := func() int64 { return rs.served + rs.errored }
	step := func() {
		if !eng.Step() {
			t.Fatal("engine drained early")
		}
	}

	rs.launch(d.clients[0], d.Web[0])
	for settled() == 0 {
		step()
	}
	rec := d.conns.free[len(d.conns.free)-1] // the first connection's record, recycled
	rs.launch(d.clients[1], d.Web[0])
	if rec.rs != rs {
		t.Fatal("second connection did not reuse the recycled record")
	}
	late := 0
	for rec.rs != nil { // until the second connection recycles the record
		free := len(d.reqs.free)
		step()
		if len(d.reqs.free) > free && rec.rs != nil {
			late++ // a reply reached the client and the record stayed live
		}
	}
	for eng.Step() {
	}
	if late == 0 {
		t.Fatal("no late reply reached the reused record; the scenario lost its point")
	}
	if rs.served != 0 || rs.errored != 2 || settled() != 2 {
		t.Fatalf("served=%d errored=%d after two connections whose every attempt timed out, want 0 and 2", rs.served, rs.errored)
	}
	if want := int64(4); rs.res.Timeouts != want || rs.res.Attempts != want {
		t.Fatalf("timeouts=%d attempts=%d, want %d each (one retry per call)", rs.res.Timeouts, rs.res.Attempts, want)
	}
}
