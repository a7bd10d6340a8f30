package web

import (
	"testing"

	"edisim/internal/autoscale"
	"edisim/internal/cluster"
	"edisim/internal/hw"
	"edisim/internal/load"
	"edisim/internal/rng"
	"edisim/internal/sim"
)

// heapShape is the pending set of one run sampled every 50 ms of simulated
// time: all scheduled events, and those in the engine heap proper.
type heapShape struct {
	samples               int
	pendingSum, heapSum   int
	pendingMax, heapMax   int
	meanPending, meanHeap float64
}

// waiting is how many of a lane's events wait behind its head.
func waiting(l *sim.Lane) int { return max(l.Len()-1, 0) }

// probeHeap runs cfg on d and samples the engine's pending set. The heap
// length is Pending less the events waiting in the run's lanes and in the
// fabric's link delivery lanes.
func probeHeap(d *Deployment, cfg RunConfig) heapShape {
	var s heapShape
	var tick func()
	tick = func() {
		rs := d.run
		lanes := waiting(rs.timeouts) + d.Fab.ArrivalsWaiting()
		for _, l := range rs.synTimers {
			lanes += waiting(l)
		}
		for _, w := range d.Web {
			lanes += waiting(w.acceptQ) + waiting(w.startQ)
		}
		p := d.Eng.Pending()
		h := p - lanes
		s.samples++
		s.pendingSum += p
		s.heapSum += h
		s.pendingMax = max(s.pendingMax, p)
		s.heapMax = max(s.heapMax, h)
		if p > 0 {
			d.Eng.After(0.05, tick)
		}
	}
	d.Eng.After(0.05, tick)
	d.Run(cfg)
	s.meanPending = float64(s.pendingSum) / float64(s.samples)
	s.meanHeap = float64(s.heapSum) / float64(s.samples)
	return s
}

// TestLanesKeepHeapShallow runs the open-loop mix with every overload knob
// armed (0.5 s request timeouts, a retry budget, deadline shedding, an SLO,
// and on the diurnal cycle target-util autoscaling) on both baseline
// fleets, and samples the pending set. The queued accepts, queued worker
// starts, request timeouts, SYN retransmit timers and message deliveries
// must wait in their lanes: at 2× connection capacity they are most of the
// pending set, and the heap holds only the lane heads beside the other
// events. -v logs the mean and max of both per run.
func TestLanesKeepHeapShallow(t *testing.T) {
	dur := 8.0
	if testing.Short() {
		dur = 2
	}
	edison, dell := hw.BaselinePair()
	for _, op := range []struct {
		name    string
		plat    *hw.Platform
		diurnal bool
	}{
		{"edison/steady-2x", edison, false},
		{"dell/steady-2x", dell, false},
		{"edison/diurnal-autoscale", edison, true},
		{"dell/diurnal-autoscale", dell, true},
	} {
		capacity := float64(op.plat.Fleet.Web) * op.plat.Web.ConnRate
		cfg := RunConfig{
			Duration:       dur,
			WarmupFrac:     0.1,
			RequestTimeout: 0.5,
			RetryBudget:    0.1,
			Shed:           ShedPolicy{Mode: ShedDeadline, Deadline: 0.5},
			SLO:            &SLO{Latency: 0.5, Percentile: 0.99, Availability: 0.99, Window: 1},
			Profile:        load.Steady{Rate: 2 * capacity},
		}
		if op.diurnal {
			cfg.Profile = load.Diurnal{Min: 0.15 * capacity, Max: 0.85 * capacity, Period: dur}
			cfg.Autoscale = &autoscale.Config{Policy: autoscale.TargetUtil{Target: 0.6}}
		}
		tb := cluster.New(cluster.Config{
			Groups:  []cluster.GroupConfig{{Platform: op.plat, Nodes: op.plat.Fleet.Web + op.plat.Fleet.Cache}},
			DBNodes: 2, Clients: 8,
		})
		d := NewDeployment(tb, op.plat, op.plat.Fleet.Web, op.plat.Fleet.Cache, rng.New(1).Derive(op.name).Seed())
		d.WarmFor(cfg)
		s := probeHeap(d, cfg)
		t.Logf("%-26s pending mean %6.0f max %5d | heap mean %5.0f max %5d", op.name, s.meanPending, s.pendingMax, s.meanHeap, s.heapMax)
		if !op.diurnal && s.meanHeap > s.meanPending/4 {
			t.Errorf("%s: mean heap length %.0f of %.0f pending; the lanes should hold most of them", op.name, s.meanHeap, s.meanPending)
		}
	}
}
