package web

import (
	"math"
	"strings"
	"testing"

	"edisim/internal/faults"
)

func TestRunConfigValidateRecoveryKnobs(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	base := RunConfig{Concurrency: 32, Duration: 5}
	with := func(mod func(*RunConfig)) RunConfig {
		c := base
		mod(&c)
		return c
	}
	cases := []struct {
		name    string
		cfg     RunConfig
		wantErr string // substring; "" means valid
	}{
		{"healthy zero recovery", base, ""},
		{"recovery enabled", with(func(c *RunConfig) { c.RequestTimeout = 0.5 }), ""},
		{"full recovery knobs", with(func(c *RunConfig) { c.RequestTimeout = 0.5; c.MaxRetries = 5; c.RetryBase = 0.1 }), ""},
		{"negative timeout", with(func(c *RunConfig) { c.RequestTimeout = -1 }), "request timeout"},
		{"nan timeout", with(func(c *RunConfig) { c.RequestTimeout = nan }), "request timeout"},
		{"inf timeout", with(func(c *RunConfig) { c.RequestTimeout = inf }), "request timeout"},
		{"negative retries", with(func(c *RunConfig) { c.MaxRetries = -2 }), "max retries"},
		{"negative retry base", with(func(c *RunConfig) { c.RetryBase = -0.1 }), "retry base"},
		{"nan retry base", with(func(c *RunConfig) { c.RetryBase = nan }), "retry base"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

func TestRecoveryDefaultsOnlyWhenEnabled(t *testing.T) {
	off := RunConfig{Concurrency: 10}.withDefaults()
	if off.MaxRetries != 0 || off.RetryBase != 0 {
		t.Fatalf("recovery defaults filled with timeout off: %+v", off)
	}
	on := RunConfig{Concurrency: 10, RequestTimeout: 0.5}.withDefaults()
	if on.MaxRetries != 3 || on.RetryBase != 0.05 {
		t.Fatalf("recovery defaults wrong: MaxRetries=%d RetryBase=%g, want 3 and 0.05", on.MaxRetries, on.RetryBase)
	}
}

// TestFailoverSurvivesWebCrash: with client timeouts on, crashing one web
// server mid-run steers requests to the live replicas — the run keeps
// serving, counts timeouts and retries, and still beats a run with no
// recovery at all under the same fault.
func TestFailoverSurvivesWebCrash(t *testing.T) {
	tb := smallTestbed(microP(), 9, 2, 8)
	d := NewDeployment(tb, microP(), 6, 3, 1)
	rc := RunConfig{Concurrency: 256, Duration: 10, RequestTimeout: 0.25}
	d.WarmFor(rc)
	// Half the tier crashes in a rolling wave starting at t=4 — past the
	// default warm-up (25% of 10 s), so the fault's timeouts land inside
	// the measurement window.
	plan := faults.RollingCrashes("web", 3, 4, 1.5, 2)
	faults.Schedule(d.Eng, plan, 1, d.Roster())
	r := d.Run(rc)
	if r.Throughput <= 0 {
		t.Fatal("no throughput under a single-node crash with failover on")
	}
	if r.Timeouts == 0 {
		t.Fatal("a mid-run crash produced no client timeouts")
	}
	if r.Retries == 0 {
		t.Fatal("timeouts fired but nothing was retried")
	}
	if r.Attempts <= r.Retries {
		t.Fatalf("attempts %d must exceed retries %d", r.Attempts, r.Retries)
	}
	// Degraded, not dead: the error rate stays well below the crashed
	// node's request share lasting the whole window.
	if r.ErrorRate > 0.5 {
		t.Fatalf("error rate %.3f under failover, want < 0.5", r.ErrorRate)
	}
}

// TestCrashDegradesUnrecoveredRun: the same fault with recovery off must
// still degrade (lost requests) rather than deadlock the run.
func TestCrashDegradesUnrecoveredRun(t *testing.T) {
	tb := smallTestbed(microP(), 9, 2, 4)
	d := NewDeployment(tb, microP(), 6, 3, 1)
	rc := RunConfig{Concurrency: 64, Duration: 10}
	d.WarmFor(rc)
	victim := d.Web[1]
	plan := &faults.Plan{Events: []faults.Event{
		{Kind: faults.NodeCrash, At: 2, Duration: 0, Role: "web"},
	}}
	faults.Schedule(d.Eng, plan, 1,
		map[string][]faults.Target{"web": {{Node: victim.Node, Fab: d.Fab}}})
	r := d.Run(rc)
	if r.Throughput <= 0 {
		t.Fatal("run deadlocked: no completed requests at all")
	}
	if r.Timeouts != 0 || r.Retries != 0 {
		t.Fatalf("recovery accounting nonzero with recovery off: timeouts=%d retries=%d", r.Timeouts, r.Retries)
	}
}

// TestFaultFreeRecoveryRunMatchesBaseline: enabling timeouts on a healthy
// run must not change what is measured beyond the extra accounting — no
// timeouts, no retries, attempts equal operations.
func TestFaultFreeRecoveryRunMatchesBaseline(t *testing.T) {
	rc := RunConfig{Concurrency: 32, Duration: 5, RequestTimeout: 2}
	d := smallDeployment(t, microP(), 6, 3)
	r := d.Run(rc)
	if r.Timeouts != 0 || r.Retries != 0 {
		t.Fatalf("healthy run counted timeouts=%d retries=%d, want 0/0", r.Timeouts, r.Retries)
	}
	if r.Attempts == 0 {
		t.Fatal("recovery-on run recorded no attempts")
	}
	if r.ErrorRate > 0.01 {
		t.Fatalf("healthy run with recovery on errored: %.3f", r.ErrorRate)
	}
}

// TestAttemptsMatchSettledOperations pins the retry-amplification
// denominator: Attempts counts the transmissions of exactly the operations
// that settled inside the measurement window. On a recovery-armed,
// fault-free run where nothing times out, every settled operation took one
// transmission, so Attempts equals successes plus failures — transmissions
// of warm-up and drain operations do not leak in. Under a crash wave the
// retried operations make it strictly larger.
func TestAttemptsMatchSettledOperations(t *testing.T) {
	d := smallDeployment(t, microP(), 6, 3)
	r := d.Run(RunConfig{Concurrency: 32, Duration: 5, RequestTimeout: 2})
	ops := r.Latency.N() + r.Errors500
	if r.Timeouts != 0 || ops == 0 {
		t.Fatalf("healthy run: timeouts=%d settled=%d, want 0 and >0", r.Timeouts, ops)
	}
	if r.Attempts != ops {
		t.Fatalf("Attempts=%d, want the %d operations settled in the window", r.Attempts, ops)
	}

	tb := smallTestbed(microP(), 9, 2, 8)
	d = NewDeployment(tb, microP(), 6, 3, 1)
	rc := RunConfig{Concurrency: 256, Duration: 10, RequestTimeout: 0.25}
	d.WarmFor(rc)
	faults.Schedule(d.Eng, faults.RollingCrashes("web", 3, 4, 1.5, 2), 1, d.Roster())
	r = d.Run(rc)
	if ops := r.Latency.N() + r.Errors500; r.Retries == 0 || r.Attempts <= ops {
		t.Fatalf("crash run: Attempts=%d for %d settled operations and %d retries, want more attempts than operations", r.Attempts, ops, r.Retries)
	}
}
