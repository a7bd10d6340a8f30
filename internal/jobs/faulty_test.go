package jobs

import (
	"testing"

	"edisim/internal/faults"
	"edisim/internal/hw"
	"edisim/internal/mapred"
)

// TestTerasortSurvivesMidJobCrash is the batch half of the availability
// story: a slave crashing mid-job (and rebooting later) must degrade the
// run — longer duration, re-executed work — but the job must still complete
// before a generous deadline rather than deadlock.
func TestTerasortSurvivesMidJobCrash(t *testing.T) {
	micro, _ := hw.BaselinePair()
	groups := []SlaveGroup{{Platform: micro, Nodes: 8}}

	base, err := RunGroups("terasort", groups, 11, hw.PowerLinear, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Completed {
		t.Fatal("baseline terasort did not complete")
	}

	plan := &faults.Plan{Events: []faults.Event{
		{Kind: faults.NodeCrash, At: 0.3 * base.Duration, Duration: 120, Role: "slave", Index: 2},
	}}
	ft := &mapred.FaultTolerance{TaskTimeout: base.Duration}
	run := func() *mapred.JobResult {
		r, err := RunGroupsFaulty("terasort", groups, 11, hw.PowerLinear, plan, ft, 20*base.Duration, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	faulty := run()
	if !faulty.Completed {
		t.Fatalf("faulty terasort did not complete: failed=%v reason=%q duration=%v",
			faulty.Failed, faulty.FailReason, faulty.Duration)
	}
	if faulty.Duration <= base.Duration {
		t.Fatalf("crash did not slow the job: faulty %.1fs vs baseline %.1fs", faulty.Duration, base.Duration)
	}
	if faulty.TaskRetries == 0 {
		t.Fatal("crash recovery reported no task retries")
	}

	// Bit-identical reproducibility of the faulty run.
	again := run()
	if faulty.Duration != again.Duration || faulty.Energy != again.Energy ||
		faulty.TaskRetries != again.TaskRetries || faulty.LostMapOutputs != again.LostMapOutputs {
		t.Fatalf("faulty run not reproducible: (%v,%v,%d,%d) vs (%v,%v,%d,%d)",
			faulty.Duration, faulty.Energy, faulty.TaskRetries, faulty.LostMapOutputs,
			again.Duration, again.Energy, again.TaskRetries, again.LostMapOutputs)
	}
}

// TestFaultToleranceNilIsIdentical pins the zero-cost guarantee at the jobs
// layer: the same deployment and job with FT disabled and no plan must
// produce exactly the baseline result.
func TestFaultToleranceNilIsIdentical(t *testing.T) {
	micro, _ := hw.BaselinePair()
	groups := []SlaveGroup{{Platform: micro, Nodes: 6}}
	a, err := RunGroups("wordcount2", groups, 7, hw.PowerLinear, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGroupsFaulty("wordcount2", groups, 7, hw.PowerLinear, nil, nil, 1e9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Energy != b.Energy || a.ShuffledBytes != b.ShuffledBytes {
		t.Fatalf("empty fault plan changed the run: (%v,%v) vs (%v,%v)", a.Duration, a.Energy, b.Duration, b.Energy)
	}
}
