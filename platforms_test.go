package edisim

import (
	"context"
	"reflect"
	"testing"
)

// copyOf returns a custom platform with p's data under its own name and
// spec name and no aliases, so no lookup by name can find the catalog
// entry behind it.
func copyOf(p *Platform, name string) *Platform {
	c := *p
	c.Name, c.Spec.Name, c.Aliases = name, name, nil
	return &c
}

// runJob runs one MapReduceJob through the public API and returns its
// artifact.
func runJob(t *testing.T, mj *MapReduceJob) *Artifact {
	t.Helper()
	var col Collector
	if err := Run(context.Background(), Scenario{Quick: true, Workloads: []Workload{mj}}, &col); err != nil {
		t.Fatalf("Run %s: %v", mj.Job, err)
	}
	return col.Artifacts[0]
}

// jobSeconds reads the job's duration cell.
func jobSeconds(t *testing.T, a *Artifact) float64 {
	t.Helper()
	dur, ok := a.Tables[0].Rows[0][3].Float()
	if !ok {
		t.Fatalf("job duration cell bogus: %#v", a.Tables[0].Rows[0][3])
	}
	return dur
}

// TestCustomPlatformCopyRunsAsItsTwin: every layer reads a node's Hadoop
// calibration from the platform the node was built from, so a custom copy
// of each catalog platform, unknown to the catalog by any name, gives the
// same MapReduce result as its catalog twin.
func TestCustomPlatformCopyRunsAsItsTwin(t *testing.T) {
	for _, p := range Platforms() {
		t.Run(p.Name, func(t *testing.T) {
			twin := runJob(t, &MapReduceJob{Job: "wordcount2", Platform: Ref(p.Name), Slaves: 8})
			cp := runJob(t, &MapReduceJob{Job: "wordcount2", Platform: Custom(copyOf(p, p.Name+"-copy")), Slaves: 8})
			if !reflect.DeepEqual(cp.Tables, twin.Tables) {
				t.Fatalf("copy of %s:\n%v\nwant its catalog twin's:\n%v", p.Name, cp.Tables, twin.Tables)
			}
		})
	}
}

// TestCustomContainerStartupLengthensRun: a custom platform's
// Hadoop.ContainerStartup is the JVM start its containers pay.
func TestCustomContainerStartupLengthensRun(t *testing.T) {
	edison, _ := BaselinePair()
	prev := jobSeconds(t, runJob(t, &MapReduceJob{Job: "wordcount2", Platform: Ref(edison.Name), Slaves: 8}))
	for _, startup := range []float64{30, 60} {
		c := copyOf(edison, "slow-jvm")
		c.Hadoop.ContainerStartup = startup
		got := jobSeconds(t, runJob(t, &MapReduceJob{Job: "wordcount2", Platform: Custom(c), Slaves: 8}))
		if got <= prev {
			t.Fatalf("container startup %g s: run took %.1f s, want longer than %.1f s", startup, got, prev)
		}
		prev = got
	}
}
