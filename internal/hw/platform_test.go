package hw

import (
	"strings"
	"testing"
)

// catalogWorkloads is the workload set every platform must calibrate (the
// six §5.2 jobs; internal/jobs.Names mirrors this list).
var catalogWorkloads = []string{"wordcount", "wordcount2", "logcount", "logcount2", "pi", "terasort"}

// TestCatalogInvariants checks every registered platform: unique names and
// aliases, positive costs and capacities, a complete per-workload Hadoop
// calibration, sane web costs, and a well-formed network profile.
func TestCatalogInvariants(t *testing.T) {
	seen := map[string]string{} // lookup key -> owner platform
	claim := func(p *Platform, key string) {
		k := strings.ToLower(key)
		if owner, dup := seen[k]; dup {
			t.Errorf("%s: lookup key %q already taken by %s", p.Name, key, owner)
		}
		seen[k] = p.Name
	}

	if len(Platforms()) < 4 {
		t.Fatalf("catalog has %d platforms, want >= 4", len(Platforms()))
	}
	for _, p := range Platforms() {
		claim(p, p.Name)
		for _, a := range p.Aliases {
			claim(p, a)
		}
		if p.Label == "" || p.FullName == "" {
			t.Errorf("%s: missing display names", p.Name)
		}
		if p.Spec.Name != p.Name {
			t.Errorf("%s: spec name %q does not match", p.Name, p.Spec.Name)
		}

		// Economics and power.
		if p.UnitCost <= 0 {
			t.Errorf("%s: non-positive unit cost", p.Name)
		}
		if p.Spec.Power.BusyDraw() <= p.Spec.Power.IdleDraw() {
			t.Errorf("%s: busy draw not above idle", p.Name)
		}
		if p.MeterName == "" {
			t.Errorf("%s: no meter name", p.Name)
		}

		// Hardware capacities.
		if p.Spec.CPU.Cores <= 0 || p.Spec.CPU.DMIPS <= 0 || p.Spec.Mem.Capacity <= 0 ||
			p.Spec.Disk.Write <= 0 || p.Spec.NIC.TCPGoodput <= 0 {
			t.Errorf("%s: non-positive hardware capacity", p.Name)
		}

		// Network profile.
		n := p.Net
		if n.SwitchName == "" || n.CoreUplink <= 0 || !strings.Contains(n.HostFormat, "%") {
			t.Errorf("%s: malformed network profile %+v", p.Name, n)
		}
		if n.LeafFanout > 0 && (n.LeafPrefix == "" || n.LeafUplink <= 0) {
			t.Errorf("%s: leaf tier without prefix/uplink", p.Name)
		}
		if n.LeafFanout < 0 || n.AccessDelay < 0 || n.CoreDelay < 0 {
			t.Errorf("%s: negative network parameter", p.Name)
		}

		// Web calibration.
		w := p.Web
		for name, v := range map[string]float64{
			"BaseCPU": w.BaseCPU, "ReplyCPU": w.ReplyCPU, "CacheClientCPU": w.CacheClientCPU,
			"PerKBCPU": w.PerKBCPU, "CacheGetCPU": w.CacheGetCPU, "DBQueryCPU": w.DBQueryCPU,
			"ConnRate": w.ConnRate, "ReqRate": w.ReqRate, "MaxInflight": float64(w.MaxInflight),
		} {
			if v <= 0 {
				t.Errorf("%s: web cost %s not positive", p.Name, name)
			}
		}

		// Hadoop calibration: present and positive for every workload.
		h := p.Hadoop
		if h.BlockSize <= 0 || h.Replicas <= 0 || h.VCores <= 0 || h.NodeMemoryMB <= 0 ||
			h.SmallMapMemoryMB <= 0 || h.LargeMapMemoryMB <= 0 || h.ReduceMemoryMB <= 0 ||
			h.AMMemoryMB <= 0 || h.CombineSplit <= 0 || h.ContainerStartup <= 0 ||
			h.DaemonMem <= 0 || h.FullScaleTasks <= 0 || h.PiSamplesPerSec <= 0 {
			t.Errorf("%s: incomplete Hadoop profile", p.Name)
		}
		for _, job := range catalogWorkloads {
			jc, ok := h.Jobs[job]
			if !ok {
				t.Errorf("%s: no Hadoop calibration for %q", p.Name, job)
				continue
			}
			if jc.ReduceMBps <= 0 || jc.TaskOverheadSeconds <= 0 {
				t.Errorf("%s/%s: non-positive rates %+v", p.Name, job, jc)
			}
			// pi is the only fixed-work map job (rate comes from
			// PiSamplesPerSec); every other workload needs a map rate.
			if job != "pi" && jc.MapMBps <= 0 {
				t.Errorf("%s/%s: no map rate", p.Name, job)
			}
		}
		if len(h.Jobs) != len(catalogWorkloads) {
			t.Errorf("%s: %d calibrated jobs, want %d", p.Name, len(h.Jobs), len(catalogWorkloads))
		}

		// Master platform, when named, must resolve and be able to host
		// the daemons the platform itself cannot.
		if h.MasterPlatform != "" {
			if _, ok := LookupPlatform(h.MasterPlatform); !ok {
				t.Errorf("%s: unknown master platform %q", p.Name, h.MasterPlatform)
			}
		}

		// Fleet sizes for the cross-platform matrices.
		if p.Fleet.Web <= 0 || p.Fleet.Cache <= 0 || p.Fleet.Slaves <= 0 {
			t.Errorf("%s: incomplete fleet %+v", p.Name, p.Fleet)
		}
	}
}

func TestLookupPlatform(t *testing.T) {
	micro, brawny := BaselinePair()
	if micro == brawny {
		t.Fatal("baseline pair is one platform")
	}
	if !micro.Micro || brawny.Micro {
		t.Fatal("baseline pair sides swapped")
	}
	// Every name and alias resolves, case-insensitively.
	for _, p := range Platforms() {
		for _, key := range append([]string{p.Name, strings.ToUpper(p.Name)}, p.Aliases...) {
			got, ok := LookupPlatform(key)
			if !ok || got != p {
				t.Errorf("lookup %q: got %v, want %s", key, got, p.Name)
			}
		}
	}
	if _, ok := LookupPlatform("no-such-platform"); ok {
		t.Fatal("bogus lookup succeeded")
	}
}

// TestPlatformsReturnsCopy: mutating the returned slice must not corrupt
// the registry.
func TestPlatformsReturnsCopy(t *testing.T) {
	a := Platforms()
	a[0] = nil
	if Platforms()[0] == nil {
		t.Fatal("Platforms exposes internal slice")
	}
}

// TestCatalogAliasExamples pins the lookup keys documented in PLATFORMS.md
// and used by cmd/paper -platforms.
func TestCatalogAliasExamples(t *testing.T) {
	for _, key := range []string{"pi3", "xeon-modern", "edison", "dell"} {
		if _, ok := LookupPlatform(key); !ok {
			t.Errorf("documented alias %q does not resolve", key)
		}
	}
}

// TestBaselinePairIsPaperTestbed pins the values every paper comparison
// depends on, so catalog edits cannot silently drift the baseline.
func TestBaselinePairIsPaperTestbed(t *testing.T) {
	micro, brawny := BaselinePair()
	if micro.Spec.CPU.Cores != 2 || float64(micro.Spec.CPU.DMIPS) != 632.3 {
		t.Errorf("micro CPU drifted: %+v", micro.Spec.CPU)
	}
	if brawny.Spec.CPU.Cores != 6 || float64(brawny.Spec.CPU.DMIPS) != 11383 {
		t.Errorf("brawny CPU drifted: %+v", brawny.Spec.CPU)
	}
	if micro.UnitCost != 120 || brawny.UnitCost != 2500 {
		t.Errorf("unit costs drifted: %v / %v", micro.UnitCost, brawny.UnitCost)
	}
	if micro.Hadoop.VCores != 2 || brawny.Hadoop.VCores != 12 {
		t.Errorf("vcores drifted: %d / %d", micro.Hadoop.VCores, brawny.Hadoop.VCores)
	}
}
