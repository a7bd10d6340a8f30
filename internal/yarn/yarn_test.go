package yarn

import (
	"fmt"
	"testing"

	"edisim/internal/hw"
	"edisim/internal/sim"
)

func testRM(t *testing.T, slaves int) (*sim.Engine, *ResourceManager, []*hw.Node) {
	t.Helper()
	eng := sim.NewEngine()
	master := hw.NewNode(eng, hw.DellR620Spec(), "master")
	nodes := make([]*hw.Node, slaves)
	for i := range nodes {
		nodes[i] = hw.NewNode(eng, hw.EdisonSpec(), "e"+string(rune('0'+i)))
	}
	rm, err := NewResourceManager(eng, master, nodes, DefaultResources)
	if err != nil {
		t.Fatal(err)
	}
	return eng, rm, nodes
}

func TestEdisonMasterRejected(t *testing.T) {
	eng := sim.NewEngine()
	master := hw.NewNode(eng, hw.EdisonSpec(), "em")
	_, err := NewResourceManager(eng, master, nil, DefaultResources)
	if err != ErrMasterTooSmall {
		t.Fatalf("got %v, want ErrMasterTooSmall (the paper's failed micro-master setup)", err)
	}
}

func TestDefaultResourcesMatchPaper(t *testing.T) {
	eng := sim.NewEngine()
	e := DefaultResources(hw.NewNode(eng, hw.EdisonSpec(), "e"))
	d := DefaultResources(hw.NewNode(eng, hw.DellR620Spec(), "d"))
	if e.MemoryMB != 600 || e.VCores != 2 {
		t.Fatalf("micro resources %+v, want 600MB/2vc (§5.2)", e)
	}
	if d.MemoryMB != 12*1024 || d.VCores != 12 {
		t.Fatalf("Dell resources %+v, want 12GB/12vc (§5.2)", d)
	}
}

func TestGrantAfterHeartbeat(t *testing.T) {
	eng, rm, _ := testRM(t, 2)
	var grantedAt sim.Time
	rm.Request(ContainerRequest{MemoryMB: 150}, func(c *Container) { grantedAt = eng.Now() })
	eng.Run()
	// ≥ one heartbeat (1 s) plus Edison container startup.
	if grantedAt < 1 {
		t.Fatalf("granted at %v, want >= heartbeat interval", grantedAt)
	}
	if rm.Granted() != 1 {
		t.Fatalf("granted count %d", rm.Granted())
	}
}

func TestMemoryCapacityEnforced(t *testing.T) {
	eng, rm, _ := testRM(t, 1) // one Edison: 600 MB
	granted := 0
	for i := 0; i < 5; i++ {
		rm.Request(ContainerRequest{MemoryMB: 150}, func(c *Container) { granted++ })
	}
	eng.RunUntil(30)
	// 600/150 = 4 fit; the 5th waits forever (no releases).
	if granted != 4 {
		t.Fatalf("granted %d containers on a 600MB node, want 4", granted)
	}
}

func TestReleaseUnblocksPending(t *testing.T) {
	eng, rm, _ := testRM(t, 1)
	var first *Container
	got := 0
	rm.Request(ContainerRequest{MemoryMB: 600}, func(c *Container) { first = c; got++ })
	rm.Request(ContainerRequest{MemoryMB: 600}, func(c *Container) { got++ })
	eng.RunUntil(20)
	if got != 1 {
		t.Fatalf("got %d grants before release, want 1", got)
	}
	rm.Release(first)
	eng.Run()
	if got != 2 {
		t.Fatalf("got %d grants after release, want 2", got)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	eng, rm, _ := testRM(t, 1)
	var c *Container
	rm.Request(ContainerRequest{MemoryMB: 100}, func(got *Container) { c = got })
	eng.Run()
	rm.Release(c)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	rm.Release(c)
}

func TestLocalityPreferenceHonored(t *testing.T) {
	eng, rm, nodes := testRM(t, 3)
	preferred := rm.NodeManagerOf(nodes[2])
	var got *Container
	rm.Request(ContainerRequest{MemoryMB: 150, PreferredNodes: []*NodeManager{preferred}},
		func(c *Container) { got = c })
	eng.Run()
	if got.Node != preferred {
		t.Fatalf("container placed on %s, want preferred %s", got.Node.Node.ID, preferred.Node.ID)
	}
}

func TestDelaySchedulingFallsBack(t *testing.T) {
	eng, rm, nodes := testRM(t, 2)
	// Fill the preferred node completely.
	full := rm.NodeManagerOf(nodes[0])
	var blocker *Container
	rm.Request(ContainerRequest{MemoryMB: 600, PreferredNodes: []*NodeManager{full}},
		func(c *Container) { blocker = c })
	eng.RunUntil(20) // heartbeat + Edison container startup (12 s)
	if blocker == nil || blocker.Node != full {
		t.Fatal("setup failed")
	}
	// This request prefers the full node but must eventually land elsewhere.
	requestAt := eng.Now()
	var fallback *Container
	var grantedAt sim.Time
	rm.Request(ContainerRequest{MemoryMB: 150, PreferredNodes: []*NodeManager{full}},
		func(c *Container) { fallback = c; grantedAt = eng.Now() })
	eng.RunUntil(requestAt + 60)
	if fallback == nil {
		t.Fatal("request never fell back to a non-preferred node")
	}
	if fallback.Node == full {
		t.Fatal("landed on the full node?")
	}
	// It must have waited out the delay-scheduling rounds first.
	if grantedAt < requestAt+Time(delayRounds) {
		t.Fatalf("fell back at %v, before delay rounds elapsed", grantedAt)
	}
}

// Time aliases sim.Time for test readability.
type Time = sim.Time

func TestGrantsPerHeartbeatThrottles(t *testing.T) {
	eng, rm, _ := testRM(t, 3) // 3 Edisons: 12 × 150MB slots
	rm.GrantsPerHeartbeat = 2
	times := make([]sim.Time, 0, 6)
	for i := 0; i < 6; i++ {
		rm.Request(ContainerRequest{MemoryMB: 150}, func(c *Container) {
			times = append(times, eng.Now())
		})
	}
	eng.Run()
	if len(times) != 6 {
		t.Fatalf("granted %d, want 6", len(times))
	}
	// With 2 grants per 1 s heartbeat, grants span ≥ 2 s.
	if span := times[5] - times[0]; span < 2 {
		t.Fatalf("grant span %v, want >= 2 heartbeats", span)
	}
}

func TestNodeManagerAccounting(t *testing.T) {
	eng, rm, nodes := testRM(t, 1)
	nm := rm.NodeManagerOf(nodes[0])
	var c *Container
	rm.Request(ContainerRequest{MemoryMB: 200, VCores: 1}, func(got *Container) { c = got })
	eng.Run()
	if nm.Available().MemoryMB != 400 || nm.Available().VCores != 1 {
		t.Fatalf("available %+v after grant", nm.Available())
	}
	rm.Release(c)
	if nm.Available().MemoryMB != 600 || nm.Available().VCores != 2 {
		t.Fatalf("available %+v after release", nm.Available())
	}
}

// BenchmarkRMTickBacklog measures one heartbeat round over a backlog that
// cannot be placed: 35 Edison slaves filled to capacity and 500 pending
// requests (mixed sizes and priorities, most preferring three nodes). Each
// op is one tick that grants nothing and re-arms the next heartbeat; it
// must not allocate.
func BenchmarkRMTickBacklog(b *testing.B) {
	eng := sim.NewEngine()
	master := hw.NewNode(eng, hw.DellR620Spec(), "master")
	slaves := make([]*hw.Node, 35)
	for i := range slaves {
		slaves[i] = hw.NewNode(eng, hw.EdisonSpec(), fmt.Sprintf("e%d", i))
	}
	rm, err := NewResourceManager(eng, master, slaves, DefaultResources)
	if err != nil {
		b.Fatal(err)
	}
	for range slaves {
		rm.Request(ContainerRequest{MemoryMB: 600, VCores: 2}, func(*Container) {})
	}
	eng.RunUntil(30)
	if rm.Granted() != int64(len(slaves)) {
		b.Fatalf("filled %d of %d slaves", rm.Granted(), len(slaves))
	}
	nodes := rm.Nodes()
	for i := 0; i < 500; i++ {
		req := ContainerRequest{MemoryMB: 150 + 50*(i%3), VCores: 1, Priority: i % 2}
		if i%5 != 0 {
			req.PreferredNodes = []*NodeManager{nodes[i%35], nodes[(i+7)%35], nodes[(i+19)%35]}
		}
		rm.Request(req, func(*Container) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.StopTimer()
	if rm.Granted() != int64(len(slaves)) || len(rm.pending) != 500 {
		b.Fatalf("backlog changed: %d granted, %d pending", rm.Granted(), len(rm.pending))
	}
}
