package hdfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"edisim/internal/hw"
	"edisim/internal/netsim"
	"edisim/internal/sim"
	"edisim/internal/units"
)

// testFS builds a filesystem over n Edison nodes on a star topology.
// t may be nil when called from property-test closures.
func testFS(t *testing.T, n, replication int, blockSize units.Bytes) (*sim.Engine, *FileSystem, []*hw.Node) {
	if t != nil {
		t.Helper()
	}
	eng := sim.NewEngine()
	fab := netsim.NewFabric(eng)
	fab.AddVertex("sw")
	fab.AddVertex("master")
	fab.Connect("master", "sw", units.Gbps(1), 0.1e-3)
	nodes := make([]*hw.Node, n)
	for i := range nodes {
		name := string(rune('a' + i))
		fab.AddVertex(name)
		fab.Connect(name, "sw", units.Mbps(100), 0.3e-3)
		nodes[i] = hw.NewNode(eng, &hw.Platform{Spec: hw.EdisonSpec()}, name)
	}
	return eng, New(fab, "master", nodes, blockSize, replication, 7), nodes
}

func TestCreateInstantBlockCount(t *testing.T) {
	_, fs, _ := testFS(t, 5, 2, 16*units.MB)
	f := fs.CreateInstant("/a", 100*units.MB)
	if len(f.Blocks) != 7 { // ceil(100/16)
		t.Fatalf("got %d blocks, want 7", len(f.Blocks))
	}
	var total units.Bytes
	for _, b := range f.Blocks {
		total += b.Size
		if len(b.Replicas) != 2 {
			t.Fatalf("block %v has %d replicas", b.ID, len(b.Replicas))
		}
		if b.Replicas[0] == b.Replicas[1] {
			t.Fatalf("block %v replicas on same node", b.ID)
		}
	}
	if total != 100*units.MB {
		t.Fatalf("block sizes sum to %v", total)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateInstantDuplicatePanics(t *testing.T) {
	_, fs, _ := testFS(t, 3, 1, 16*units.MB)
	fs.CreateInstant("/a", units.MB)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate create did not panic")
		}
	}()
	fs.CreateInstant("/a", units.MB)
}

func TestWriteReplicatesAndAccounts(t *testing.T) {
	eng, fs, nodes := testFS(t, 4, 2, 16*units.MB)
	done := false
	fs.Write(nodes[0].ID, nodes[0], "/w", 48*units.MB, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("write never completed")
	}
	f, ok := fs.Lookup("/w")
	if !ok || len(f.Blocks) != 3 {
		t.Fatalf("lookup failed or wrong block count")
	}
	// Write-path locality: first replica of every block is the writer.
	for _, b := range f.Blocks {
		if b.Replicas[0].Node != nodes[0] {
			t.Fatalf("block %v first replica not local to writer", b.ID)
		}
	}
	if fs.TotalStored() != 96*units.MB {
		t.Fatalf("stored %v, want 96MB (2 replicas)", fs.TotalStored())
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadBlockLocalVsRemote(t *testing.T) {
	eng, fs, nodes := testFS(t, 3, 1, 16*units.MB)
	f := fs.CreateInstant("/r", 16*units.MB)
	b := f.Blocks[0]
	holder := b.Replicas[0].Node

	var localDone, remoteDone sim.Time
	local := fs.ReadBlock(holder.ID, holder, b, func() { localDone = eng.Now() })
	if !local {
		t.Fatal("read on the replica holder should be local")
	}
	var other *hw.Node
	for _, n := range nodes {
		if n != holder {
			other = n
			break
		}
	}
	remote := fs.ReadBlock(other.ID, other, b, func() { remoteDone = eng.Now() })
	if remote {
		t.Fatal("read on a non-holder should be remote")
	}
	eng.Run()
	if remoteDone <= localDone {
		t.Fatalf("remote read (%v) should take longer than local (%v)", remoteDone, localDone)
	}
}

func TestFailNodeReReplicates(t *testing.T) {
	eng, fs, _ := testFS(t, 5, 2, 16*units.MB)
	fs.CreateInstant("/x", 160*units.MB) // 10 blocks × 2 replicas
	victim := fs.DataNodes()[0]
	held := 0
	for _, f := range []string{"/x"} {
		file, _ := fs.Lookup(f)
		for _, b := range file.Blocks {
			if victim.HasBlock(b.ID) {
				held++
			}
		}
	}
	var reReplicated int
	fs.FailNode(victim, func(n int) { reReplicated = n })
	eng.Run()
	if held > 0 && reReplicated == 0 {
		t.Fatalf("victim held %d blocks but nothing re-replicated", held)
	}
	// Every block must again have 2 live replicas.
	file, _ := fs.Lookup("/x")
	for _, b := range file.Blocks {
		live := 0
		for _, r := range b.Replicas {
			if r.Alive() {
				live++
			}
		}
		if live < 2 {
			t.Fatalf("block %v has %d live replicas after recovery", b.ID, live)
		}
	}
}

func TestFailDeadNodePanics(t *testing.T) {
	eng, fs, _ := testFS(t, 3, 1, 16*units.MB)
	d := fs.DataNodes()[0]
	fs.FailNode(d, nil)
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("double fail did not panic")
		}
	}()
	fs.FailNode(d, nil)
}

func TestReplicationExceedsNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for replication > nodes")
		}
	}()
	testFS(t, 2, 3, 16*units.MB)
}

// Property: for any file size and block size, blocks partition the file
// exactly and invariants hold.
func TestBlockPartitionProperty(t *testing.T) {
	f := func(sizeKB uint32, blockKB uint16) bool {
		size := units.Bytes(sizeKB%100000) * units.KB
		block := units.Bytes(blockKB%2000+1) * units.KB
		_, fs, _ := testFS(nil, 4, 2, block)
		file := fs.CreateInstant("/p", size)
		var total units.Bytes
		for _, b := range file.Blocks {
			if b.Size > block || b.Size < 0 {
				return false
			}
			total += b.Size
		}
		return total == size && fs.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}
