package web

import (
	"testing"

	"edisim/internal/cluster"
	"edisim/internal/hw"
	"edisim/internal/units"
)

// microP and brawnyP are the baseline pair used across the web tests.
func microP() *hw.Platform  { m, _ := hw.BaselinePair(); return m }
func brawnyP() *hw.Platform { _, b := hw.BaselinePair(); return b }

// smallTestbed builds a reduced single-platform testbed.
func smallTestbed(p *hw.Platform, n, db, clients int) *cluster.Testbed {
	return cluster.New(cluster.Config{
		Groups:  []cluster.GroupConfig{{Platform: p, Nodes: n}},
		DBNodes: db, Clients: clients,
	})
}

// smallDeployment builds a reduced middle tier for fast tests.
func smallDeployment(t *testing.T, p *hw.Platform, nWeb, nCache int) *Deployment {
	t.Helper()
	tb := smallTestbed(p, nWeb+nCache, 2, 4)
	d := NewDeployment(tb, p, nWeb, nCache, 1)
	d.Warm(0.93)
	return d
}

func TestRunProducesThroughput(t *testing.T) {
	d := smallDeployment(t, microP(), 6, 3)
	r := d.Run(RunConfig{Concurrency: 64, Duration: 5})
	// 64 conn/s × 8 calls ≈ 512 req/s offered.
	if r.Throughput < 400 || r.Throughput > 600 {
		t.Fatalf("throughput %.0f, want ≈512", r.Throughput)
	}
	if r.ErrorRate > 0.01 {
		t.Fatalf("unexpected errors at low load: %.3f", r.ErrorRate)
	}
	if r.MeanDelay <= 0 || r.MeanDelay > 0.1 {
		t.Fatalf("mean delay %.4f out of range", r.MeanDelay)
	}
}

func TestCacheHitRatioMatchesWarm(t *testing.T) {
	d := smallDeployment(t, microP(), 6, 3)
	r := d.Run(RunConfig{Concurrency: 128, Duration: 5, CacheHit: 0.93})
	if r.HitRatio < 0.90 || r.HitRatio > 0.96 {
		t.Fatalf("measured hit ratio %.3f, want ≈0.93", r.HitRatio)
	}
}

func TestLowerHitRatioRaisesDBTraffic(t *testing.T) {
	high := smallDeployment(t, microP(), 6, 3)
	rHigh := high.Run(RunConfig{Concurrency: 64, Duration: 5, CacheHit: 0.93})

	lowTb := smallTestbed(microP(), 9, 2, 4)
	low := NewDeployment(lowTb, microP(), 6, 3, 1)
	low.Warm(0.60)
	rLow := low.Run(RunConfig{Concurrency: 64, Duration: 5, CacheHit: 0.60})

	if rLow.HitRatio >= rHigh.HitRatio {
		t.Fatalf("hit ratios: low-warm %.2f >= high-warm %.2f", rLow.HitRatio, rHigh.HitRatio)
	}
	// More misses → more DB lookups → more DB time observed.
	if rLow.DBDelay.N() <= rHigh.DBDelay.N() {
		t.Fatalf("DB lookups: %d (60%%) <= %d (93%%)", rLow.DBDelay.N(), rHigh.DBDelay.N())
	}
}

func TestBrawnyFasterThanMicroAtLowLoad(t *testing.T) {
	e := smallDeployment(t, microP(), 6, 3)
	re := e.Run(RunConfig{Concurrency: 32, Duration: 5})
	d := smallDeployment(t, brawnyP(), 2, 1)
	rd := d.Run(RunConfig{Concurrency: 32, Duration: 5})
	ratio := re.MeanDelay / rd.MeanDelay
	// §5.1.2 observation 1: micro delay ≈5× brawny at low load.
	if ratio < 3 || ratio > 8 {
		t.Fatalf("delay ratio %.1f, want ≈5", ratio)
	}
}

func TestOverloadProducesErrors(t *testing.T) {
	d := smallDeployment(t, microP(), 3, 2)
	// 3 web servers at ≈45 conn/s each saturate near 135 conn/s; 400 is
	// far beyond (the paper's error region).
	r := d.Run(RunConfig{Concurrency: 400, Duration: 12})
	if r.ErrorRate < 0.01 && r.ConnFailures == 0 {
		t.Fatalf("no errors under 3x overload: rate=%.4f", r.ErrorRate)
	}
}

func TestImageTrafficGrowsReplySizesAndDelay(t *testing.T) {
	plain := smallDeployment(t, microP(), 6, 3)
	rp := plain.Run(RunConfig{Concurrency: 64, Duration: 5, ImageFrac: 0})
	img := smallDeployment(t, microP(), 6, 3)
	ri := img.Run(RunConfig{Concurrency: 64, Duration: 5, ImageFrac: 0.20})
	if ri.MeanDelay <= rp.MeanDelay {
		t.Fatalf("image traffic should raise delay: %.4f vs %.4f", ri.MeanDelay, rp.MeanDelay)
	}
}

func TestPowerScalesWithLoad(t *testing.T) {
	idle := smallDeployment(t, microP(), 6, 3)
	rIdle := idle.Run(RunConfig{Concurrency: 16, Duration: 5})
	busy := smallDeployment(t, microP(), 6, 3)
	rBusy := busy.Run(RunConfig{Concurrency: 512, Duration: 5})
	if rBusy.MeanPower <= rIdle.MeanPower {
		t.Fatalf("power did not rise with load: %.1f vs %.1f",
			float64(rBusy.MeanPower), float64(rIdle.MeanPower))
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := smallDeployment(t, microP(), 3, 2).Run(RunConfig{Concurrency: 64, Duration: 3})
	b := smallDeployment(t, microP(), 3, 2).Run(RunConfig{Concurrency: 64, Duration: 3})
	if a.Throughput != b.Throughput || a.MeanDelay != b.MeanDelay || a.Energy != b.Energy {
		t.Fatalf("same seed produced different results: %v/%v vs %v/%v",
			a.Throughput, a.MeanDelay, b.Throughput, b.MeanDelay)
	}
}

func TestAvgReplyBytesMatchesPaper(t *testing.T) {
	cases := []struct{ frac, wantKB float64 }{
		{0, 1.5}, {0.06, 3.8}, {0.10, 5.8}, {0.20, 10},
	}
	for _, c := range cases {
		got := AvgReplyBytes(c.frac) / 1024
		if got < c.wantKB*0.85 || got > c.wantKB*1.15 {
			t.Errorf("avg reply at %.0f%% image: %.1fKB, paper says %.1fKB",
				100*c.frac, got, c.wantKB)
		}
	}
}

func TestTable7DecompositionShape(t *testing.T) {
	d := smallDeployment(t, microP(), 6, 3)
	r := d.Run(RunConfig{Concurrency: 64, Duration: 5, ImageFrac: 0.2})
	if r.CacheDelay.N() == 0 || r.DBDelay.N() == 0 || r.WebTotal.N() == 0 {
		t.Fatal("decomposition not recorded")
	}
	// Web-side total includes the cache leg.
	if r.WebTotal.Mean() <= r.CacheDelay.Mean() {
		t.Fatalf("total %.4f <= cache %.4f", r.WebTotal.Mean(), r.CacheDelay.Mean())
	}
	// Edison cache delay at low load ≈4.6 ms (Table 7 first row band).
	if ms := r.CacheDelay.Mean() * 1e3; ms < 2 || ms > 8 {
		t.Fatalf("cache delay %.2fms, want ≈4.6ms", ms)
	}
}

func TestWebServerAdmissionLimits(t *testing.T) {
	d := smallDeployment(t, microP(), 3, 2)
	w := d.Web[0]
	// Exhaust the inflight bound synchronously.
	w.inflight = d.Plat.Web.MaxInflight
	if w.admitRequest(func() {}) {
		t.Fatal("request admitted beyond MaxInflight")
	}
	if w.errored != 1 {
		t.Fatalf("errored=%d", w.errored)
	}
}

func TestCacheServerStore(t *testing.T) {
	tb := smallTestbed(microP(), 5, 2, 4)
	d := NewDeployment(tb, microP(), 3, 2, 1) // unwarmed: byte accounting is exact
	c := d.Cache[0]
	k := key(1, 1)
	c.Set(k, 100)
	c.Set(k, 200) // overwrite
	if c.used != 200 {
		t.Fatalf("used %d after overwrite", c.used)
	}
	if _, ok := c.lookup(k); !ok {
		t.Fatal("stored key missing")
	}
	if _, ok := c.lookup(key(9, 99)); ok {
		t.Fatal("absent key found")
	}
	if c.HitRatio() != 0.5 {
		t.Fatalf("hit ratio %v, want 0.5", c.HitRatio())
	}

	// A second server keeps its own byte account over the shared store:
	// overwriting one of its keys moves its total only.
	c2 := d.Cache[1]
	k2 := key(2, 0)
	for d.cacheFor(k2) != c2 {
		k2++
	}
	c2.Set(k2, 300)
	c2.Set(k2, 50)
	if c2.used != 50 || c.used != 200 {
		t.Fatalf("used %d and %d after overwrites, want 200 and 50", c.used, c2.used)
	}
	if size, ok := c2.lookup(k2); !ok || size != 50 {
		t.Fatalf("second server's key reads %d (hit %v), want 50", size, ok)
	}

	// Warming stores the first rows of every table on their owners; the
	// rows beyond them are absent, up to the last row of the last table.
	d.Warm(0.5)
	for table := 0; table < numPlainTables+numImageTables; table++ {
		want := units.Bytes(plainReplyBytes)
		if table >= numPlainTables {
			want = imageReplyBytes
		}
		k := key(table, rowsPerTable/2-1)
		if size, ok := d.cacheFor(k).lookup(k); !ok || size != want {
			t.Fatalf("warmed row %d reads %d (hit %v), want %d", k, size, ok, want)
		}
		for _, row := range []int{rowsPerTable / 2, rowsPerTable - 1} {
			k := key(table, row)
			if _, ok := d.cacheFor(k).lookup(k); ok {
				t.Fatalf("row %d beyond the warmed rows is present", k)
			}
		}
	}
}

func TestCacheForIsConsistent(t *testing.T) {
	d := smallDeployment(t, microP(), 3, 2)
	if d.cacheFor(key(1, 1)) != d.cacheFor(key(1, 1)) {
		t.Fatal("cache mapping not stable")
	}
	spread := map[*CacheServer]bool{}
	for i := 0; i < 50; i++ {
		spread[d.cacheFor(key(i%15, i*37))] = true
	}
	if len(spread) < 2 {
		t.Fatal("hashing does not spread keys across cache servers")
	}
}

// TestWebRequestSteadyStateNoAlloc pins the pooled request path — Send,
// admission, table/row draws, cache GET, reply assembly, delivery — at zero
// allocations per request once the record pool, message pool and PS-task
// pools have warmed up. The cache is fully warm so the path is the
// steady-state hit chain (the DB miss leg crosses the hw disk layer, which
// has its own closures and is pinned by the hw benchmarks).
func TestWebRequestSteadyStateNoAlloc(t *testing.T) {
	tb := smallTestbed(microP(), 9, 2, 4)
	d := NewDeployment(tb, microP(), 6, 3, 1)
	d.Warm(1.0)
	eng := d.Eng
	cfg := RunConfig{Concurrency: 1}.withDefaults()
	done := func(uint64, bool) {}
	// Warm every pool and the route cache.
	for i := 0; i < 100; i++ {
		d.request(d.clients[i%len(d.clients)], d.Web[i%len(d.Web)], cfg.ImageFrac, 0, done)
		eng.RunUntil(eng.Now() + 0.05)
	}
	avg := testing.AllocsPerRun(200, func() {
		d.request(d.clients[0], d.Web[1], cfg.ImageFrac, 0, done)
		eng.RunUntil(eng.Now() + 0.05)
	})
	if avg != 0 {
		t.Fatalf("steady-state request path allocates %.2f allocs/op, want 0", avg)
	}
}
