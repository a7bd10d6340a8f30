package stats

import (
	"math"
	"slices"
	"testing"

	"edisim/internal/rng"
)

func TestDigestEmpty(t *testing.T) {
	d := NewDigest()
	if d.N() != 0 || d.Mean() != 0 || d.Min() != 0 || d.Max() != 0 {
		t.Fatalf("empty digest not zeroed: n=%d mean=%v min=%v max=%v", d.N(), d.Mean(), d.Min(), d.Max())
	}
	if q := d.Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestDigestExactMoments(t *testing.T) {
	d := NewDigest()
	vals := []float64{0.001, 0.5, 0.25, 2.0, 0.125}
	var sum float64
	for _, v := range vals {
		d.Add(v)
		sum += v
	}
	if d.N() != int64(len(vals)) {
		t.Fatalf("N = %d, want %d", d.N(), len(vals))
	}
	if got, want := d.Mean(), sum/float64(len(vals)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	if d.Min() != 0.001 || d.Max() != 2.0 {
		t.Fatalf("Min/Max = %v/%v, want 0.001/2", d.Min(), d.Max())
	}
}

// exactQuantile is the reference the digest is judged against: the
// q-quantile of xs by linear interpolation between order statistics.
func exactQuantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func TestExactQuantileOracle(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 50.5}, {1, 100}} {
		if got := exactQuantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q=%v: %v, want %v", c.q, got, c.want)
		}
	}
}

// Quantiles must track the exact order statistics to within the bucket
// resolution on a realistic latency-shaped distribution.
func TestDigestQuantileAccuracy(t *testing.T) {
	src := rng.New(42).Derive("digest")
	d := NewDigest()
	var xs []float64
	for i := 0; i < 200000; i++ {
		// Lognormal-ish latency: 5ms base with heavy multiplicative noise.
		v := 0.005 * math.Exp(src.Normal(0, 1))
		d.Add(v)
		xs = append(xs, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := d.Quantile(q)
		want := exactQuantile(xs, q)
		rel := math.Abs(got-want) / want
		if rel > 0.05 {
			t.Errorf("q=%v: digest %v vs exact %v (rel err %.3f > 0.05)", q, got, want, rel)
		}
	}
}

func TestDigestTailClamps(t *testing.T) {
	d := NewDigest()
	d.Add(0)          // below bottom bucket
	d.Add(1e-9)       // below bottom bucket
	d.Add(1e9)        // beyond top bucket
	d.Add(math.NaN()) // ignored
	if d.N() != 3 {
		t.Fatalf("N = %d, want 3 (NaN ignored)", d.N())
	}
	if d.Min() != 0 || d.Max() != 1e9 {
		t.Fatalf("Min/Max = %v/%v, want 0/1e9", d.Min(), d.Max())
	}
	// Quantiles stay clamped inside the observed range even for clamped
	// observations.
	if q := d.Quantile(1); q != 1e9 {
		t.Fatalf("Quantile(1) = %v, want 1e9", q)
	}
	if q := d.Quantile(0); q != 0 {
		t.Fatalf("Quantile(0) = %v, want 0", q)
	}
}

// A single observation is every quantile: the bucket midpoint would be an
// estimate, but the [Min, Max] clamp collapses it to the exact value.
func TestDigestSingleSample(t *testing.T) {
	d := NewDigest()
	d.Add(0.007)
	if d.N() != 1 || d.Mean() != 0.007 || d.Min() != 0.007 || d.Max() != 0.007 {
		t.Fatalf("single-sample moments wrong: n=%d mean=%v min=%v max=%v", d.N(), d.Mean(), d.Min(), d.Max())
	}
	for _, q := range []float64{0, 0.001, 0.5, 0.99, 0.999, 1} {
		if got := d.Quantile(q); got != 0.007 {
			t.Errorf("Quantile(%v) = %v, want the lone sample 0.007", q, got)
		}
	}
}

// Values exactly at the bucket-range edges: digestMin itself belongs to the
// bottom bucket, anything beyond the covered range shares the top bucket —
// and a digest made only of clamped values still answers quantiles inside
// its exact observed [Min, Max].
func TestDigestBucketEdgeClamp(t *testing.T) {
	d := NewDigest()
	if i := bucketIndex(digestMin); i != 0 {
		t.Fatalf("bucketIndex(digestMin) = %d, want the bottom bucket 0", i)
	}
	if i := bucketIndex(digestMin * digestGamma * digestGamma); i <= 0 || i >= digestBuckets-1 {
		t.Fatalf("bucketIndex just above digestMin = %d, want an interior bucket", i)
	}
	if i := bucketIndex(1e12); i != digestBuckets-1 {
		t.Fatalf("bucketIndex(1e12) = %d, want the top bucket %d", i, digestBuckets-1)
	}
	// All observations clamp into the two edge buckets; quantiles must stay
	// inside the exact observed range, never at a bucket midpoint outside it.
	for i := 0; i < 10; i++ {
		d.Add(1e-8) // bottom bucket
		d.Add(1e7)  // top bucket
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got := d.Quantile(q)
		if got < d.Min() || got > d.Max() {
			t.Errorf("Quantile(%v) = %v escaped the observed range [%v, %v]", q, got, d.Min(), d.Max())
		}
	}
	// Interior quantiles answer the bucket representative, not the exact
	// clamped observation: digestMin for the bottom bucket, the geometric
	// midpoint for the top — only q=0 and q=1 are exact at the tails.
	if got := d.Quantile(0.25); got != digestMin {
		t.Errorf("lower-half quantile %v, want the bottom bucket's representative %v", got, digestMin)
	}
	if got, want := d.Quantile(0.75), bucketMid(digestBuckets-1); got != want {
		t.Errorf("upper-half quantile %v, want the top bucket's representative %v", got, want)
	}
	if d.Quantile(0) != 1e-8 || d.Quantile(1) != 1e7 {
		t.Errorf("tail quantiles %v/%v, want the exact Min/Max 1e-8/1e7", d.Quantile(0), d.Quantile(1))
	}
}

// Buckets reads the digest as a distribution: every observation is counted
// once, in ascending order, at a value inside the exact observed range —
// also for the clamped tails and a bucket straddling Min or Max.
func TestDigestBuckets(t *testing.T) {
	src := rng.New(3).Derive("buckets")
	d := NewDigest()
	for _, v := range []float64{0, 1e-8, 0.0101, 1e7} {
		d.Add(v)
	}
	for i := 0; i < 5000; i++ {
		d.Add(0.01 + src.Exp(0.05))
	}
	var total int64
	prev := math.Inf(-1)
	for v, n := range d.Buckets() {
		if n <= 0 {
			t.Fatalf("bucket at %v yielded count %d", v, n)
		}
		if v < d.Min() || v > d.Max() {
			t.Fatalf("bucket value %v outside [%v, %v]", v, d.Min(), d.Max())
		}
		if v <= prev {
			t.Fatalf("bucket values not ascending: %v after %v", v, prev)
		}
		prev = v
		total += n
	}
	if total != d.N() {
		t.Fatalf("bucket counts sum to %d, want N = %d", total, d.N())
	}
	for range d.Buckets() {
		break // an early stop must not panic
	}
}

func TestDigestMergeMatchesCombinedAdds(t *testing.T) {
	src := rng.New(7).Derive("merge")
	a, b, all := NewDigest(), NewDigest(), NewDigest()
	for i := 0; i < 5000; i++ {
		v := src.Exp(0.01)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		all.Add(v)
	}
	a.Merge(b)
	if a.N() != all.N() || math.Abs(a.Mean()-all.Mean()) > 1e-12 {
		t.Fatalf("merge: n=%d mean=%v, want n=%d mean=%v", a.N(), a.Mean(), all.N(), all.Mean())
	}
	for _, q := range []float64{0.5, 0.99} {
		if got, want := a.Quantile(q), all.Quantile(q); got != want {
			t.Errorf("q=%v: merged %v != combined %v", q, got, want)
		}
	}
	a.Merge(nil) // no-op, must not panic
}

func TestDigestReset(t *testing.T) {
	d := NewDigest()
	for i := 0; i < 100; i++ {
		d.Add(float64(i) * 0.001)
	}
	d.Reset()
	if d.N() != 0 || d.Quantile(0.5) != 0 {
		t.Fatalf("reset digest not empty: n=%d", d.N())
	}
}

// The digest backs per-request latency tracking on the hot settle path, so
// Add must stay allocation-free.
func TestDigestAddSteadyStateNoAlloc(t *testing.T) {
	d := NewDigest()
	v := 0.003
	allocs := testing.AllocsPerRun(1000, func() {
		d.Add(v)
		v *= 1.0001
	})
	if allocs != 0 {
		t.Fatalf("Digest.Add allocates %v allocs/op, want 0", allocs)
	}
}
