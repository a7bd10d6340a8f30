package stats

import (
	"iter"
	"math"
)

// Digest is a bounded-memory streaming quantile estimator for latency-like
// positive values: observations land in logarithmically spaced buckets of
// ~4% relative width, so p50/p99/p999 queries carry at most ~2% relative
// error while the whole structure stays a fixed ~5 KB regardless of how
// many observations it absorbs, so a run that settles millions of requests
// costs the same memory as one that settles a handful.
//
// The bucket geometry is fixed (digestMin × digestGamma^i, covering about
// 1 µs to 10⁴ s), so any two Digests merge bucket-for-bucket. Count, sum,
// min and max are tracked exactly: Mean, Min and Max are not estimates.
// The zero value is NOT ready to use; call NewDigest (the bucket array is
// embedded, so one allocation covers the whole lifetime).
type Digest struct {
	n        int64
	sum      float64
	min, max float64
	buckets  [digestBuckets]int64
}

const (
	// digestMin is the lower edge of bucket 1; everything at or below it
	// (including zero) lands in bucket 0.
	digestMin = 1e-6
	// digestGamma is the bucket width ratio: bucket i spans
	// [digestMin·γ^(i−1), digestMin·γ^i).
	digestGamma = 1.04
	// digestBuckets covers digestMin·γ^599 ≈ 1.6×10⁴ seconds.
	digestBuckets = 600
)

var digestLnGamma = math.Log(digestGamma)

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{} }

// Add records one observation. Values at or below digestMin clamp into the
// bottom bucket, values beyond the covered range into the top one (Min/Max
// still record them exactly). NaN observations are ignored: they cannot be
// ordered, and poisoning every quantile silently is worse than dropping
// them.
func (d *Digest) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if d.n == 0 {
		d.min, d.max = v, v
	} else {
		if v < d.min {
			d.min = v
		}
		if v > d.max {
			d.max = v
		}
	}
	d.n++
	d.sum += v
	d.buckets[bucketIndex(v)]++
}

// bucketIndex maps a value to its bucket, clamping both tails.
func bucketIndex(v float64) int {
	if v <= digestMin {
		return 0
	}
	i := 1 + int(math.Log(v/digestMin)/digestLnGamma)
	if i >= digestBuckets {
		return digestBuckets - 1
	}
	return i
}

// bucketMid is the representative value of bucket i (geometric midpoint).
func bucketMid(i int) float64 {
	if i == 0 {
		return digestMin
	}
	return digestMin * math.Exp((float64(i)-0.5)*digestLnGamma)
}

// N reports the number of observations.
func (d *Digest) N() int64 { return d.n }

// Mean reports the exact arithmetic mean (0 when empty).
func (d *Digest) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Min reports the smallest observation (0 when empty).
func (d *Digest) Min() float64 {
	if d.n == 0 {
		return 0
	}
	return d.min
}

// Max reports the largest observation (0 when empty).
func (d *Digest) Max() float64 {
	if d.n == 0 {
		return 0
	}
	return d.max
}

// Quantile reports the q-quantile (q in [0,1]) to within the bucket
// resolution, clamped to the exact observed [Min, Max]. It returns 0 when
// empty.
func (d *Digest) Quantile(q float64) float64 {
	if d.n == 0 {
		return 0
	}
	if q <= 0 {
		return d.min
	}
	if q >= 1 {
		return d.max
	}
	rank := int64(q*float64(d.n-1)) + 1
	var cum int64
	for i := range d.buckets {
		cum += d.buckets[i]
		if cum >= rank {
			return d.rep(i)
		}
	}
	return d.max
}

// Buckets yields each non-empty bucket in ascending order as its
// representative value and its count; the counts sum to N. This is the
// digest read as a distribution, e.g. to fill a Histogram.
func (d *Digest) Buckets() iter.Seq2[float64, int64] {
	return func(yield func(float64, int64) bool) {
		for i, n := range d.buckets {
			if n > 0 && !yield(d.rep(i), n) {
				return
			}
		}
	}
}

// rep is bucket i's representative value: its geometric midpoint clamped
// to the exact observed [Min, Max].
func (d *Digest) rep(i int) float64 {
	return min(max(bucketMid(i), d.min), d.max)
}

// Merge folds other into d, as if all of other's observations had been
// Added. The geometry is fixed, so the merge is exact bucket addition.
func (d *Digest) Merge(other *Digest) {
	if other == nil || other.n == 0 {
		return
	}
	if d.n == 0 {
		d.min, d.max = other.min, other.max
	} else {
		if other.min < d.min {
			d.min = other.min
		}
		if other.max > d.max {
			d.max = other.max
		}
	}
	d.n += other.n
	d.sum += other.sum
	for i := range d.buckets {
		d.buckets[i] += other.buckets[i]
	}
}

// Reset empties the digest in place (no allocation) — the windowed-quantile
// idiom: one digest per evaluation window, Reset at each boundary.
func (d *Digest) Reset() { *d = Digest{} }
