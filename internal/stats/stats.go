// Package stats provides the measurement primitives used by the simulator:
// streaming summaries, histograms, percentiles, event-time series and
// time-weighted integrators (for utilization and power-over-time curves).
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates count/mean/variance/min/max using Welford's algorithm.
// The zero value is ready to use.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Merge folds other into s, as if all of other's observations had been Added.
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	d := other.mean - s.mean
	tot := n1 + n2
	s.mean += d * n2 / tot
	s.m2 += other.m2 + d*d*n1*n2/tot
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// N reports the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean reports the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var reports the sample variance (0 for fewer than two observations).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std reports the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min reports the smallest observation (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max reports the largest observation (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// String renders "n=... mean=... std=... min=... max=...".
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Std(), s.min, s.max)
}

// Histogram counts observations into fixed-width bins over [lo,hi); values
// outside the range land in the under/overflow counters.
type Histogram struct {
	lo, width   float64
	bins        []int64
	under, over int64
	n           int64
}

// NewHistogram builds a histogram with nbins fixed-width bins spanning
// [lo,hi). It panics on a degenerate range.
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 || hi <= lo {
		panic("stats: invalid histogram range")
	}
	return &Histogram{lo: lo, width: (hi - lo) / float64(nbins), bins: make([]int64, nbins)}
}

// Add records one observation. NaN observations are counted in the
// underflow bucket (they cannot be placed); ±Inf land in under/overflow.
func (h *Histogram) Add(x float64) {
	h.n++
	if math.IsNaN(x) || x < h.lo {
		h.under++
		return
	}
	i := int((x - h.lo) / h.width)
	if i >= len(h.bins) || i < 0 { // i<0 only for +Inf overflow artifacts
		h.over++
		return
	}
	h.bins[i]++
}

// N reports the total number of observations, including out-of-range ones.
func (h *Histogram) N() int64 { return h.n }

// Bin reports the count in bin i.
func (h *Histogram) Bin(i int) int64 { return h.bins[i] }

// NumBins reports the number of bins.
func (h *Histogram) NumBins() int { return len(h.bins) }

// BinCenter reports the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.lo + (float64(i)+0.5)*h.width
}

// Overflow reports the count of observations at or above the upper bound.
func (h *Histogram) Overflow() int64 { return h.over }

// Underflow reports the count of observations below the lower bound.
func (h *Histogram) Underflow() int64 { return h.under }

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.bins))
	copy(out, h.bins)
	return out
}
