package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 || !almost(s.Mean(), 3, 1e-12) {
		t.Fatalf("n=%d mean=%g", s.N(), s.Mean())
	}
	if !almost(s.Var(), 2.5, 1e-12) {
		t.Fatalf("var=%g, want 2.5", s.Var())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min=%g max=%g", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.Std() != 0 {
		t.Fatal("empty summary not zero")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		var s1, s2, whole Summary
		for _, x := range a {
			if math.IsNaN(x) || math.Abs(x) > 1e12 {
				return true // avoid float overflow artifacts; not what Summary is for
			}
			s1.Add(x)
			whole.Add(x)
		}
		for _, x := range b {
			if math.IsNaN(x) || math.Abs(x) > 1e12 {
				return true
			}
			s2.Add(x)
			whole.Add(x)
		}
		s1.Merge(s2)
		tol := 1e-9 * (1 + math.Abs(whole.Mean()))
		return s1.N() == whole.N() && almost(s1.Mean(), whole.Mean(), tol) &&
			almost(s1.Min(), whole.Min(), 0) && almost(s1.Max(), whole.Max(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(-1)  // underflow
	h.Add(0)   // bin 0
	h.Add(9.9) // bin 9
	h.Add(10)  // overflow
	h.Add(5)   // bin 5
	if h.Underflow() != 1 || h.Overflow() != 1 {
		t.Fatalf("under=%d over=%d", h.Underflow(), h.Overflow())
	}
	if h.Bin(0) != 1 || h.Bin(9) != 1 || h.Bin(5) != 1 {
		t.Fatalf("bins %v", h.Counts())
	}
	if h.N() != 5 {
		t.Fatalf("n=%d, want 5", h.N())
	}
	if !almost(h.BinCenter(0), 0.5, 1e-12) {
		t.Fatalf("bin center %g", h.BinCenter(0))
	}
}

func TestHistogramCountConservation(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(-5, 5, 7)
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		var sum int64
		for _, c := range h.Counts() {
			sum += c
		}
		return sum+h.Underflow()+h.Overflow() == int64(n) && h.N() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}
