package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	// The highest ladder percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    uint64
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
		{999999, 99.99, true},
		{1000000, 99.999, true},
		{50000000, 99.999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestMedianOfBlocks(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 9}, 5},
		{[]float64{100, 102, 98, 250, 101, 99, 100, 3, 101, 100}, 100},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// The input keeps its order: block rates are reported as measured.
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// Expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 50}, 1, 1},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := relSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.add(v)
	}
	if h.n != 1000 || h.mean() != 500.5 {
		t.Fatalf("n=%d mean=%v", h.n, h.mean())
	}
	// Below 2^8 ns the bins are exact and up to 1000 ns four wide:
	// quantiles land within a bin of the true value.
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 500.5}, {0.99, 990}, {1, 1000}} {
		if got := h.quantile(c.q); math.Abs(got-c.want) > 4 {
			t.Errorf("quantile(%v) = %v, want %v±4", c.q, got, c.want)
		}
	}
	// Above, buckets are 1/256 of an octave: 0.4 % relative error.
	var big hist
	for _, v := range []int64{3_000, 127_431, 28_000_000, 4_000_000_000} {
		big = hist{}
		big.add(v)
		if got := big.quantile(0.5); math.Abs(got-float64(v))/float64(v) > 1.0/subCount {
			t.Errorf("single sample %d reads back as %v", v, got)
		}
	}
	// Bucket bounds tile the axis without gaps.
	for b := 1; b < histBins; b++ {
		lo, _ := histBounds(b)
		plo, pw := histBounds(b - 1)
		if plo+pw != lo {
			t.Fatalf("bucket %d starts at %v, previous ends at %v", b, lo, plo+pw)
		}
		if histBucket(uint64(lo)) != b {
			t.Fatalf("lower bound %v of bucket %d maps to bucket %d", lo, b, histBucket(uint64(lo)))
		}
	}
}
