package main

import (
	"math"
	"math/bits"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), which
// is what the acceptance rule for this benchmark is stated in. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// Position k*(n+1)/4 in 1-based order statistics; like Python,
		// clamp the index and extrapolate from the end pair.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance as a share of the median —
// the steadiness measure every bound in BENCHMARK.json is judged by.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tailLadder is the set of percentiles a latency report may name.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tailPercentile applies the reporting rule of the choosing-metrics
// guide: the highest ladder percentile that still has at least ten of
// the n samples beyond it. ok is false when even the median has fewer
// than ten samples above it (n < 20).
func tailPercentile(n uint64) (p float64, ok bool) {
	for _, q := range tailLadder {
		// Exact in integers: samples beyond pq = n*(100-q)/100.
		scaled := uint64(math.Round((100 - q) * 1000)) // (100-q) in 1/1000 %
		if n*scaled/100000 < 10 {
			break
		}
		p, ok = q, true
	}
	return p, ok
}

// hist is a constant-size log-linear latency histogram over
// nanoseconds: exact 1 ns bins below 2^subBits ns, then 2^subBits bins
// per octave (0.4 % relative width). Its size does not depend on how
// many calls a window completes, so the harness's own footprint stays
// out of the resident_mb metric; a raw sample array would grow with
// throughput and make a faster system look fatter.
type hist struct {
	bins [histBins]uint32
	n    uint64
	sum  uint64
}

const (
	subBits  = 8
	subCount = 1 << subBits
	// 2^40 ns ≈ 18 min: far beyond any call this harness times.
	histBins = (40 - subBits + 1) * subCount
)

func histBucket(ns uint64) int {
	if ns < subCount {
		return int(ns)
	}
	e := bits.Len64(ns) - subBits - 1
	b := (e+1)*subCount + int(ns>>uint(e)) - subCount
	if b >= histBins {
		return histBins - 1
	}
	return b
}

// histBounds returns the lower bound and width of bucket b.
func histBounds(b int) (lo, width float64) {
	if b < subCount {
		return float64(b), 1
	}
	e := b/subCount - 1
	m := uint64(b%subCount + subCount)
	return float64(m << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.bins[histBucket(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-th quantile (0..1) in nanoseconds, spreading a
// bucket's samples evenly across its width; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for b, c := range h.bins {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, w := histBounds(b)
			return lo + w*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBins - 1)
	return lo + w
}

// tailMean returns the mean of the slowest share (0..1) of the samples,
// in nanoseconds, taking each bucket at its midpoint.
func (h *hist) tailMean(share float64) float64 {
	want := share * float64(h.n)
	if want <= 0 {
		return 0
	}
	var got, sum float64
	for b := histBins - 1; b >= 0 && got < want; b-- {
		c := float64(h.bins[b])
		if c == 0 {
			continue
		}
		take := min(c, want-got)
		lo, w := histBounds(b)
		sum += take * (lo + w/2)
		got += take
	}
	return sum / got
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
