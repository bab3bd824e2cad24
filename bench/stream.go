package main

import (
	"math"
	"sort"

	"hublab/internal/graph"
)

// splitmix is the harness's only random source: a fixed algorithm, so a
// seed names the same stream on every Go version and machine.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	x := uint64(*s)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// intn returns a value in [0,n) (n > 0). The modulo bias is below
// n/2^64 and irrelevant at the harness's sizes.
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// float returns a value in [0,1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// stream is a workload's query stream: a pool of vertex pairs with their
// expected distances, and the order calls draw from it. Position k of
// the stream is pool[at(k)].
type stream struct {
	pool  [][2]graph.NodeID
	truth []graph.Weight
	// order maps stream positions to pool indices, cyclically; nil means
	// the pool itself in order. A uniform stream is the pool in order —
	// the pool is already a uniform sample of pairs, and walking it
	// cyclically gives every pair the longest possible reuse distance,
	// which is what makes it the cache-bypass case.
	order []uint32
}

func (s *stream) at(k int) int {
	if s.order == nil {
		return k % len(s.pool)
	}
	return int(s.order[k%len(s.order)])
}

// Stream shapes. The Zipf pool is small enough that its head fits the
// hot cache and large enough that its tail does not.
const (
	uniformPoolBits = 18
	zipfPoolBits    = 14
	zipfOrderBits   = 20
	zipfAlpha       = 1.1
)

// newPool draws size distinct-endpoint pairs over n vertices from seed.
func newPool(n, size int, seed uint64) [][2]graph.NodeID {
	rng := splitmix(seed)
	pool := make([][2]graph.NodeID, size)
	for i := range pool {
		u := rng.intn(n)
		v := rng.intn(n - 1)
		if v >= u {
			v++
		}
		pool[i] = [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)}
	}
	return pool
}

// zipfOrder draws length pool indices in [0,size) with P(rank r) ∝
// (r+1)^-alpha by inverting the cumulative distribution.
func zipfOrder(size, length int, alpha float64, seed uint64) []uint32 {
	cdf := make([]float64, size)
	var sum float64
	for r := range cdf {
		sum += math.Pow(float64(r+1), -alpha)
		cdf[r] = sum
	}
	rng := splitmix(seed ^ 0x5a17f)
	order := make([]uint32, length)
	for i := range order {
		r := sort.SearchFloat64s(cdf, rng.float()*sum)
		if r >= size {
			r = size - 1
		}
		order[i] = uint32(r)
	}
	return order
}

// newStream builds the stream of a workload over an n-vertex graph. toy
// shrinks the pools for the smoke test.
func newStream(n int, zipf, toy bool, seed uint64) *stream {
	bits, orderBits := uniformPoolBits, zipfOrderBits
	if zipf {
		bits = zipfPoolBits
	}
	if toy {
		bits, orderBits = bits-6, orderBits-6
	}
	s := &stream{pool: newPool(n, 1<<bits, seed)}
	if zipf {
		s.order = zipfOrder(len(s.pool), 1<<orderBits, zipfAlpha, seed)
	}
	return s
}
