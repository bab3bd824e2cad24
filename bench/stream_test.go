package main

import (
	"reflect"
	"testing"
)

func TestStreamsAreDeterministic(t *testing.T) {
	for _, zipf := range []bool{false, true} {
		a := newStream(10000, zipf, false, 7)
		b := newStream(10000, zipf, false, 7)
		c := newStream(10000, zipf, false, 8)
		if !reflect.DeepEqual(a.pool, b.pool) || !reflect.DeepEqual(a.order, b.order) {
			t.Errorf("zipf=%v: equal seeds gave different streams", zipf)
		}
		if reflect.DeepEqual(a.pool, c.pool) {
			t.Errorf("zipf=%v: different seeds gave the same pool", zipf)
		}
		if zipf && reflect.DeepEqual(a.order, c.order) {
			t.Errorf("different seeds gave the same Zipf order")
		}
		want := 1 << uniformPoolBits
		if zipf {
			want = 1 << zipfPoolBits
		}
		if len(a.pool) != want {
			t.Errorf("zipf=%v: pool has %d pairs, want %d", zipf, len(a.pool), want)
		}
		for _, p := range a.pool {
			if p[0] == p[1] || p[0] < 0 || p[1] < 0 || int(p[0]) >= 10000 || int(p[1]) >= 10000 {
				t.Fatalf("zipf=%v: bad pair %v", zipf, p)
			}
		}
	}
}

func TestUniformStreamWalksThePool(t *testing.T) {
	s := newStream(500, false, true, 1)
	for _, k := range []int{0, 1, len(s.pool) - 1, len(s.pool), 3*len(s.pool) + 5} {
		if got, want := s.at(k), k%len(s.pool); got != want {
			t.Errorf("at(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestZipfOrderIsSkewed(t *testing.T) {
	const size, length = 1 << zipfPoolBits, 1 << 18
	order := zipfOrder(size, length, zipfAlpha, 3)
	counts := make([]int, size)
	for _, r := range order {
		counts[r]++
	}
	// With alpha = 1.1 over 16 Ki ranks the harmonic sum is ~6.8: rank 0
	// alone draws ~15 % and the 8192 hottest ranks (what two 4096-entry
	// caches can hold) ~96 %.
	if share := float64(counts[0]) / length; share < 0.13 || share > 0.165 {
		t.Errorf("rank 0 drew %.3f of the stream, want ~0.147", share)
	}
	head := 0
	for _, c := range counts[:8192] {
		head += c
	}
	if share := float64(head) / length; share < 0.94 || share > 0.98 {
		t.Errorf("the 8192 hottest ranks drew %.3f of the stream, want ~0.96", share)
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[1000] {
		t.Errorf("counts are not decreasing in rank: %d %d %d %d", counts[0], counts[1], counts[10], counts[1000])
	}
}

func TestVerbSchedule(t *testing.T) {
	mixed, plain := spec{mixed: true}, spec{}
	var dist, path, ecc int
	for k := 0; k < 2*eccEvery; k++ {
		if plain.verbAt(k) != verbDist {
			t.Fatalf("distance-only schedule issued verb %d at call %d", plain.verbAt(k), k)
		}
		switch mixed.verbAt(k) {
		case verbDist:
			dist++
		case verbPath:
			path++
		default:
			ecc++
		}
	}
	// Per 2000 calls: one /ecc, 99 /path (the 100th path slot is the
	// /ecc call), the rest /distance.
	if ecc != 2 || path != 198 || dist != 3800 {
		t.Errorf("two periods issued %d ecc, %d path, %d distance", ecc, path, dist)
	}
}
