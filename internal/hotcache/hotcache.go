// Package hotcache is a fixed-size, set-associative (u,v)→distance
// cache for the serving hot path. Real query traffic is heavily
// Zipf-skewed — a small set of popular pairs dominates — and for those
// pairs a hash probe (a handful of loads over two cache lines) should
// replace the linear-in-label-length hub merge entirely.
//
// The cache is deliberately not concurrent: each server shard has one
// Cache, and its single writer is whichever goroutine holds the shard's
// lock — the shard's worker, or a submitter serving its own query. The
// lock orders one holder's stores before the next holder's loads, so
// lookups and inserts stay plain loads and stores — no locks or atomics
// of the cache's own, no false sharing between shards. The only
// cross-goroutine traffic is the hit/miss/evict counters (read by
// Stats) and the generation word, both atomic.
//
// Coherence is generational, not surgical: the server bumps its
// snapshot generation on every Swap/SwapRetire, and the shard's lock
// holder calls ResetIfStale before probing. A stale cache is discarded
// wholesale — after a swap the served graph may differ arbitrarily, so
// there is nothing worth keeping, and the reset is O(size) of int64
// stores by the one goroutine that holds the arrays. Between the swap
// and the shard's next group the cache is never consulted, so a stale
// answer can never be served.
package hotcache

import (
	"sync/atomic"

	"hublab/internal/graph"
)

// ways is the set associativity. Four 8-byte keys are one cache line;
// a probe touches exactly two lines (keys, then values on a hit).
const ways = 4

// Cache is a set-associative pair→distance cache with a single writer
// at a time — the holder of its server shard's lock. The zero value is
// not usable; call New.
type Cache struct {
	keys []uint64       // sets*ways, 0 = empty slot
	vals []graph.Weight // parallel to keys
	rr   []uint8        // per-set round-robin eviction cursor
	mask uint64         // set count - 1 (sets are a power of two)
	gen  uint64         // generation the current contents answer for
	// Counters are atomic only because Stats reads them from other
	// goroutines; the shard's lock holder is the only writer.
	hits   atomic.Uint64
	misses atomic.Uint64
	evicts atomic.Uint64
}

// New builds a cache with capacity for at least entries pairs, rounded
// up to a power-of-two number of 4-way sets (minimum one set). Returns
// nil for entries <= 0 — a nil *Cache is the disabled state and every
// method on it is safe to skip-guard.
func New(entries int) *Cache {
	if entries <= 0 {
		return nil
	}
	sets := 1
	for sets*ways < entries {
		sets <<= 1
	}
	return &Cache{
		keys: make([]uint64, sets*ways),
		vals: make([]graph.Weight, sets*ways),
		rr:   make([]uint8, sets),
		mask: uint64(sets - 1),
	}
}

// Key canonicalizes an unordered pair into a nonzero probe key.
// Distances are symmetric, so (u,v) and (v,u) must hit the same slot:
// the smaller id goes in the high half. Both halves are offset by one
// so the zero key never occurs and can mark empty slots; ids ≥ 2³²-1
// (far beyond the int32 CSR limit) would alias, which a hostile caller
// can exploit only into a wrong-but-cached answer for itself.
func Key(u, v graph.NodeID) uint64 {
	a, b := uint64(uint32(u))+1, uint64(uint32(v))+1
	if a > b {
		a, b = b, a
	}
	return a<<32 | b
}

// set returns the slot base of key's set. Fibonacci hashing spreads
// the structured (small-id-biased) key space across sets using the
// high multiplier bits, which survive the power-of-two mask.
func (c *Cache) set(key uint64) int {
	h := key * 0x9E3779B97F4A7C15
	return int((h>>32)&c.mask) * ways
}

// Lookup probes for key and reports the cached distance. The miss is
// counted here so hit+miss equals the probe count exactly.
func (c *Cache) Lookup(key uint64) (graph.Weight, bool) {
	s := c.set(key)
	k := c.keys[s : s+ways : s+ways]
	for i := 0; i < ways; i++ {
		if k[i] == key {
			c.hits.Add(1)
			return c.vals[s+i], true
		}
	}
	c.misses.Add(1)
	return graph.Infinity, false
}

// Insert stores key→d, evicting round-robin within the set when all
// four ways are occupied. Inserting a key that is already present
// overwrites it in place (the served index can only have produced the
// same answer within a generation, but overwriting keeps Insert
// idempotent regardless).
func (c *Cache) Insert(key uint64, d graph.Weight) {
	s := c.set(key)
	k := c.keys[s : s+ways : s+ways]
	free := -1
	for i := 0; i < ways; i++ {
		if k[i] == key {
			c.vals[s+i] = d
			return
		}
		if k[i] == 0 && free < 0 {
			free = i
		}
	}
	if free < 0 {
		set := s / ways
		free = int(c.rr[set]) % ways
		c.rr[set]++
		c.evicts.Add(1)
	}
	k[free] = key
	c.vals[s+free] = d
}

// ResetIfStale discards the whole cache when gen differs from the
// generation the contents were filled under. Must be called by the
// owning goroutine before the first Lookup of every served group; the
// generation itself is published atomically only so tests and Stats
// can read it.
func (c *Cache) ResetIfStale(gen uint64) {
	if atomic.LoadUint64(&c.gen) == gen {
		return
	}
	clear(c.keys)
	for i := range c.rr {
		c.rr[i] = 0
	}
	atomic.StoreUint64(&c.gen, gen)
}

// Stats returns the cumulative hit/miss/evict counters. Safe to call
// from any goroutine.
func (c *Cache) Stats() (hits, misses, evicts uint64) {
	return c.hits.Load(), c.misses.Load(), c.evicts.Load()
}

// Len reports the slot capacity (sets × ways).
func (c *Cache) Len() int { return len(c.keys) }

// Sets reports the set count — exported for tests asserting the
// power-of-two rounding.
func (c *Cache) Sets() int { return len(c.rr) }
