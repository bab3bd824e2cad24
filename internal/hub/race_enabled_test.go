//go:build race

package hub

// raceEnabled reports whether the race detector is compiled in.
// Allocation assertions are skipped under it: the race-mode sync.Pool
// deliberately drops a fraction of Puts, so pooled hot paths show
// phantom allocations there.
const raceEnabled = true
