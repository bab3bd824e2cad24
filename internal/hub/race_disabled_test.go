//go:build !race

package hub

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
