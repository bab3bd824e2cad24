//go:build !race

package hubclient

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
