//go:build race

package hubclient

// raceEnabled reports whether the race detector is compiled in (see
// the server package's note on race-mode sync.Pool behavior).
const raceEnabled = true
