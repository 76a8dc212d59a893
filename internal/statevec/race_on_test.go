//go:build race

package statevec

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
