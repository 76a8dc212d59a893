//go:build race

package hsfsim

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
