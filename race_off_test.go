//go:build !race

package hsfsim

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a share of what is put back, so a guard that counts the
// allocations of several pooled borrows per run cannot hold.
const raceEnabled = false
