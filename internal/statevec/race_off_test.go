//go:build !race

package statevec

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a share of what is put back, so a guard that counts the
// allocations of pooled scratch borrows cannot hold.
const raceEnabled = false
