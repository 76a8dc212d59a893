package statevec

import "math"

// Pool is a size-keyed free list of statevector buffers in SoA layout. The
// HSF path walker forks and releases one (lower, upper) vector pair per
// path-tree node, so a per-worker Pool turns the O(paths) large allocations
// of naive cloning into a handful of buffers reused for the whole run (live
// count = tree depth). Buffers are keyed by the size they were allocated at,
// so a state the walker's output-cone projection shrank in place still comes
// back whole.
//
// A Pool is not safe for concurrent use; each worker goroutine owns its own.
type Pool struct {
	// Poison, when set, fills every released buffer with NaN. A stale-read
	// bug (using a vector after release, or trusting pool contents before
	// initialization) then corrupts results loudly instead of silently;
	// tests enable it as a canary.
	Poison bool

	free map[int][]Vector

	gets, reuses int
	bytes        int64
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{free: make(map[int][]Vector)}
}

// Get returns a vector of exactly n amplitudes with unspecified contents,
// reusing a released buffer of the same size when one is available.
func (p *Pool) Get(n int) Vector {
	p.gets++
	if list := p.free[n]; len(list) > 0 {
		v := list[len(list)-1]
		p.free[n] = list[:len(list)-1]
		p.reuses++
		return v
	}
	p.bytes += 16 * int64(n)
	return MakeVector(n)
}

// GetZero returns the basis state |0...0> in an n-amplitude vector.
func (p *Pool) GetZero(n int) Vector {
	v := p.Get(n)
	v.SetBasis()
	return v
}

// Put releases a vector back to the pool. The caller must not use v
// afterwards. Releasing the zero Vector is a no-op. A vector resliced shorter
// (a Projection's result) returns at the length Get handed it out with.
func (p *Pool) Put(v Vector) {
	if v.Re == nil {
		return
	}
	v = Vector{Re: v.Re[:cap(v.Re)], Im: v.Im[:cap(v.Im)]}
	if p.Poison {
		nan := math.NaN()
		for i := range v.Re {
			v.Re[i] = nan
			v.Im[i] = nan
		}
	}
	p.free[v.Len()] = append(p.free[v.Len()], v)
}

// Stats reports how many Get calls the pool served and how many of those
// reused a released buffer. Steady-state walker execution has
// reuses == gets - (live-state high-water mark).
func (p *Pool) Stats() (gets, reuses int) { return p.gets, p.reuses }

// Bytes reports the bytes of every buffer the pool has allocated. The pool
// frees nothing, so this is its footprint: per size, the most buffers of that
// size ever out at once.
func (p *Pool) Bytes() int64 { return p.bytes }
