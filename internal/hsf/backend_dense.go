package hsf

import (
	"hsfsim/internal/cut"
	"hsfsim/internal/statevec"
)

// denseWorkspace is the dense-array backend: partition states are
// statevec.Vector buffers (split real/imag planes) recycled through a
// size-keyed per-worker pool, and the pair structs themselves recycle through
// a free list, so steady-state walking allocates nothing. Segments, cut
// terms, and the leaf fold all run on the SoA planes — a path never
// round-trips through an interleaved []complex128.
//
// A half shrinks in place wherever the output cone drops qubits (see cone),
// so a written child takes buffers of the parent's current size, and a
// shrunken buffer returns to the pool at the size it was taken at.
type denseWorkspace struct {
	e    *engine
	pool *statevec.Pool
	free []*densePair
}

// take returns a pair with fresh buffers of nLo and nUp amplitudes attached
// (contents unspecified).
func (ws *denseWorkspace) take(nLo, nUp int) *densePair {
	var p *densePair
	if n := len(ws.free); n > 0 {
		p = ws.free[n-1]
		ws.free = ws.free[:n-1]
	} else {
		p = &densePair{ws: ws}
	}
	p.lo = ws.pool.Get(nLo)
	p.up = ws.pool.Get(nUp)
	return p
}

func (ws *denseWorkspace) newRoot() (pairState, error) {
	p := ws.take(1<<ws.e.nLower, 1<<ws.e.nUpper)
	p.lo.SetBasis()
	p.up.SetBasis()
	return p, nil
}

type densePair struct {
	ws     *denseWorkspace
	lo, up statevec.Vector
}

func (p *densePair) applySegment(seg *segment) error {
	p.lo = seg.run(cut.Lower, p.lo)
	p.up = seg.run(cut.Upper, p.up)
	return nil
}

// child applies the residuals in place, or writes the child into buffers of
// the parent's current size: the copy, then the residuals on the copy while
// it is in cache (an identity is the copy alone). Scaling while copying
// streams a third buffer through the cache where memmove does not, and
// measured slower on a 2^11-amplitude half: 1.4–1.6 µs against 1.1 µs for
// the copy and an in-place half scale.
func (p *densePair) child(c *compiledCut, t int, inPlace bool) (pairState, error) {
	if !inPlace {
		f := p.ws.take(p.lo.Len(), p.up.Len())
		f.lo.CopyFrom(p.lo)
		f.up.CopyFrom(p.up)
		p = f
	}
	p.lo = c.apply(cut.Lower, t, p.lo)
	p.up = c.apply(cut.Upper, t, p.up)
	return p, nil
}

func (p *densePair) release() {
	p.ws.pool.Put(p.lo)
	p.ws.pool.Put(p.up)
	p.lo, p.up = statevec.Vector{}, statevec.Vector{}
	p.ws.free = append(p.ws.free, p)
}

// emit gives the lower half to the batch as it is and copies out the upper
// rows, so the upper half returns to the pool at once.
func (p *densePair) emit(b *leafBatch, coeff complex128) {
	row := b.add(coeff, p.lo)
	row.CopyFrom(p.up.Slice(0, row.Len()))
	p.lo = statevec.Vector{}
	p.release()
}
