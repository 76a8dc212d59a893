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
// so a fork takes buffers of the parent's current size, and a shrunken buffer
// returns to the pool at the size it was taken at.
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

func (p *densePair) applyCutTerm(c *compiledCut, t int) error {
	p.lo = c.run(cut.Lower, t, p.lo)
	p.up = c.run(cut.Upper, t, p.up)
	return nil
}

func (p *densePair) fork() (pairState, error) {
	f := p.ws.take(p.lo.Len(), p.up.Len())
	f.lo.CopyFrom(p.lo)
	f.up.CopyFrom(p.up)
	return f, nil
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
