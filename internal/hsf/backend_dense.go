package hsf

import "hsfsim/internal/statevec"

// denseWorkspace is the dense-array backend: partition states are
// statevec.Vector buffers (split real/imag planes) recycled through a
// size-keyed per-worker pool, and the pair structs themselves recycle through
// a free list, so steady-state walking allocates nothing. Segments, cut
// terms, and the leaf fold all run on the SoA planes — a path never
// round-trips through an interleaved []complex128.
type denseWorkspace struct {
	e    *engine
	pool *statevec.Pool
	free []*densePair
}

// take returns a pair with fresh buffers of the partition sizes attached
// (contents unspecified).
func (ws *denseWorkspace) take() *densePair {
	var p *densePair
	if n := len(ws.free); n > 0 {
		p = ws.free[n-1]
		ws.free = ws.free[:n-1]
	} else {
		p = &densePair{ws: ws}
	}
	p.lo = ws.pool.Get(1 << ws.e.nLower)
	p.up = ws.pool.Get(1 << ws.e.nUpper)
	return p
}

func (ws *denseWorkspace) newRoot() (pairState, error) {
	p := ws.take()
	p.lo.SetBasis()
	p.up.SetBasis()
	return p, nil
}

type densePair struct {
	ws     *denseWorkspace
	lo, up statevec.Vector
}

func (p *densePair) applySegment(seg *segment) error {
	seg.loSeg.Apply(p.lo)
	seg.upSeg.Apply(p.up)
	return nil
}

func (p *densePair) applyCutTerm(c *compiledCut, t int) error {
	p.lo.ApplyGate(&c.lower[t])
	p.up.ApplyGate(&c.upper[t])
	return nil
}

func (p *densePair) fork() (pairState, error) {
	f := p.ws.take()
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
