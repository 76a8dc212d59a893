package hsf

import (
	"hsfsim/internal/cut"
	"hsfsim/internal/statevec"
)

// workspace is one worker goroutine's private pair factory: partition states
// are statevec.Vector buffers (split real/imag planes) recycled through a
// size-keyed per-worker pool, and the pair structs themselves recycle through
// a free list, so steady-state walking allocates nothing. Segments, cut
// terms, and the leaf fold all run on the SoA planes — a path never
// round-trips through an interleaved []complex128. Workspaces are not safe
// for concurrent use.
//
// A half shrinks in place wherever the output cone drops qubits (see cone),
// so a written child takes buffers of the parent's current size, and a
// shrunken buffer returns to the pool at the size it was taken at.
type workspace struct {
	e    *engine
	pool *statevec.Pool
	free []*densePair
}

// take returns a pair with fresh buffers of nLo and nUp amplitudes attached
// (contents unspecified).
func (ws *workspace) take(nLo, nUp int) *densePair {
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

// newRoot returns the pair |0…0⟩ ⊗ |0…0⟩ at full size.
func (ws *workspace) newRoot() *densePair {
	p := ws.take(1<<ws.e.nLower, 1<<ws.e.nUpper)
	p.lo.SetBasis()
	p.up.SetBasis()
	return p
}

// densePair is one (lower, upper) partition state pair at a node of the path
// tree — the unit the walker branches at cuts, advances through segments, and
// emits into its leaf batch at leaves. A pair is owned by a single worker
// goroutine.
//
// Ownership discipline: child either turns the pair into its child or writes
// a new one; release returns the pair to its workspace, after which it must
// not be used; emit is the release of a leaf. The walker ends every pair
// exactly once, so live pairs never exceed the tree depth.
type densePair struct {
	ws     *workspace
	lo, up statevec.Vector
}

// applySegment advances both partitions through a segment's local gates.
func (p *densePair) applySegment(seg *segment) {
	p.lo = seg.run(cut.Lower, p.lo)
	p.up = seg.run(cut.Upper, p.up)
}

// child returns the pair term t of cut c leads to: both partitions through
// the term's residual, then the cut's projection. In place, the pair itself
// becomes the child; the walker asks for that only when it needs the parent
// no more, at a cut's last term. Otherwise the child is written into buffers
// of the parent's current size: the copy, then the residuals on the copy
// while it is in cache (an identity is the copy alone), and the parent stays
// as it was. Scaling while copying streams a third buffer through the cache
// where memmove does not, and measured slower on a 2^11-amplitude half:
// 1.4–1.6 µs against 1.1 µs for the copy and an in-place half scale.
func (p *densePair) child(c *compiledCut, t int, inPlace bool) *densePair {
	if !inPlace {
		f := p.ws.take(p.lo.Len(), p.up.Len())
		f.lo.CopyFrom(p.lo)
		f.up.CopyFrom(p.up)
		p = f
	}
	p.lo = c.apply(cut.Lower, t, p.lo)
	p.up = c.apply(cut.Upper, t, p.up)
	return p
}

// release returns the pair's buffers to the pool and the pair to the free
// list.
func (p *densePair) release() {
	p.ws.pool.Put(p.lo)
	p.ws.pool.Put(p.up)
	p.lo, p.up = statevec.Vector{}, statevec.Vector{}
	p.ws.free = append(p.ws.free, p)
}

// emit hands the leaf coeff · (upper ⊗ lower) to b and releases the pair. The
// coefficient goes into the smaller operand of the leaf's fold, so that every
// product keeps one association: with no more rows than lower columns, the
// upper rows the output reads are copied out weighted, (c·up)·lo; otherwise
// they are copied as they are and the lower half (or proxy) is weighted in
// place, up·(c·lo), since the batch takes that buffer over. A leaf whose
// coefficient or output rows are zero adds nothing: it is dropped, and its
// lower half goes back to the pool unread. Either way the upper half returns to the pool at
// once.
func (p *densePair) emit(b *leafBatch, coeff complex128) {
	row := b.ups[len(b.los)]
	up, byRows := p.up.Slice(0, row.Len()), row.Len() <= p.lo.Len()
	if byRows {
		weigh(row, up, coeff)
	} else {
		row.CopyFrom(up)
	}
	if coeff != 0 && nonzero(row) {
		if !byRows {
			weigh(p.lo, p.lo, coeff)
		}
		b.los, p.lo = append(b.los, p.lo), statevec.Vector{}
	}
	p.release()
}

// weigh sets dst to c·src amplitude by amplitude; dst may be src.
func weigh(dst, src statevec.Vector, c complex128) {
	cr, ci := real(c), imag(c)
	n := len(dst.Re)
	dr, di, sr, si := dst.Re[:n], dst.Im[:n], src.Re[:n], src.Im[:n]
	for i, r := range sr {
		m := si[i]
		dr[i], di[i] = cr*r-ci*m, cr*m+ci*r
	}
}

// nonzero reports whether any amplitude of v is non-zero.
func nonzero(v statevec.Vector) bool {
	for i, r := range v.Re {
		if r != 0 || v.Im[i] != 0 {
			return true
		}
	}
	return false
}

// leafBatchK is the number of leaves one fold applies, at every accumulator
// shape: the fold's own chunk, so a batch streams the accumulator once. The
// engine and Cost both size the batch from here.
const leafBatchK = statevec.FoldChunk

// leafRows returns the number of accumulator rows (upper amplitudes) an
// m-amplitude output reads.
func leafRows(m, nLower int) int {
	return (m + 1<<nLower - 1) >> nLower
}

// leafBatch is one worker's pending rank-K update of its accumulator: the
// leaves emitted since the last fold, each as the rows of its upper half the
// output reads and its lower half, one of the two weighted by the leaf's path
// coefficient (emit). A lower half stays in the pool buffer the leaf evolved
// it in (emit hands it over without a copy) and returns to the pool when the
// batch is folded or discarded; nothing else of a leaf outlives emit.
type leafBatch struct {
	pool *statevec.Pool
	ups  []statevec.Vector // K rows of the weight table
	los  []statevec.Vector // len = leaves held, cap = K
}

func (e *engine) newLeafBatch(pool *statevec.Pool) leafBatch {
	return leafBatch{
		pool: pool,
		ups:  statevec.MakeVectors(leafBatchK, leafRows(e.m, e.nLower)),
		los:  make([]statevec.Vector, 0, leafBatchK),
	}
}

func (b *leafBatch) full() bool { return len(b.los) == len(b.ups) }

// discard empties the batch without folding it.
func (b *leafBatch) discard() {
	for _, lo := range b.los {
		b.pool.Put(lo)
	}
	b.los = b.los[:0]
}

// leafFold is the fold's nil Diagonal: one class per row, the leaf fold.
var leafFold *statevec.Diagonal
