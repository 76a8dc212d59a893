package hsf

import (
	"hsfsim/internal/cut"
	"hsfsim/internal/dd"
	"hsfsim/internal/gate"
)

// ddWorkspace is the decision-diagram backend (Burgholzer/Bauer/Wille, QCE
// 2021 — the paper's ref [10]): partition states are edges into two shared
// DD node stores, so branching a pair copies two edge handles instead of two
// amplitude arrays and the path tree shares whole sub-diagrams. Leaves are
// expanded into dense half-statevector scratch buffers and emitted into the
// same leaf batch as the dense backend's.
//
// The node stores are single-threaded, which is why BackendDD caps the run
// at one path worker (backendWorkers). Its value is memory compression and
// the structural comparison with the dense backend, not raw speed. It runs
// the unprojected gate lists (compile applies the output cone to the dense
// backend only) and reads the rows the output needs at emit, so it
// cross-checks the projection.
type ddWorkspace struct {
	e            *engine
	loDD, upDD   *dd.DD
	loBuf, upBuf []complex128
	free         []*ddPair
}

func newDDWorkspace(e *engine) *ddWorkspace {
	return &ddWorkspace{
		e:     e,
		loDD:  dd.New(e.nLower, 0),
		upDD:  dd.New(e.nUpper, 0),
		loBuf: make([]complex128, 1<<e.nLower),
		upBuf: make([]complex128, 1<<e.nUpper),
	}
}

func (ws *ddWorkspace) take() *ddPair {
	if n := len(ws.free); n > 0 {
		p := ws.free[n-1]
		ws.free = ws.free[:n-1]
		return p
	}
	return &ddPair{ws: ws}
}

func (ws *ddWorkspace) newRoot() (pairState, error) {
	p := ws.take()
	p.lo, p.up = ws.loDD.Root(), ws.upDD.Root()
	return p, nil
}

type ddPair struct {
	ws     *ddWorkspace
	lo, up dd.Edge
}

func (p *ddPair) applySegment(seg *segment) error {
	if err := p.applyAll(p.ws.loDD, &p.lo, seg.gates[cut.Lower]); err != nil {
		return err
	}
	return p.applyAll(p.ws.upDD, &p.up, seg.gates[cut.Upper])
}

func (p *ddPair) applyAll(d *dd.DD, root *dd.Edge, gs []gate.Gate) error {
	for i := range gs {
		next, err := d.ApplyGateTo(*root, &gs[i])
		if err != nil {
			return err
		}
		*root = next
	}
	return nil
}

// child forks the edges unless it works in place (sub-diagrams are shared, so
// a fork is free) and applies each side's residual gate; an identity applies
// nothing.
func (p *ddPair) child(c *compiledCut, t int, inPlace bool) (pairState, error) {
	lo, err := applyResidual(p.ws.loDD, p.lo, &c.res[cut.Lower][t])
	if err != nil {
		return nil, err
	}
	up, err := applyResidual(p.ws.upDD, p.up, &c.res[cut.Upper][t])
	if err != nil {
		return nil, err
	}
	f := p
	if !inPlace {
		f = p.ws.take()
	}
	f.lo, f.up = lo, up
	return f, nil
}

func applyResidual(d *dd.DD, root dd.Edge, r *residual) (dd.Edge, error) {
	if r.g == nil {
		return root, nil
	}
	return d.ApplyGateTo(root, r.g)
}

func (p *ddPair) release() {
	p.ws.free = append(p.ws.free, p)
}

// emit expands the leaf into interleaved scratch (the DD's natural output)
// and converts what the batch keeps into SoA: the lower half into a buffer of
// the batch's pool, the upper rows into the table.
func (p *ddPair) emit(b *leafBatch, coeff complex128) {
	ws := p.ws
	ws.loDD.FillStatevector(p.lo, ws.loBuf)
	ws.upDD.FillStatevector(p.up, ws.upBuf)
	lo := b.pool.Get(len(ws.loBuf))
	lo.CopyFromComplex(ws.loBuf)
	row := b.add(coeff, lo)
	row.CopyFromComplex(ws.upBuf[:row.Len()])
	p.release()
}
