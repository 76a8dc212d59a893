package statevec

import (
	"math/cmplx"
	"sync"

	"hsfsim/internal/gate"
	"hsfsim/internal/par"
)

// Vector gate application. The kernel is chosen from the gate's structure
// classification (see gate.Kind): diagonal, permutation, and controlled gates
// use kernels that touch only the amplitudes the structure says can change;
// everything else falls back to a dense matvec. 1q/2q gates dispatch straight
// off the classification flags, k≥3 gates through a precomputed kernelPlan,
// and large states split across the persistent executor (sequential /
// parallelRange). Each 1q/2q arm has two bodies: a span path that hands
// contiguous runs of the planes to the startup-selected primitive table (taken
// when the gate's run length 2^q reaches ops.spanMin), and an inline scalar
// loop for low qubits and the purego arm. soa_parity_test.go pins every arm
// against the dense-matvec oracle State.ApplyGate at 1e-12.

// parallelThreshold is the kernel-domain size above which gate application is
// split across goroutines. Below it, goroutine overhead dominates.
const parallelThreshold = 1 << 14

// sparseTol is the matrix-entry threshold below which the k-qubit plan
// builder treats an element as zero (and within which it treats an element as
// one). It matches gate classification's tolerance, so the sparse kernel
// drops exactly the entries the diagonal flag already ignores.
const sparseTol = 1e-14

// ApplyGate applies g to the vector in place. Application is parallelized
// across the persistent executor for large states, within the process-wide
// parallelism budget (par.Inner).
func (v Vector) ApplyGate(g *gate.Gate) {
	switch g.NumQubits() {
	case 1:
		half := v.Len() >> 1
		if sequential(half) {
			v.kernel1(g, 0, half)
			return
		}
		parallelRange(half, func(lo, hi int) { v.kernel1(g, lo, hi) })
	case 2:
		quarter := v.Len() >> 2
		if sequential(quarter) {
			v.kernel2(g, 0, quarter)
			return
		}
		parallelRange(quarter, func(lo, hi int) { v.kernel2(g, lo, hi) })
	default:
		v.applyK(g)
	}
}

// ApplyAll applies a sequence of gates in order.
func (v Vector) ApplyAll(gs []gate.Gate) {
	for i := range gs {
		v.ApplyGate(&gs[i])
	}
}

// applyInline applies g on the caller's goroutine with no parallel split,
// borrowing scratch for k≥3 kernels that gather into complex scratch and
// scatter back to the planes. The compiled segment sweep uses it to replay
// many gates per tile while holding one scratch buffer across the whole
// sweep; a nil or undersized scratch falls back to the pool.
func (v Vector) applyInline(g *gate.Gate, scratch []complex128) {
	switch g.NumQubits() {
	case 1:
		v.kernel1(g, 0, v.Len()>>1)
	case 2:
		v.kernel2(g, 0, v.Len()>>2)
	default:
		plan := planOf(g)
		n := plan.domain(v.Len())
		if plan.scratch > 0 && len(scratch) < plan.scratch {
			sp, buf := getScratch(plan.scratch)
			v.kernelK(g, plan, 0, n, buf)
			scratchPool.Put(sp)
			return
		}
		v.kernelK(g, plan, 0, n, scratch)
	}
}

// sequential reports whether a kernel over n items should run inline on the
// caller's goroutine: the work is too small to amortize handoff, or the
// parallelism budget is already spent on coarser-grained workers. The size
// check comes first so small states never touch the budget.
//
// Every dispatch site branches on this before building its chunk closure,
// keeping the sequential hot path (every per-path gate in an HSF run) free of
// closure allocations. parallelRange relies on that gating and does not
// re-check.
func sequential(n int) bool {
	return n < parallelThreshold || par.Inner() <= 1
}

// parallelRange runs fn over [0,n) split into contiguous chunks sized by the
// current parallelism budget. Chunks are handed to the persistent executor
// with a non-blocking submit — the caller always runs the first chunk itself
// and absorbs any chunk no executor worker is free to take. Callers must gate
// on sequential(n) first; if the budget collapses between that check and this
// call, the chunk math degrades to a single inline fn(0,n).
func parallelRange(n int, fn func(lo, hi int)) {
	workers := par.Inner()
	if workers > n {
		workers = n
	}
	ch := executor()
	chunk := n
	if workers > 1 {
		chunk = (n + workers - 1) / workers
	}
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		select {
		case ch <- span{fn: fn, lo: lo, hi: hi, wg: &wg}:
		default:
			fn(lo, hi)
			wg.Done()
		}
	}
	fn(0, chunk)
	wg.Wait()
}

// kernel1 applies a single-qubit gate to the half-blocks [lo,hi): block o
// addresses the amplitude pair (i0, i0|1<<q). The arms, cheapest first:
// controlled phases touch one amplitude per pair, diagonals skip the
// cross terms, permutations move without arithmetic.
func (v Vector) kernel1(g *gate.Gate, lo, hi int) {
	q := g.Qubits[0]
	m := g.Matrix.Data
	switch {
	case g.Diagonal && g.Controls != 0:
		v.phase1(m[3], q, lo, hi)
	case g.Diagonal:
		v.diag1(m[0], m[3], q, lo, hi)
	case g.Perm != nil && g.PermPhase == nil:
		v.perm1(q, lo, hi)
	case g.Perm != nil:
		v.permPhase1(m[1], m[2], q, lo, hi)
	default:
		v.rot1(m[0], m[1], m[2], m[3], q, lo, hi)
	}
}

// span1 visits the contiguous runs covering half-blocks [lo,hi) for qubit q:
// each run is n consecutive amplitudes starting at i0 (bit q clear) paired
// with the run at i0|mask. Callers iterate it open-coded (no closures — the
// sequential path must stay allocation-free):
//
//	for o := lo; o < hi; {
//		g := o >> q
//		end := min((g+1)<<q, hi)
//		i0 := g<<(q+1) | (o & (mask - 1))
//		n := end - o
//		... spans [i0, i0+n) and [i0+mask, i0+mask+n) ...
//		o = end
//	}
//
// Adding j < n to i0 never carries into bit q, so both spans are contiguous.

// phase1: diag(1, d) — scale only the bit-set run of each pair.
func (v Vector) phase1(d complex128, q, lo, hi int) {
	mask := 1 << q
	dr, di := real(d), imag(d)
	if sm := ops.spanMin; sm > 0 && mask >= sm {
		re, im := v.Re, v.Im
		for o := lo; o < hi; {
			g := o >> q
			end := (g + 1) << q
			if end > hi {
				end = hi
			}
			i1 := g<<(q+1) | (o & (mask - 1)) | mask
			n := end - o
			ops.scale(re[i1:i1+n], im[i1:i1+n], dr, di)
			o = end
		}
		return
	}
	if q < 2 && ops.diag1lo != nil {
		ops.diag1lo(v.Re, v.Im, q, lo, hi, 1, 0, dr, di)
		return
	}
	re, im := v.Re, v.Im
	for o := lo; o < hi; o++ {
		i := (o>>q)<<(q+1) | (o & (mask - 1)) | mask
		r, m := re[i], im[i]
		re[i] = dr*r - di*m
		im[i] = dr*m + di*r
	}
}

// diag1: diag(a, d) with no unit entry (RZ).
func (v Vector) diag1(a, d complex128, q, lo, hi int) {
	mask := 1 << q
	ar, ai := real(a), imag(a)
	dr, di := real(d), imag(d)
	if sm := ops.spanMin; sm > 0 && mask >= sm {
		re, im := v.Re, v.Im
		for o := lo; o < hi; {
			g := o >> q
			end := (g + 1) << q
			if end > hi {
				end = hi
			}
			i0 := g<<(q+1) | (o & (mask - 1))
			i1 := i0 + mask
			n := end - o
			ops.scale(re[i0:i0+n], im[i0:i0+n], ar, ai)
			ops.scale(re[i1:i1+n], im[i1:i1+n], dr, di)
			o = end
		}
		return
	}
	if q < 2 && ops.diag1lo != nil {
		ops.diag1lo(v.Re, v.Im, q, lo, hi, ar, ai, dr, di)
		return
	}
	re, im := v.Re, v.Im
	for o := lo; o < hi; o++ {
		i0 := (o>>q)<<(q+1) | (o & (mask - 1))
		i1 := i0 | mask
		r0, m0 := re[i0], im[i0]
		re[i0] = ar*r0 - ai*m0
		im[i0] = ar*m0 + ai*r0
		r1, m1 := re[i1], im[i1]
		re[i1] = dr*r1 - di*m1
		im[i1] = dr*m1 + di*r1
	}
}

// perm1: the bit flip (X) — swap paired runs, no arithmetic.
func (v Vector) perm1(q, lo, hi int) {
	mask := 1 << q
	if sm := ops.spanMin; sm > 0 && mask >= sm {
		re, im := v.Re, v.Im
		for o := lo; o < hi; {
			g := o >> q
			end := (g + 1) << q
			if end > hi {
				end = hi
			}
			i0 := g<<(q+1) | (o & (mask - 1))
			i1 := i0 + mask
			n := end - o
			ops.swap(re[i0:i0+n], im[i0:i0+n], re[i1:i1+n], im[i1:i1+n])
			o = end
		}
		return
	}
	re, im := v.Re, v.Im
	for o := lo; o < hi; o++ {
		i0 := (o>>q)<<(q+1) | (o & (mask - 1))
		i1 := i0 | mask
		re[i0], re[i1] = re[i1], re[i0]
		im[i0], im[i1] = im[i1], im[i0]
	}
}

// permPhase1: antidiagonal (b over c) — a flip with one multiply per move (Y).
func (v Vector) permPhase1(b, c complex128, q, lo, hi int) {
	mask := 1 << q
	br, bi := real(b), imag(b)
	cr, ci := real(c), imag(c)
	if sm := ops.spanMin; sm > 0 && mask >= sm {
		re, im := v.Re, v.Im
		for o := lo; o < hi; {
			g := o >> q
			end := (g + 1) << q
			if end > hi {
				end = hi
			}
			i0 := g<<(q+1) | (o & (mask - 1))
			i1 := i0 + mask
			n := end - o
			ops.cross(re[i0:i0+n], im[i0:i0+n], re[i1:i1+n], im[i1:i1+n], br, bi, cr, ci)
			o = end
		}
		return
	}
	re, im := v.Re, v.Im
	for o := lo; o < hi; o++ {
		i0 := (o>>q)<<(q+1) | (o & (mask - 1))
		i1 := i0 | mask
		x, xm := re[i0], im[i0]
		y, ym := re[i1], im[i1]
		re[i0] = br*y - bi*ym
		im[i0] = br*ym + bi*y
		re[i1] = cr*x - ci*xm
		im[i1] = cr*xm + ci*x
	}
}

// rot1: the dense 1q gate. Arms with a whole-range rot1 slot take every
// qubit in one call; the others run one span call per run, or the scalar loop.
func (v Vector) rot1(a, b, c, d complex128, q, lo, hi int) {
	mask := 1 << q
	ar, ai := real(a), imag(a)
	br, bi := real(b), imag(b)
	cr, ci := real(c), imag(c)
	dr, di := real(d), imag(d)
	if ops.rot1 != nil {
		ops.rot1(v.Re, v.Im, q, lo, hi, ar, ai, br, bi, cr, ci, dr, di)
		return
	}
	if sm := ops.spanMin; sm > 0 && mask >= sm {
		rot1Runs(v.Re, v.Im, q, lo, hi, ops.rot2x2, ar, ai, br, bi, cr, ci, dr, di)
		return
	}
	re, im := v.Re, v.Im
	for o := lo; o < hi; o++ {
		i0 := (o>>q)<<(q+1) | (o & (mask - 1))
		i1 := i0 | mask
		x, xm := re[i0], im[i0]
		y, ym := re[i1], im[i1]
		re[i0] = ar*x - ai*xm + br*y - bi*ym
		im[i0] = ar*xm + ai*x + br*ym + bi*y
		re[i1] = cr*x - ci*xm + dr*y - di*ym
		im[i1] = cr*xm + ci*x + dr*ym + di*y
	}
}

// kernel2 applies a two-qubit gate to the quarter-blocks [lo,hi): block o
// addresses the four amplitudes (i, i|m0, i|m1, i|m0|m1) with both gate bits
// cleared in i. Matrix bit 0 is Qubits[0], bit 1 is Qubits[1].
func (v Vector) kernel2(g *gate.Gate, lo, hi int) {
	m := g.Matrix.Data
	q0, q1 := g.Qubits[0], g.Qubits[1]
	switch {
	case g.Diagonal:
		v.diag2(m, g.Controls, q0, q1, lo, hi)
	case g.Perm != nil:
		v.perm2(g, lo, hi)
	case g.Controls == 1:
		v.ctrl2(m[5], m[7], m[13], m[15], 1<<q0, 1<<q1, q0, q1, lo, hi)
	case g.Controls == 2:
		v.ctrl2(m[10], m[11], m[14], m[15], 1<<q1, 1<<q0, q0, q1, lo, hi)
	default:
		v.rot2(m, q0, q1, lo, hi)
	}
}

// insert2 spreads block index o over the state, clearing the two gate bit
// positions pLo < pHi.
func insert2(o, pLo, pHi int) int {
	i := (o>>pLo)<<(pLo+1) | (o & (1<<pLo - 1))
	return (i>>pHi)<<(pHi+1) | (i & (1<<pHi - 1))
}

func order2(q0, q1 int) (int, int) {
	if q0 < q1 {
		return q0, q1
	}
	return q1, q0
}

// span2 analogue of span1: quarter-blocks [lo,hi) decompose into runs of
// length up to 2^pLo; within one run the four offsets base, base|m0, base|m1,
// base|m0|m1 each advance contiguously (the run index only occupies bits
// below pLo, so ORing the gate-bit masks never collides with it).

func (v Vector) diag2(m []complex128, ctrl, q0, q1, lo, hi int) {
	m0, m1 := 1<<q0, 1<<q1
	pLo, pHi := order2(q0, q1)
	d0, d1, d2, d3 := m[0], m[5], m[10], m[15]
	if sm := ops.spanMin; sm > 0 && 1<<pLo >= sm {
		re, im := v.Re, v.Im
		for o := lo; o < hi; {
			g := o >> pLo
			end := (g + 1) << pLo
			if end > hi {
				end = hi
			}
			base := insert2(o, pLo, pHi)
			n := end - o
			switch ctrl {
			case 3:
				i := base | m0 | m1
				ops.scale(re[i:i+n], im[i:i+n], real(d3), imag(d3))
			case 1:
				i := base | m0
				ops.scale(re[i:i+n], im[i:i+n], real(d1), imag(d1))
				i |= m1
				ops.scale(re[i:i+n], im[i:i+n], real(d3), imag(d3))
			case 2:
				i := base | m1
				ops.scale(re[i:i+n], im[i:i+n], real(d2), imag(d2))
				i |= m0
				ops.scale(re[i:i+n], im[i:i+n], real(d3), imag(d3))
			default:
				ops.scale(re[base:base+n], im[base:base+n], real(d0), imag(d0))
				i := base | m0
				ops.scale(re[i:i+n], im[i:i+n], real(d1), imag(d1))
				i = base | m1
				ops.scale(re[i:i+n], im[i:i+n], real(d2), imag(d2))
				i |= m0
				ops.scale(re[i:i+n], im[i:i+n], real(d3), imag(d3))
			}
			o = end
		}
		return
	}
	re, im := v.Re, v.Im
	mulAt := func(i int, c complex128) {
		cr, ci := real(c), imag(c)
		r, mm := re[i], im[i]
		re[i] = cr*r - ci*mm
		im[i] = cr*mm + ci*r
	}
	switch ctrl {
	case 3:
		for o := lo; o < hi; o++ {
			mulAt(insert2(o, pLo, pHi)|m0|m1, d3)
		}
	case 1:
		for o := lo; o < hi; o++ {
			i := insert2(o, pLo, pHi) | m0
			mulAt(i, d1)
			mulAt(i|m1, d3)
		}
	case 2:
		for o := lo; o < hi; o++ {
			i := insert2(o, pLo, pHi) | m1
			mulAt(i, d2)
			mulAt(i|m0, d3)
		}
	default:
		for o := lo; o < hi; o++ {
			i := insert2(o, pLo, pHi)
			mulAt(i, d0)
			mulAt(i|m0, d1)
			mulAt(i|m1, d2)
			mulAt(i|m0|m1, d3)
		}
	}
}

// ctrl2 applies the 2×2 submatrix to the control-satisfied run pair.
func (v Vector) ctrl2(u00, u01, u10, u11 complex128, ctrlMask, tgtMask, q0, q1, lo, hi int) {
	pLo, pHi := order2(q0, q1)
	ar, ai := real(u00), imag(u00)
	br, bi := real(u01), imag(u01)
	cr, ci := real(u10), imag(u10)
	dr, di := real(u11), imag(u11)
	if sm := ops.spanMin; sm > 0 && 1<<pLo >= sm {
		re, im := v.Re, v.Im
		for o := lo; o < hi; {
			g := o >> pLo
			end := (g + 1) << pLo
			if end > hi {
				end = hi
			}
			ia := insert2(o, pLo, pHi) | ctrlMask
			ib := ia | tgtMask
			n := end - o
			ops.rot2x2(re[ia:ia+n], im[ia:ia+n], re[ib:ib+n], im[ib:ib+n],
				ar, ai, br, bi, cr, ci, dr, di)
			o = end
		}
		return
	}
	re, im := v.Re, v.Im
	for o := lo; o < hi; o++ {
		ia := insert2(o, pLo, pHi) | ctrlMask
		ib := ia | tgtMask
		x, xm := re[ia], im[ia]
		y, ym := re[ib], im[ib]
		re[ia] = ar*x - ai*xm + br*y - bi*ym
		im[ia] = ar*xm + ai*x + br*ym + bi*y
		re[ib] = cr*x - ci*xm + dr*y - di*ym
		im[ib] = cr*xm + ci*x + dr*ym + di*y
	}
}

// perm2 applies a two-qubit (phase-)permutation; the common single
// transposition (CNOT, SWAP, ISWAP) runs as paired-span cross/swap calls.
func (v Vector) perm2(g *gate.Gate, lo, hi int) {
	perm := g.Perm
	ph := g.PermPhase
	q0, q1 := g.Qubits[0], g.Qubits[1]
	pLo, pHi := order2(q0, q1)
	off := [4]int{0, 1 << q0, 1 << q1, 1<<q0 | 1<<q1}
	a, b := -1, -1
	simple := true
	for c := 0; c < 4; c++ {
		if perm[c] == c {
			if ph != nil && ph[c] != 1 {
				simple = false
			}
			continue
		}
		if a < 0 {
			a = c
		} else if b < 0 {
			b = c
		} else {
			simple = false
		}
	}
	if simple && b >= 0 && perm[a] == b {
		pa, pb := complex128(1), complex128(1)
		if ph != nil {
			pa, pb = ph[a], ph[b]
		}
		offA, offB := off[a], off[b]
		re, im := v.Re, v.Im
		if sm := ops.spanMin; sm > 0 && 1<<pLo >= sm {
			pure := pa == 1 && pb == 1
			for o := lo; o < hi; {
				gg := o >> pLo
				end := (gg + 1) << pLo
				if end > hi {
					end = hi
				}
				i := insert2(o, pLo, pHi)
				ia, ib := i|offA, i|offB
				n := end - o
				if pure {
					ops.swap(re[ia:ia+n], im[ia:ia+n], re[ib:ib+n], im[ib:ib+n])
				} else {
					// new[a] = pb·old[b], new[b] = pa·old[a] — cross with
					// x = span a, y = span b.
					ops.cross(re[ia:ia+n], im[ia:ia+n], re[ib:ib+n], im[ib:ib+n],
						real(pb), imag(pb), real(pa), imag(pa))
				}
				o = end
			}
			return
		}
		paR, paI := real(pa), imag(pa)
		pbR, pbI := real(pb), imag(pb)
		for o := lo; o < hi; o++ {
			i := insert2(o, pLo, pHi)
			ia, ib := i|offA, i|offB
			x, xm := re[ia], im[ia]
			y, ym := re[ib], im[ib]
			re[ia] = pbR*y - pbI*ym
			im[ia] = pbR*ym + pbI*y
			re[ib] = paR*x - paI*xm
			im[ib] = paR*xm + paI*x
		}
		return
	}
	re, im := v.Re, v.Im
	for o := lo; o < hi; o++ {
		i := insert2(o, pLo, pHi)
		var tr, ti [4]float64
		for c := 0; c < 4; c++ {
			idx := i | off[c]
			r, m := re[idx], im[idx]
			if ph != nil {
				pr, pi := real(ph[c]), imag(ph[c])
				r, m = pr*r-pi*m, pr*m+pi*r
			}
			tr[perm[c]], ti[perm[c]] = r, m
		}
		for c := 0; c < 4; c++ {
			idx := i | off[c]
			re[idx], im[idx] = tr[c], ti[c]
		}
	}
}

func (v Vector) rot2(m []complex128, q0, q1, lo, hi int) {
	m0, m1 := 1<<q0, 1<<q1
	pLo, pHi := order2(q0, q1)
	re, im := v.Re, v.Im
	if sm := ops.spanMin; sm > 0 && 1<<pLo >= sm {
		for o := lo; o < hi; {
			g := o >> pLo
			end := (g + 1) << pLo
			if end > hi {
				end = hi
			}
			i := insert2(o, pLo, pHi)
			i1, i2, i3 := i|m0, i|m1, i|m0|m1
			n := end - o
			ops.rot4x4(re[i:i+n], im[i:i+n], re[i1:i1+n], im[i1:i1+n],
				re[i2:i2+n], im[i2:i2+n], re[i3:i3+n], im[i3:i3+n], m)
			o = end
		}
		return
	}
	for o := lo; o < hi; o++ {
		i := insert2(o, pLo, pHi)
		i1, i2, i3 := i|m0, i|m1, i|m0|m1
		x0 := complex(re[i], im[i])
		x1 := complex(re[i1], im[i1])
		x2 := complex(re[i2], im[i2])
		x3 := complex(re[i3], im[i3])
		b0 := m[0]*x0 + m[1]*x1 + m[2]*x2 + m[3]*x3
		b1 := m[4]*x0 + m[5]*x1 + m[6]*x2 + m[7]*x3
		b2 := m[8]*x0 + m[9]*x1 + m[10]*x2 + m[11]*x3
		b3 := m[12]*x0 + m[13]*x1 + m[14]*x2 + m[15]*x3
		re[i], im[i] = real(b0), imag(b0)
		re[i1], im[i1] = real(b1), imag(b1)
		re[i2], im[i2] = real(b2), imag(b2)
		re[i3], im[i3] = real(b3), imag(b3)
	}
}

// planKind selects the k-qubit kernel a plan drives, in the same priority
// order as gate.Kind: the cheaper the structure, the fewer amplitudes and
// multiplies the kernel spends.
type planKind uint8

const (
	planDense  planKind = iota // full gather/matvec/scatter (rotK)
	planDiag                   // multiply the control-satisfied amplitudes by a diagonal entry
	planPerm                   // amplitude moves along permutation cycles
	planCtrl                   // dense submatrix on the non-control bits only
	planSparse                 // matvec skipping zero entries and identity rows
)

// kernelPlan is the precomputed index machinery of the k-qubit kernels.
// Building it per call made every segment replay of a fused gate allocate;
// PrepareGate hoists it onto the gate so the path tree replays
// allocation-free.
type kernelPlan struct {
	kind    planKind
	k       int // gate qubit count
	scratch int // gather-buffer length the kernel borrows (0: none)

	sorted  []int // ascending qubit positions for zero-bit insertion
	offsets []int // offsets[t]: matrix index t spread over the gate qubits

	// planDiag: the diagonal compacted to the control-satisfied block,
	// indexed by the free-bit pattern (the full diagonal when the gate has no
	// controls); lowFree is the free-bit position of the lowest gate qubit,
	// -1 when that qubit is a control.
	diag    []complex128
	lowFree int

	// planDiag / planCtrl control geometry.
	ctrlSorted []int        // ascending control qubit positions (one-bit insertion)
	freeQubits []int        // non-control qubit positions, ascending matrix bit order
	ctrlOff    int          // OR of the control qubit masks
	freeOff    []int        // free-bit pattern u spread over the free qubits
	sub        []complex128 // planCtrl: fdim×fdim submatrix on the free bits

	// planPerm cycle program: cycNode[cycStart[c]:cycStart[c+1]] lists the
	// bit-spread offsets of one cycle in traversal order; cycPhase aligns
	// with cycNode (nil for pure permutations). Phased fixed points are
	// listed separately.
	cycStart []int
	cycNode  []int
	cycPhase []complex128
	fixOff   []int
	fixPhase []complex128

	// planSparse: rows[] lists non-identity matrix rows; row rows[i] holds
	// entries vals[rowStart[i]:rowStart[i+1]] over columns cols[...].
	rows     []int
	rowStart []int
	cols     []int
	vals     []complex128
}

// domain is the block count the plan's kernel iterates for a state of n
// amplitudes: the control-satisfied subspace for a diagonal (all of it without
// controls), one block per 2^k amplitudes otherwise.
func (p *kernelPlan) domain(n int) int {
	if p.kind == planDiag {
		return n >> len(p.ctrlSorted)
	}
	return n >> p.k
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// splitControls partitions the gate's matrix bits into control and free
// sets, returning the control qubit positions (sorted, for one-bit
// insertion), the free qubit positions (ascending matrix-bit order), and the
// free matrix-bit positions in the same order.
func splitControls(g *gate.Gate) (ctrlSorted, freeQubits, freeBits []int) {
	for b := 0; b < g.NumQubits(); b++ {
		if g.Controls&(1<<b) != 0 {
			ctrlSorted = append(ctrlSorted, g.Qubits[b])
		} else {
			freeQubits = append(freeQubits, g.Qubits[b])
			freeBits = append(freeBits, b)
		}
	}
	sortInts(ctrlSorted)
	return
}

// spreadOffsets returns offsets[t] = matrix index t spread over the gate's
// qubit positions.
func spreadOffsets(g *gate.Gate) []int {
	kdim := 1 << g.NumQubits()
	offs := make([]int, kdim)
	for t := 0; t < kdim; t++ {
		o := 0
		for j, q := range g.Qubits {
			o |= ((t >> j) & 1) << q
		}
		offs[t] = o
	}
	return offs
}

// sortedQubits returns the gate's qubit positions in ascending order, for
// zero-bit insertion.
func sortedQubits(g *gate.Gate) []int {
	sq := append([]int(nil), g.Qubits...)
	sortInts(sq)
	return sq
}

func buildKernelPlan(g *gate.Gate) *kernelPlan {
	k := g.NumQubits()
	kdim := 1 << k
	m := g.Matrix.Data
	p := &kernelPlan{k: k}

	spread := func() []int { return spreadOffsets(g) }
	sorted := func() []int { return sortedQubits(g) }

	switch {
	case g.Diagonal:
		p.kind = planDiag
		p.sorted = sorted()
		var freeBits []int
		p.ctrlSorted, p.freeQubits, freeBits = splitControls(g)
		fdim := 1 << len(freeBits)
		p.diag = make([]complex128, fdim)
		for u := 0; u < fdim; u++ {
			t := g.Controls
			for j, b := range freeBits {
				t |= ((u >> j) & 1) << b
			}
			p.diag[u] = m[t*kdim+t]
		}
		p.lowFree = -1
		for j, q := range p.freeQubits {
			if q == p.sorted[0] {
				p.lowFree = j
				break
			}
		}

	case g.Perm != nil:
		p.kind = planPerm
		p.sorted = sorted()
		offs := spread()
		seen := make([]bool, kdim)
		for c := 0; c < kdim; c++ {
			if seen[c] {
				continue
			}
			if g.Perm[c] == c {
				seen[c] = true
				if g.PermPhase != nil && g.PermPhase[c] != 1 {
					p.fixOff = append(p.fixOff, offs[c])
					p.fixPhase = append(p.fixPhase, g.PermPhase[c])
				}
				continue
			}
			p.cycStart = append(p.cycStart, len(p.cycNode))
			for x := c; !seen[x]; x = g.Perm[x] {
				seen[x] = true
				p.cycNode = append(p.cycNode, offs[x])
				if g.PermPhase != nil {
					p.cycPhase = append(p.cycPhase, g.PermPhase[x])
				}
			}
		}
		p.cycStart = append(p.cycStart, len(p.cycNode))

	case g.Controls != 0:
		p.kind = planCtrl
		p.sorted = sorted()
		var freeBits []int
		p.ctrlSorted, p.freeQubits, freeBits = splitControls(g)
		for _, q := range p.ctrlSorted {
			p.ctrlOff |= 1 << q
		}
		fdim := 1 << len(freeBits)
		p.freeOff = make([]int, fdim)
		tOf := make([]int, fdim)
		for u := 0; u < fdim; u++ {
			o, t := 0, g.Controls
			for j, b := range freeBits {
				bit := (u >> j) & 1
				o |= bit << p.freeQubits[j]
				t |= bit << b
			}
			p.freeOff[u] = o
			tOf[u] = t
		}
		p.sub = make([]complex128, fdim*fdim)
		for u := 0; u < fdim; u++ {
			for v := 0; v < fdim; v++ {
				p.sub[u*fdim+v] = m[tOf[u]*kdim+tOf[v]]
			}
		}
		p.scratch = fdim

	default:
		p.sorted = sorted()
		p.offsets = spread()
		p.scratch = kdim
		// Sparsity census: a fused k-qubit gate often has blocks of exact
		// zeros and whole identity rows; when at least half the entries
		// vanish the CSR kernel wins.
		nnz := 0
		for _, v := range m {
			if cmplx.Abs(v) > sparseTol {
				nnz++
			}
		}
		if nnz <= kdim*kdim/2 {
			p.kind = planSparse
			for r := 0; r < kdim; r++ {
				identity := true
				for c := 0; c < kdim; c++ {
					v := m[r*kdim+c]
					want := complex128(0)
					if r == c {
						want = 1
					}
					if cmplx.Abs(v-want) > sparseTol {
						identity = false
						break
					}
				}
				if identity {
					continue
				}
				p.rows = append(p.rows, r)
				p.rowStart = append(p.rowStart, len(p.cols))
				for c := 0; c < kdim; c++ {
					if v := m[r*kdim+c]; cmplx.Abs(v) > sparseTol {
						p.cols = append(p.cols, c)
						p.vals = append(p.vals, v)
					}
				}
			}
			p.rowStart = append(p.rowStart, len(p.cols))
		} else {
			p.kind = planDense
		}
	}
	return p
}

// planOf returns the gate's cached plan, building one per call for
// unprepared gates (which allocates — fusion sites call PrepareGates so the
// hot path never does).
func planOf(g *gate.Gate) *kernelPlan {
	if plan, ok := g.KernelCache().(*kernelPlan); ok {
		return plan
	}
	return buildKernelPlan(g)
}

// PrepareGate precomputes and attaches the kernel plan for a gate with three
// or more qubits (one- and two-qubit kernels dispatch straight off the
// classification flags and need none). It must run while the gate is still
// owned by one goroutine — the HSF engine calls it at compile time, before
// segments are shared across path workers.
func PrepareGate(g *gate.Gate) {
	if g.NumQubits() < 3 {
		return
	}
	if _, ok := g.KernelCache().(*kernelPlan); ok {
		return
	}
	g.SetKernelCache(buildKernelPlan(g))
}

// PrepareGates runs PrepareGate over a slice.
func PrepareGates(gs []gate.Gate) {
	for i := range gs {
		PrepareGate(&gs[i])
	}
}

// scratchPool recycles the gather buffers of the k-qubit kernels. It is
// shared process-wide (a per-plan buffer would race: many path workers replay
// the same compiled gate concurrently) and holds pointers so Get/Put do not
// allocate.
var scratchPool = sync.Pool{New: func() any { return new([]complex128) }}

// getScratch borrows a pooled buffer of at least n elements. The caller
// returns the pointer with scratchPool.Put when done; callers applying many
// gates (compiled segments, parallel chunks) borrow once and reuse.
func getScratch(n int) (*[]complex128, []complex128) {
	sp := scratchPool.Get().(*[]complex128)
	if cap(*sp) < n {
		*sp = make([]complex128, n)
	}
	return sp, (*sp)[:n]
}

// applyK is the general k-qubit dispatcher. The k≥3 kernels gather blocks
// into complex scratch, run the plan's arithmetic in complex form (these
// kernels are structure-dominated, not bandwidth-dominated), and scatter
// back. The scratch Get/Put is hoisted out of the kernels themselves: the
// plan records the buffer length it needs, plans that move or scale
// amplitudes in place record zero and never touch the pool.
func (v Vector) applyK(g *gate.Gate) {
	plan := planOf(g)
	n := plan.domain(v.Len())
	if sequential(n) {
		if plan.scratch == 0 {
			v.kernelK(g, plan, 0, n, nil)
			return
		}
		sp, buf := getScratch(plan.scratch)
		v.kernelK(g, plan, 0, n, buf)
		scratchPool.Put(sp)
		return
	}
	parallelRange(n, func(lo, hi int) {
		if plan.scratch == 0 {
			v.kernelK(g, plan, lo, hi, nil)
			return
		}
		sp, buf := getScratch(plan.scratch)
		v.kernelK(g, plan, lo, hi, buf)
		scratchPool.Put(sp)
	})
}

// kernelK runs the plan's kernel over blocks [lo,hi) of the plan's domain.
func (v Vector) kernelK(g *gate.Gate, p *kernelPlan, lo, hi int, in []complex128) {
	switch p.kind {
	case planDiag:
		v.diagK(p, lo, hi)
	case planPerm:
		v.permK(p, lo, hi)
	case planCtrl:
		v.ctrlK(p, lo, hi, in)
	case planSparse:
		v.sparseK(p, lo, hi, in)
	default:
		v.rotK(g.Matrix.Data, p, p.k, lo, hi, in)
	}
}

// diagK multiplies the control-satisfied amplitudes by the plan's diagonal
// over blocks [lo,hi) of the control-compacted domain. Amplitudes that agree
// on every gate bit share one factor and are contiguous below the lowest gate
// qubit s0, so a run of 2^s0 is one span scale. When that run is too short
// for span dispatch but the next gate qubit's is not, the two runs around bit
// s0 form a 1q diagonal (a phase when s0 is a control) on a contiguous
// sub-slice, which the low-qubit kernels take. Everything else — partial
// blocks, two gate qubits below spanMin, the scalar arm — goes one amplitude
// at a time.
func (v Vector) diagK(p *kernelPlan, lo, hi int) {
	re, im := v.Re, v.Im
	s0, s1 := p.sorted[0], p.sorted[1]
	step, pair := 0, false // block length in the compacted domain; 0: scalar
	if sm := ops.spanMin; sm > 0 && 1<<s0 >= sm {
		step = 1 << s0
	} else if sm > 0 && 1<<s1 >= sm {
		step, pair = 1<<s1, true
		if p.lowFree < 0 {
			step >>= 1 // the control bit s0 is compacted away
		}
	}
	for o := lo; o < hi; {
		i := o
		for _, q := range p.ctrlSorted {
			i = (i>>q)<<(q+1) | (i & (1<<q - 1)) | 1<<q
		}
		u := 0
		for j, q := range p.freeQubits {
			u |= ((i >> q) & 1) << j
		}
		d := p.diag[u]
		n := 1
		if step > 0 {
			n = min(step-o&(step-1), hi-o)
		}
		switch {
		case step > 0 && !pair:
			ops.scale(re[i:i+n], im[i:i+n], real(d), imag(d))
		case pair && n == step && p.lowFree >= 0:
			v.Slice(i, i+n).diag1(d, p.diag[u|1<<p.lowFree], s0, 0, n>>1)
		case pair && n == step:
			b := i &^ (1 << s0)
			v.Slice(b, b+2*n).phase1(d, s0, 0, n)
		default:
			n = 1
			dr, di := real(d), imag(d)
			r, m := re[i], im[i]
			re[i] = dr*r - di*m
			im[i] = dr*m + di*r
		}
		o += n
	}
}

func (v Vector) permK(p *kernelPlan, lo, hi int) {
	re, im := v.Re, v.Im
	// Single-transposition fast path (CCX and friends): one 2-cycle plus
	// optional fixed-state phases. Free-bit runs below the lowest gate qubit
	// are contiguous, so the cycle is a paired-span swap/cross and each fixed
	// phase a span scale — the same shape perm2 uses for CNOT.
	if len(p.cycStart) == 2 && p.cycStart[1]-p.cycStart[0] == 2 {
		pLo := p.sorted[0]
		if sm := ops.spanMin; sm > 0 && 1<<pLo >= sm {
			offA, offB := p.cycNode[0], p.cycNode[1]
			pa, pb := complex128(1), complex128(1)
			if p.cycPhase != nil {
				pa, pb = p.cycPhase[0], p.cycPhase[1]
			}
			pure := pa == 1 && pb == 1
			for o := lo; o < hi; {
				g := o >> pLo
				end := (g + 1) << pLo
				if end > hi {
					end = hi
				}
				base := o
				for _, q := range p.sorted {
					base = (base>>q)<<(q+1) | (base & (1<<q - 1))
				}
				ia, ib := base|offA, base|offB
				n := end - o
				if pure {
					ops.swap(re[ia:ia+n], im[ia:ia+n], re[ib:ib+n], im[ib:ib+n])
				} else {
					// The cycle moves pa·old[a] into b and the carried
					// pb·old[b] into a: with x = span a and y = span b that
					// is cross's x' = pb·y, y' = pa·x.
					ops.cross(re[ia:ia+n], im[ia:ia+n], re[ib:ib+n], im[ib:ib+n],
						real(pb), imag(pb), real(pa), imag(pa))
				}
				for i, off := range p.fixOff {
					idx := base | off
					ops.scale(re[idx:idx+n], im[idx:idx+n],
						real(p.fixPhase[i]), imag(p.fixPhase[i]))
				}
				o = end
			}
			return
		}
	}
	for o := lo; o < hi; o++ {
		base := o
		for _, q := range p.sorted {
			base = (base>>q)<<(q+1) | (base & (1<<q - 1))
		}
		for ci := 0; ci+1 < len(p.cycStart); ci++ {
			st, en := p.cycStart[ci], p.cycStart[ci+1]
			last := en - 1
			li := base | p.cycNode[last]
			carryR, carryI := re[li], im[li]
			for i := last; i > st; i-- {
				si := base | p.cycNode[i-1]
				r, m := re[si], im[si]
				if p.cycPhase != nil {
					pr, pi := real(p.cycPhase[i-1]), imag(p.cycPhase[i-1])
					r, m = pr*r-pi*m, pr*m+pi*r
				}
				di := base | p.cycNode[i]
				re[di], im[di] = r, m
			}
			if p.cycPhase != nil {
				pr, pi := real(p.cycPhase[last]), imag(p.cycPhase[last])
				carryR, carryI = pr*carryR-pi*carryI, pr*carryI+pi*carryR
			}
			si := base | p.cycNode[st]
			re[si], im[si] = carryR, carryI
		}
		for i, off := range p.fixOff {
			idx := base | off
			pr, pi := real(p.fixPhase[i]), imag(p.fixPhase[i])
			r, m := re[idx], im[idx]
			re[idx] = pr*r - pi*m
			im[idx] = pr*m + pi*r
		}
	}
}

func (v Vector) ctrlK(p *kernelPlan, lo, hi int, in []complex128) {
	fdim := len(p.freeOff)
	re, im := v.Re, v.Im
	for o := lo; o < hi; o++ {
		base := o
		for _, q := range p.sorted {
			base = (base>>q)<<(q+1) | (base & (1<<q - 1))
		}
		base |= p.ctrlOff
		for u := 0; u < fdim; u++ {
			i := base | p.freeOff[u]
			in[u] = complex(re[i], im[i])
		}
		for u := 0; u < fdim; u++ {
			row := p.sub[u*fdim : (u+1)*fdim]
			var acc complex128
			for w := 0; w < fdim; w++ {
				acc += row[w] * in[w]
			}
			i := base | p.freeOff[u]
			re[i], im[i] = real(acc), imag(acc)
		}
	}
}

func (v Vector) sparseK(p *kernelPlan, lo, hi int, in []complex128) {
	kdim := len(p.offsets)
	re, im := v.Re, v.Im
	for o := lo; o < hi; o++ {
		base := o
		for _, q := range p.sorted {
			base = (base>>q)<<(q+1) | (base & (1<<q - 1))
		}
		for t := 0; t < kdim; t++ {
			i := base | p.offsets[t]
			in[t] = complex(re[i], im[i])
		}
		for ri, r := range p.rows {
			var acc complex128
			for e := p.rowStart[ri]; e < p.rowStart[ri+1]; e++ {
				acc += p.vals[e] * in[p.cols[e]]
			}
			i := base | p.offsets[r]
			re[i], im[i] = real(acc), imag(acc)
		}
	}
}

func (v Vector) rotK(m []complex128, plan *kernelPlan, k, lo, hi int, in []complex128) {
	kdim := 1 << k
	re, im := v.Re, v.Im
	for o := lo; o < hi; o++ {
		base := o
		for _, p := range plan.sorted {
			base = (base>>p)<<(p+1) | (base & (1<<p - 1))
		}
		for t := 0; t < kdim; t++ {
			i := base | plan.offsets[t]
			in[t] = complex(re[i], im[i])
		}
		for t := 0; t < kdim; t++ {
			row := m[t*kdim : (t+1)*kdim]
			var acc complex128
			for u := 0; u < kdim; u++ {
				acc += row[u] * in[u]
			}
			i := base | plan.offsets[t]
			re[i], im[i] = real(acc), imag(acc)
		}
	}
}
