package statevec

import (
	"math/cmplx"
	"sync"

	"hsfsim/internal/gate"
	"hsfsim/internal/par"
)

// parallelThreshold is the kernel-domain size above which gate application is
// split across goroutines. Below it, goroutine overhead dominates.
const parallelThreshold = 1 << 14

// sparseTol is the matrix-entry threshold below which the k-qubit plan
// builder treats an element as zero (and within which it treats an element as
// one). It matches gate classification's tolerance, so the sparse kernel
// drops exactly the entries the diagonal flag already ignores.
const sparseTol = 1e-14

// ApplyGate applies g to the state in place. The kernel is chosen from the
// gate's structure classification (see gate.Kind): diagonal, permutation, and
// controlled gates use kernels that touch only the amplitudes the structure
// says can change; everything else falls back to a dense matvec. Application
// is parallelized across the persistent executor for large states, within the
// process-wide parallelism budget (par.Inner).
func (s State) ApplyGate(g *gate.Gate) {
	switch g.NumQubits() {
	case 1:
		half := len(s) >> 1
		if sequential(half) {
			s.kernel1(g, 0, half)
			return
		}
		parallelRange(half, func(lo, hi int) { s.kernel1(g, lo, hi) })
	case 2:
		quarter := len(s) >> 2
		if sequential(quarter) {
			s.kernel2(g, 0, quarter)
			return
		}
		parallelRange(quarter, func(lo, hi int) { s.kernel2(g, lo, hi) })
	default:
		s.applyK(g)
	}
}

// ApplyAll applies a sequence of gates in order.
func (s State) ApplyAll(gs []gate.Gate) {
	for i := range gs {
		s.ApplyGate(&gs[i])
	}
}

// applyInline applies g on the caller's goroutine with no parallel split,
// borrowing scratch for kernels that need a gather buffer. The compiled
// segment sweep uses it to replay many gates per tile while holding one
// scratch buffer across the whole sweep; a nil or undersized scratch falls
// back to the pool.
func (s State) applyInline(g *gate.Gate, scratch []complex128) {
	switch g.NumQubits() {
	case 1:
		s.kernel1(g, 0, len(s)>>1)
	case 2:
		s.kernel2(g, 0, len(s)>>2)
	default:
		plan := planOf(g)
		n := plan.domain(len(s))
		if plan.scratch > 0 && len(scratch) < plan.scratch {
			sp, buf := getScratch(plan.scratch)
			s.kernelK(g, plan, 0, n, buf)
			scratchPool.Put(sp)
			return
		}
		s.kernelK(g, plan, 0, n, scratch)
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
func (s State) kernel1(g *gate.Gate, lo, hi int) {
	q := g.Qubits[0]
	m := g.Matrix.Data
	switch {
	case g.Diagonal && g.Controls != 0:
		s.phase1(m[3], q, lo, hi)
	case g.Diagonal:
		s.diag1(m[0], m[3], q, lo, hi)
	case g.Perm != nil && g.PermPhase == nil:
		s.perm1(q, lo, hi)
	case g.Perm != nil:
		s.permPhase1(m[1], m[2], q, lo, hi)
	default:
		s.rot1(m[0], m[1], m[2], m[3], q, lo, hi)
	}
}

// phase1: diag(1, d) — multiply only the bit-set amplitude of each pair
// (Z, S, T, P). Half the memory traffic of a full diagonal sweep.
func (s State) phase1(d complex128, q, lo, hi int) {
	mask := 1 << q
	for o := lo; o < hi; o++ {
		i := (o>>q)<<(q+1) | (o & (mask - 1)) | mask
		s[i] *= d
	}
}

// diag1: diag(a, d) with no unit entry (RZ).
func (s State) diag1(a, d complex128, q, lo, hi int) {
	mask := 1 << q
	for o := lo; o < hi; o++ {
		i0 := (o>>q)<<(q+1) | (o & (mask - 1))
		s[i0] *= a
		s[i0|mask] *= d
	}
}

// perm1: the bit flip (X) — swap each pair, no arithmetic.
func (s State) perm1(q, lo, hi int) {
	mask := 1 << q
	for o := lo; o < hi; o++ {
		i0 := (o>>q)<<(q+1) | (o & (mask - 1))
		i1 := i0 | mask
		s[i0], s[i1] = s[i1], s[i0]
	}
}

// permPhase1: antidiagonal (b over c) — a flip with one multiply per move (Y).
func (s State) permPhase1(b, c complex128, q, lo, hi int) {
	mask := 1 << q
	for o := lo; o < hi; o++ {
		i0 := (o>>q)<<(q+1) | (o & (mask - 1))
		i1 := i0 | mask
		s[i0], s[i1] = b*s[i1], c*s[i0]
	}
}

func (s State) rot1(a, b, c, d complex128, q, lo, hi int) {
	mask := 1 << q
	for o := lo; o < hi; o++ {
		// Insert a zero bit at position q.
		i0 := (o>>q)<<(q+1) | (o & (mask - 1))
		i1 := i0 | mask
		x, y := s[i0], s[i1]
		s[i0] = a*x + b*y
		s[i1] = c*x + d*y
	}
}

// kernel2 applies a two-qubit gate to the quarter-blocks [lo,hi): block o
// addresses the four amplitudes (i, i|m0, i|m1, i|m0|m1) with both gate bits
// cleared in i. Matrix bit 0 is Qubits[0], bit 1 is Qubits[1].
func (s State) kernel2(g *gate.Gate, lo, hi int) {
	m := g.Matrix.Data
	q0, q1 := g.Qubits[0], g.Qubits[1]
	switch {
	case g.Diagonal:
		s.diag2(m, g.Controls, q0, q1, lo, hi)
	case g.Perm != nil:
		s.perm2(g, lo, hi)
	case g.Controls == 1:
		// Control on matrix bit 0: a 2×2 matvec on bit 1 over the bit-0-set
		// pair (CRX, CRY, controlled-U). Rows/cols {1,3} of the 4×4.
		s.ctrl2(m[5], m[7], m[13], m[15], 1<<q0, 1<<q1, q0, q1, lo, hi)
	case g.Controls == 2:
		// Control on matrix bit 1: rows/cols {2,3}.
		s.ctrl2(m[10], m[11], m[14], m[15], 1<<q1, 1<<q0, q0, q1, lo, hi)
	default:
		s.rot2(m, q0, q1, lo, hi)
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

// diag2 multiplies by the diagonal (d0,d1,d2,d3), restricted by the control
// mask: a controlled diagonal (CZ, CPhase: ctrl=3; CRZ: ctrl=1) skips the
// amplitudes its identity blocks leave untouched — CZ moves a quarter of the
// memory a full diagonal sweep does.
func (s State) diag2(m []complex128, ctrl, q0, q1, lo, hi int) {
	m0, m1 := 1<<q0, 1<<q1
	pLo, pHi := order2(q0, q1)
	d0, d1, d2, d3 := m[0], m[5], m[10], m[15]
	switch ctrl {
	case 3:
		for o := lo; o < hi; o++ {
			s[insert2(o, pLo, pHi)|m0|m1] *= d3
		}
	case 1:
		for o := lo; o < hi; o++ {
			i := insert2(o, pLo, pHi) | m0
			s[i] *= d1
			s[i|m1] *= d3
		}
	case 2:
		for o := lo; o < hi; o++ {
			i := insert2(o, pLo, pHi) | m1
			s[i] *= d2
			s[i|m0] *= d3
		}
	default:
		for o := lo; o < hi; o++ {
			i := insert2(o, pLo, pHi)
			s[i] *= d0
			s[i|m0] *= d1
			s[i|m1] *= d2
			s[i|m0|m1] *= d3
		}
	}
}

// ctrl2 applies the 2×2 submatrix (u00 u01; u10 u11) to the amplitude pair
// with the control bit set: (i|ctrlMask, i|ctrlMask|tgtMask). Two loads and
// stores and four multiplies per block versus rot2's four and sixteen.
func (s State) ctrl2(u00, u01, u10, u11 complex128, ctrlMask, tgtMask, q0, q1, lo, hi int) {
	pLo, pHi := order2(q0, q1)
	for o := lo; o < hi; o++ {
		ia := insert2(o, pLo, pHi) | ctrlMask
		ib := ia | tgtMask
		x, y := s[ia], s[ib]
		s[ia] = u00*x + u01*y
		s[ib] = u10*x + u11*y
	}
}

// perm2 applies a two-qubit (phase-)permutation. The common shapes — CNOT
// swaps matrix indices 1↔3, SWAP 1↔2, ISWAP 1↔2 with phase i — are a single
// transposition touching two of the four amplitudes per block; anything else
// (fused permutation chains) goes through a generic gather/scatter on stack
// arrays.
func (s State) perm2(g *gate.Gate, lo, hi int) {
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
		for o := lo; o < hi; o++ {
			i := insert2(o, pLo, pHi)
			ia, ib := i|offA, i|offB
			// new[b] = pa·old[a], new[a] = pb·old[b]
			s[ia], s[ib] = pb*s[ib], pa*s[ia]
		}
		return
	}
	for o := lo; o < hi; o++ {
		i := insert2(o, pLo, pHi)
		var t [4]complex128
		for c := 0; c < 4; c++ {
			v := s[i|off[c]]
			if ph != nil {
				v *= ph[c]
			}
			t[perm[c]] = v
		}
		s[i|off[0]], s[i|off[1]], s[i|off[2]], s[i|off[3]] = t[0], t[1], t[2], t[3]
	}
}

func (s State) rot2(m []complex128, q0, q1, lo, hi int) {
	m0, m1 := 1<<q0, 1<<q1
	pLo, pHi := order2(q0, q1)
	for o := lo; o < hi; o++ {
		i := insert2(o, pLo, pHi)
		i0 := i
		i1 := i | m0
		i2 := i | m1
		i3 := i | m0 | m1
		x0, x1, x2, x3 := s[i0], s[i1], s[i2], s[i3]
		s[i0] = m[0]*x0 + m[1]*x1 + m[2]*x2 + m[3]*x3
		s[i1] = m[4]*x0 + m[5]*x1 + m[6]*x2 + m[7]*x3
		s[i2] = m[8]*x0 + m[9]*x1 + m[10]*x2 + m[11]*x3
		s[i3] = m[12]*x0 + m[13]*x1 + m[14]*x2 + m[15]*x3
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

// PrepareDense attaches a forced dense-matvec plan to a k≥3 gate, bypassing
// structure detection. Benchmarks use it to measure the specialized kernels
// against the fallback path on identical gates; production code should never
// call it.
func PrepareDense(g *gate.Gate) {
	k := g.NumQubits()
	if k < 3 {
		return
	}
	g.SetKernelCache(&kernelPlan{
		kind:    planDense,
		k:       k,
		scratch: 1 << k,
		sorted:  sortedQubits(g),
		offsets: spreadOffsets(g),
	})
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

// applyK is the general k-qubit kernel dispatcher. The scratch Get/Put is
// hoisted out of the kernels themselves: the plan records the buffer length
// it needs, plans that move or scale amplitudes in place record zero and
// never touch the pool.
func (s State) applyK(g *gate.Gate) {
	plan := planOf(g)
	n := plan.domain(len(s))
	if sequential(n) {
		if plan.scratch == 0 {
			s.kernelK(g, plan, 0, n, nil)
			return
		}
		sp, buf := getScratch(plan.scratch)
		s.kernelK(g, plan, 0, n, buf)
		scratchPool.Put(sp)
		return
	}
	parallelRange(n, func(lo, hi int) {
		if plan.scratch == 0 {
			s.kernelK(g, plan, lo, hi, nil)
			return
		}
		sp, buf := getScratch(plan.scratch)
		s.kernelK(g, plan, lo, hi, buf)
		scratchPool.Put(sp)
	})
}

// kernelK runs the plan's kernel over blocks [lo,hi) of the plan's domain.
func (s State) kernelK(g *gate.Gate, p *kernelPlan, lo, hi int, in []complex128) {
	switch p.kind {
	case planDiag:
		s.diagK(p, lo, hi)
	case planPerm:
		s.permK(p, lo, hi)
	case planCtrl:
		s.ctrlK(p, lo, hi, in)
	case planSparse:
		s.sparseK(p, lo, hi, in)
	default:
		s.rotK(g.Matrix.Data, p, p.k, lo, hi, in)
	}
}

// diagK multiplies the control-satisfied subspace by the compacted diagonal:
// block o spreads into an index with every control bit forced to one, so a
// CCZ touches one amplitude in eight.
func (s State) diagK(p *kernelPlan, lo, hi int) {
	for o := lo; o < hi; o++ {
		i := o
		for _, q := range p.ctrlSorted {
			i = (i>>q)<<(q+1) | (i & (1<<q - 1)) | 1<<q
		}
		u := 0
		for j, q := range p.freeQubits {
			u |= ((i >> q) & 1) << j
		}
		s[i] *= p.diag[u]
	}
}

// permK walks the permutation's cycle program per block: each cycle is
// rotated in place through a single carried amplitude (new[perm[c]] =
// phase[c]·old[c]), and phased fixed points get their multiply. A Toffoli —
// one transposition — touches two amplitudes per 2^k block.
func (s State) permK(p *kernelPlan, lo, hi int) {
	for o := lo; o < hi; o++ {
		base := o
		for _, q := range p.sorted {
			base = (base>>q)<<(q+1) | (base & (1<<q - 1))
		}
		for ci := 0; ci+1 < len(p.cycStart); ci++ {
			st, en := p.cycStart[ci], p.cycStart[ci+1]
			last := en - 1
			carry := s[base|p.cycNode[last]]
			for i := last; i > st; i-- {
				v := s[base|p.cycNode[i-1]]
				if p.cycPhase != nil {
					v *= p.cycPhase[i-1]
				}
				s[base|p.cycNode[i]] = v
			}
			if p.cycPhase != nil {
				carry *= p.cycPhase[last]
			}
			s[base|p.cycNode[st]] = carry
		}
		for i, off := range p.fixOff {
			s[base|off] *= p.fixPhase[i]
		}
	}
}

// ctrlK applies the dense fdim×fdim submatrix to the control-satisfied
// amplitudes of each block: a CRX buried in a 3-qubit fused gate gathers 4
// amplitudes instead of 8 and multiplies 16 entries instead of 64.
func (s State) ctrlK(p *kernelPlan, lo, hi int, in []complex128) {
	fdim := len(p.freeOff)
	for o := lo; o < hi; o++ {
		base := o
		for _, q := range p.sorted {
			base = (base>>q)<<(q+1) | (base & (1<<q - 1))
		}
		base |= p.ctrlOff
		for u := 0; u < fdim; u++ {
			in[u] = s[base|p.freeOff[u]]
		}
		for u := 0; u < fdim; u++ {
			row := p.sub[u*fdim : (u+1)*fdim]
			var acc complex128
			for v := 0; v < fdim; v++ {
				acc += row[v] * in[v]
			}
			s[base|p.freeOff[u]] = acc
		}
	}
}

// sparseK is the CSR matvec: gather the block, rewrite only the non-identity
// rows, and for each row touch only its stored nonzeros.
func (s State) sparseK(p *kernelPlan, lo, hi int, in []complex128) {
	kdim := len(p.offsets)
	for o := lo; o < hi; o++ {
		base := o
		for _, q := range p.sorted {
			base = (base>>q)<<(q+1) | (base & (1<<q - 1))
		}
		for t := 0; t < kdim; t++ {
			in[t] = s[base|p.offsets[t]]
		}
		for ri, r := range p.rows {
			var acc complex128
			for e := p.rowStart[ri]; e < p.rowStart[ri+1]; e++ {
				acc += p.vals[e] * in[p.cols[e]]
			}
			s[base|p.offsets[r]] = acc
		}
	}
}

// rotK is the dense fallback: full gather, matvec, scatter per block.
func (s State) rotK(m []complex128, plan *kernelPlan, k, lo, hi int, in []complex128) {
	kdim := 1 << k
	for o := lo; o < hi; o++ {
		base := o
		for _, p := range plan.sorted {
			base = (base>>p)<<(p+1) | (base & (1<<p - 1))
		}
		for t := 0; t < kdim; t++ {
			in[t] = s[base|plan.offsets[t]]
		}
		for t := 0; t < kdim; t++ {
			row := m[t*kdim : (t+1)*kdim]
			var acc complex128
			for u := 0; u < kdim; u++ {
				acc += row[u] * in[u]
			}
			s[base|plan.offsets[t]] = acc
		}
	}
}
