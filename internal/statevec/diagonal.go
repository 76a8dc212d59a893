package statevec

// Diagonal is a diagonal operator on a few qubits, given by its entries alone:
// d[x] multiplies every amplitude whose bits on qubits spell x, qubits[k]
// supplying bit k of x as in a gate's matrix index. It is what a cut term
// leaves to apply once its leading entry has moved into the path weight, so
// it needs no 2^k×2^k matrix. Apply runs it in place.
//
// Amplitudes agree on every diagonal qubit below the lowest one, s0, so they
// share a factor in runs of 2^s0, and the factors of consecutive runs repeat
// with a period of 2^(smax-s0+1) runs. When those runs are at least 4 long and
// the period is short, runs holds one period of factors and an arm with a
// scaleRuns body streams the vector in one call; otherwise the runs go through
// the span scale, or in pairs around s0 through the one-qubit kernels, as the
// gate kernels do.
type Diagonal struct {
	qubits []int
	d      []complex128
	s0, s1 int          // lowest and second-lowest qubit; s1 = -1 for one qubit
	low    int          // the bit of x that s0 supplies
	runs   []complex128 // one period of run factors; nil when runs are short or the period long
	block  []complex128 // k ≥ 2 on qubits below 3 only: the factors of amplitudes 0…7, which repeat
	runX   []int32      // fold-only, runs of 4 or more: one period of each run's index x
}

// maxRunPeriod bounds the run-factor table of a Diagonal: longer periods go
// run by run instead of holding a table up to the size of the state.
const maxRunPeriod = 256

// NewDiagonal returns the diagonal d on qubits, with len(d) == 1<<len(qubits).
// It keeps both slices. A nil d gives the qubits' run decomposition alone,
// which FoldRowsN reads and Apply cannot run: when the runs are long enough for
// a span body (every arm's spanMin is at least 4), the index x of one period
// of runs, so that FoldRowsN looks a run's entry up once per row.
func NewDiagonal(qubits []int, d []complex128) *Diagonal {
	D := &Diagonal{qubits: qubits, d: d, s0: qubits[0], s1: -1}
	smax := qubits[0]
	for j, q := range qubits {
		if q < D.s0 {
			D.s0, D.low = q, j
		}
		smax = max(smax, q)
	}
	for _, q := range qubits {
		if q > D.s0 && (D.s1 < 0 || q < D.s1) {
			D.s1 = q
		}
	}
	period := 1 << (smax - D.s0 + 1)
	if d == nil {
		if D.s0 >= 2 {
			D.runX = make([]int32, period)
			for j := range D.runX {
				D.runX[j] = int32(D.index(j << D.s0))
			}
		}
		return D
	}
	if D.s0 >= 2 && period <= maxRunPeriod {
		if len(qubits) == 1 {
			D.runs = d // run j's factor is d[j&1]
		} else {
			D.runs = make([]complex128, period)
			for j := range D.runs {
				D.runs[j] = d[D.index(j<<D.s0)]
			}
		}
	}
	if len(qubits) > 1 && smax < 3 {
		D.block = make([]complex128, 8)
		for i := range D.block {
			D.block[i] = d[D.index(i)]
		}
	}
	return D
}

// index returns the entry of d that multiplies amplitude i.
func (D *Diagonal) index(i int) int {
	x := 0
	for j, q := range D.qubits {
		x |= (i >> q & 1) << j
	}
	return x
}

// Apply multiplies v by the diagonal in place. A one-qubit diagonal takes the
// gate kernels — the phase kernel, which touches only the amplitudes with the
// qubit set, when d[0] is 1 — except on qubit 2, whose 4-amplitude runs they
// scale one call at a time and a run table streams. Diagonals on more qubits
// take their run table where the arm has a scaleRuns body, else kernel.
func (D *Diagonal) Apply(v Vector) {
	n := v.Len()
	oneQubit := len(D.qubits) == 1
	switch {
	case oneQubit && D.s0 != 2:
		D.apply1(v)
	case D.runs != nil && ops.scaleRuns != nil && sequential(n):
		ops.scaleRuns(v, 1<<D.s0, D.runs)
	case oneQubit:
		D.apply1(v)
	case sequential(n):
		D.kernel(v, 0, n)
	default:
		parallelRange(n, func(lo, hi int) { D.kernel(v, lo, hi) })
	}
}

// apply1 is the one-qubit diagonal through the gate kernels: the phase kernel
// when d[0] is 1. Like ApplyGate it builds its chunk closure only on the
// parallel branch, so the sequential one allocates nothing.
func (D *Diagonal) apply1(v Vector) {
	half := v.Len() >> 1
	if sequential(half) {
		D.kernel1(v, 0, half)
		return
	}
	parallelRange(half, func(lo, hi int) { D.kernel1(v, lo, hi) })
}

func (D *Diagonal) kernel1(v Vector, lo, hi int) {
	if a, d := D.d[0], D.d[1]; a == 1 {
		v.phase1(d, D.s0, lo, hi)
	} else {
		v.diag1(a, d, D.s0, lo, hi)
	}
}

// kernel multiplies amplitudes [lo,hi) of v by the diagonal, k ≥ 2: diagK
// without controls. Qubits all below 3 repeat one 8-amplitude block of
// factors, read per amplitude. Otherwise a run of 2^s0 that reaches spanMin
// is one span scale (skipped when its entry is 1); else, when 2^s1 reaches
// it, the two runs around bit s0 form a one-qubit diagonal on a contiguous
// block, which the low-qubit kernels take; everything else goes one amplitude
// at a time.
func (D *Diagonal) kernel(v Vector, lo, hi int) {
	re, im := v.Re, v.Im
	if D.block != nil {
		for i := lo; i < hi; i++ {
			dr, di := real(D.block[i&7]), imag(D.block[i&7])
			r, m := re[i], im[i]
			re[i] = dr*r - di*m
			im[i] = dr*m + di*r
		}
		return
	}
	step, pair := 0, false
	if sm := ops.spanMin; sm > 0 && 1<<D.s0 >= sm {
		step = 1 << D.s0
	} else if sm > 0 && 1<<D.s1 >= sm {
		step, pair = 1<<D.s1, true
	}
	for i := lo; i < hi; {
		x := D.index(i)
		d := D.d[x]
		n := 1
		if step > 0 {
			n = min(step-i&(step-1), hi-i)
		}
		switch {
		case step > 0 && !pair:
			if d != 1 {
				ops.scale(re[i:i+n], im[i:i+n], real(d), imag(d))
			}
		case pair && n == step:
			v.Slice(i, i+n).diag1(d, D.d[x|1<<D.low], D.s0, 0, n>>1)
		default:
			n = 1
			dr, di := real(d), imag(d)
			r, m := re[i], im[i]
			re[i] = dr*r - di*m
			im[i] = dr*m + di*r
		}
		i += n
	}
}

// FoldRowsN is the HSF engine's one fold. acc holds rows r0… of an
// accumulator from the start of row r0, each N = los[p].Len() amplitudes (the
// last one may be shorter), and FoldRowsN adds
//
//	acc[r·N + x] += Σ_p ws[p][(r0+r)·k + x_D] · los[p][x]
//
// with p running over ws and los in slice order, x_D being x's class: its
// bits on D's k qubits, the index Apply reads D's own entries at (those play
// no part here), for a k = 2^|D| row table ws[p]. A nil D has one class per
// row, k = 1: ws[p] holds one weight per row. That is the leaf fold, the
// leaves' weighted upper rows through their lower halves (or proxies into a
// diagonal tail's row table); D's classes make it the tail's node fold, a
// node's row table through its lower half.
//
// Amplitudes share a class in runs of 2^s0, a whole row for a nil D. Per run
// of the rows in whole FoldRowBlock blocks, one packed complex GEMM call
// applies every node, reading the run of each lower half and the rows'
// entries for the run's class in place. The rows left over, a short last row
// among them, and every row on an arm without a fold body or whose runs are
// not a multiple of 4 amplitudes go node by node, an axpy per run (or, where
// a D's runs miss the span kernels, the reference body amplitude by
// amplitude). Either way every amplitude gets the nodes' axpy operation
// sequence, in node order.
func (D *Diagonal) FoldRowsN(acc Vector, r0 int, ws, los []Vector) {
	if len(los) == 0 {
		return
	}
	n := los[0].Len()
	k, run, span := D.foldRuns(n)
	rows := 0
	if span && run&3 == 0 && ops.fold != foldNone {
		rows = acc.Len() / n &^ (foldRows - 1)
	}
	if rows > 0 {
		// Checked once as the whole of what the runs read: every column of
		// the lower halves and every class (cOff up to the last) of the rows.
		op := foldOp{acc: acc.Slice(0, rows*n), stride: n, n: n, blocks: rows / foldRows,
			lo: los, c: ws, cOff: (r0+1)*k - 1, cStride: k}
		op.check()
		op.n = run
		for i, j := 0, 0; i < n; i, j = i+run, j+1 {
			op.acc, op.loOff, op.cOff = acc.Slice(i, rows*n), i, r0*k+D.class(j)
			op.run()
		}
	}
	for p := range los { // the rows left over, node by node
		for r, x0 := r0+rows, rows*n; x0 < acc.Len(); r, x0 = r+1, x0+n {
			row, w, lo := acc.Slice(x0, min(x0+n, acc.Len())), ws[p].Slice(r*k, (r+1)*k), los[p]
			if !span {
				D.foldRow(row, w, lo)
				continue
			}
			for i, j := 0, 0; i < row.Len(); i, j = i+run, j+1 {
				x, e := D.class(j), min(i+run, row.Len()) // a short last row may end inside the run
				ops.axpy(row.Re[i:e], row.Im[i:e], lo.Re[i:e], lo.Im[i:e], w.Re[x], w.Im[x])
			}
		}
	}
}

// foldRuns returns the fold's classes per row and run length for rows of n
// amplitudes, and whether a run takes one axpy: always for a nil D, whose run
// is the row; for a fold-only D, when its runs reach the arm's span kernels.
func (D *Diagonal) foldRuns(n int) (k, run int, span bool) {
	if D == nil {
		return 1, n, true
	}
	return 1 << len(D.qubits), 1 << D.s0, D.runX != nil && ops.spanMin > 0 && 1<<D.s0 >= ops.spanMin
}

// class returns the class of run j of a row: 0 for a nil D.
func (D *Diagonal) class(j int) int {
	if D == nil {
		return 0
	}
	return int(D.runX[j&(len(D.runX)-1)])
}

// foldRow is the node fold's reference body on one row, with axpy's per-element
// operation sequence.
func (D *Diagonal) foldRow(row, w, lo Vector) {
	for i := range row.Re {
		x := D.index(i)
		wr, wi := w.Re[x], w.Im[x]
		lr, li := lo.Re[i], lo.Im[i]
		row.Re[i] += wr*lr - wi*li
		row.Im[i] += wr*li + wi*lr
	}
}
