//go:build !purego

package statevec

import "hsfsim/internal/cpufeat"

// AVX2+FMA arm, and the avx512 arm that replaces only its fold. The assembly
// bodies (soa_amd64.s; notes under asm/) process 4 float64 lanes per YMM
// register (8 per ZMM in the avx512 fold) with unaligned loads — plane
// allocation is 64-byte aligned but spans start at arbitrary gate-offset
// positions, so the bodies assume nothing. Each wrapper below picks the
// real-coefficient entry point when the imaginary parts are exactly zero
// (Hadamard, CZ's −1, X-basis rotations: half the arithmetic, same result),
// hands the largest 4-lane-divisible head to the assembly, and finishes the
// sub-register tail (≤3 elements) with the inline scalar epilogue. The
// assembly uses FMA contractions, so results can differ from the span/scalar
// arms in the last ulp — the parity suites compare at 1e-12, not bitwise.

// avx2SpanMin is the run length at which dispatching into the assembly beats
// the inlined scalar loop. One YMM iteration covers 4 lanes with no tail, and
// the callers' scalar fallback recomputes the strided index per element while
// the span path computes it once per run — so the assembly arm profitably
// dispatches runs half as short as the Go span arm (low-qubit controlled and
// permutation gates spend most of their time in exactly these length-4 runs).
const avx2SpanMin = 4

// archArms returns the amd64 assembly candidates, best-first. The AVX2 arm
// needs AVX2 and FMA3, OS-enabled (see internal/cpufeat). The avx512 arm is
// the avx2 table with the fold replaced: the fold is the one primitive that
// reuses each loaded accumulator element across many FMAs, where 8-lane
// registers pay; the others stream their spans once per call and stay on
// avx2.
func archArms() []kernelOps {
	if !cpufeat.X86.HasAVX2 || !cpufeat.X86.HasFMA {
		return nil
	}
	avx2 := kernelOps{
		name:      "avx2",
		spanMin:   avx2SpanMin,
		scale:     avx2Scale,
		rot2x2:    avx2Rot2x2,
		swap:      avx2Swap,
		cross:     avx2Cross,
		axpy:      avx2Axpy,
		rot4x4:    avx2Rot4x4,
		rot1:      avx2Rot1,
		diag1lo:   avx2Diag1Lo,
		scaleRuns: avx2ScaleRuns,
		fold:      foldAVX2,
	}
	if !cpufeat.X86.HasAVX512F {
		return []kernelOps{avx2}
	}
	avx512 := avx2
	avx512.name, avx512.fold = "avx512", foldAVX512
	return []kernelOps{avx512, avx2}
}

//go:noescape
func avx2FoldN(op *foldOp)

//go:noescape
func avx512FoldN(op *foldOp)

//go:noescape
func avx2ScaleRe(xr, xi *float64, n int, cr float64)

//go:noescape
func avx2ScaleCx(xr, xi *float64, n int, cr, ci float64)

//go:noescape
func avx2ScaleRunsN(xr, xi *float64, n, run int, f *complex128, fmask int)

//go:noescape
func avx2SwapN(xr, xi, yr, yi *float64, n int)

//go:noescape
func avx2CrossRe(xr, xi, yr, yi *float64, n int, br, cr float64)

//go:noescape
func avx2CrossCx(xr, xi, yr, yi *float64, n int, br, bi, cr, ci float64)

//go:noescape
func avx2AxpyRe(dstRe, dstIm, srcRe, srcIm *float64, n int, cr float64)

//go:noescape
func avx2AxpyCx(dstRe, dstIm, srcRe, srcIm *float64, n int, cr, ci float64)

//go:noescape
func avx2Rot2x2Re(xr, xi, yr, yi *float64, n int, ar, br, cr, dr float64)

//go:noescape
func avx2Rot2x2Cx(xr, xi, yr, yi *float64, n int, ar, ai, br, bi, cr, ci, dr, di float64)

//go:noescape
func avx2Rot4x4N(x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i *float64, n int, m *complex128)

//go:noescape
func avx2Rot1LoQ0Re(p *float64, n int, ar, br, cr, dr float64)

//go:noescape
func avx2Rot1LoQ1Re(p *float64, n int, ar, br, cr, dr float64)

//go:noescape
func avx2Rot1LoQ0Cx(re, im *float64, n int, ar, ai, br, bi, cr, ci, dr, di float64)

//go:noescape
func avx2Rot1LoQ1Cx(re, im *float64, n int, ar, ai, br, bi, cr, ci, dr, di float64)

//go:noescape
func avx2Diag1LoQ0(re, im *float64, n int, ar, ai, dr, di float64)

//go:noescape
func avx2Diag1LoQ1(re, im *float64, n int, ar, ai, dr, di float64)

func avx2Scale(xr, xi []float64, cr, ci float64) {
	n := len(xr)
	xi = xi[:n]
	h := n &^ 3
	if h > 0 {
		if ci == 0 {
			avx2ScaleRe(&xr[0], &xi[0], h, cr)
		} else {
			avx2ScaleCx(&xr[0], &xi[0], h, cr, ci)
		}
	}
	for i := h; i < n; i++ {
		r, m := xr[i], xi[i]
		xr[i] = cr*r - ci*m
		xi[i] = cr*m + ci*r
	}
}

// avx2ScaleRuns is the scaleRuns slot: the whole vector in one assembly
// call, its bounds checked here.
func avx2ScaleRuns(v Vector, run int, f []complex128) {
	n := v.Len()
	_ = v.Im[n-1]
	avx2ScaleRunsN(&v.Re[0], &v.Im[0], n, run, &f[0], len(f)-1)
}

func avx2Swap(xr, xi, yr, yi []float64) {
	n := len(xr)
	xi, yr, yi = xi[:n], yr[:n], yi[:n]
	h := n &^ 3
	if h > 0 {
		avx2SwapN(&xr[0], &xi[0], &yr[0], &yi[0], h)
	}
	for i := h; i < n; i++ {
		xr[i], yr[i] = yr[i], xr[i]
		xi[i], yi[i] = yi[i], xi[i]
	}
}

func avx2Cross(xr, xi, yr, yi []float64, br, bi, cr, ci float64) {
	n := len(xr)
	xi, yr, yi = xi[:n], yr[:n], yi[:n]
	h := n &^ 3
	if h > 0 {
		if bi == 0 && ci == 0 {
			avx2CrossRe(&xr[0], &xi[0], &yr[0], &yi[0], h, br, cr)
		} else {
			avx2CrossCx(&xr[0], &xi[0], &yr[0], &yi[0], h, br, bi, cr, ci)
		}
	}
	for i := h; i < n; i++ {
		x, xm := xr[i], xi[i]
		y, ym := yr[i], yi[i]
		xr[i] = br*y - bi*ym
		xi[i] = br*ym + bi*y
		yr[i] = cr*x - ci*xm
		yi[i] = cr*xm + ci*x
	}
}

func avx2Axpy(dstRe, dstIm, srcRe, srcIm []float64, cr, ci float64) {
	n := len(dstRe)
	dstIm, srcRe, srcIm = dstIm[:n], srcRe[:n], srcIm[:n]
	h := n &^ 3
	if h > 0 {
		if ci == 0 {
			avx2AxpyRe(&dstRe[0], &dstIm[0], &srcRe[0], &srcIm[0], h, cr)
		} else {
			avx2AxpyCx(&dstRe[0], &dstIm[0], &srcRe[0], &srcIm[0], h, cr, ci)
		}
	}
	for i := h; i < n; i++ {
		s, t := srcRe[i], srcIm[i]
		dstRe[i] += cr*s - ci*t
		dstIm[i] += cr*t + ci*s
	}
}

// archFold runs op on the avx512 or the avx2 fold body.
func archFold(body foldBody, op *foldOp) {
	if body == foldAVX512 {
		avx512Fold(op)
		return
	}
	avx2FoldN(op)
}

// avx512Fold hands the 16-column-divisible head to the ZMM body and the rest
// to the avx2 body. Both bodies give each element the same FMA sequence, so
// the output is bit-identical to the avx2 arm's.
func avx512Fold(op *foldOp) {
	h := op.n &^ 15
	if h == op.n {
		avx512FoldN(op)
		return
	}
	rest := *op
	rest.acc = op.acc.Slice(h, op.acc.Len())
	rest.loOff += h
	rest.n -= h
	if h > 0 {
		head := *op
		head.n = h
		avx512FoldN(&head)
	}
	avx2FoldN(&rest)
}

func avx2Rot2x2(xr, xi, yr, yi []float64, ar, ai, br, bi, cr, ci, dr, di float64) {
	n := len(xr)
	xi, yr, yi = xi[:n], yr[:n], yi[:n]
	h := n &^ 3
	if h > 0 {
		if ai == 0 && bi == 0 && ci == 0 && di == 0 {
			avx2Rot2x2Re(&xr[0], &xi[0], &yr[0], &yi[0], h, ar, br, cr, dr)
		} else {
			avx2Rot2x2Cx(&xr[0], &xi[0], &yr[0], &yi[0], h, ar, ai, br, bi, cr, ci, dr, di)
		}
	}
	for i := h; i < n; i++ {
		x, xm := xr[i], xi[i]
		y, ym := yr[i], yi[i]
		xr[i] = ar*x - ai*xm + br*y - bi*ym
		xi[i] = ar*xm + ai*x + br*ym + bi*y
		yr[i] = cr*x - ci*xm + dr*y - di*ym
		yi[i] = cr*xm + ci*x + dr*ym + di*y
	}
}

//go:noescape
func avx2Rot1GrpRe(re, im *float64, half, groups int, ar, br, cr, dr float64)

//go:noescape
func avx2Rot1GrpCx(re, im *float64, half, groups int, ar, ai, br, bi, cr, ci, dr, di float64)

// avx2Rot1 is the rot1 slot: the dense 1q rotation on qubit q over the
// half-block pairs [lo,hi), one assembly call per range. For q ≥ 2 the whole
// groups go to the group-looped body and a partial group at either end —
// parallelRange may split mid-group — to avx2Rot2x2, run by run; both give
// each element avx2Rot2x2's FMA sequence, so the output is bit-identical to
// one span call per run. Qubits 0 and 1 take the interleaved-pair kernels.
func avx2Rot1(re, im []float64, q, lo, hi int, ar, ai, br, bi, cr, ci, dr, di float64) {
	if q < 2 {
		avx2Rot1Lo(re, im, q, lo, hi, ar, ai, br, bi, cr, ci, dr, di)
		return
	}
	if head := min((lo>>q+1)<<q, hi); lo&(1<<q-1) != 0 && lo < head {
		rot1Runs(re, im, q, lo, head, avx2Rot2x2, ar, ai, br, bi, cr, ci, dr, di)
		lo = head
	}
	if g0, g1 := lo>>q, hi>>q; g0 < g1 {
		x0, x1 := g0<<(q+1), g1<<(q+1)
		_, _ = re[x1-1], im[x1-1]
		if ai == 0 && bi == 0 && ci == 0 && di == 0 {
			avx2Rot1GrpRe(&re[x0], &im[x0], 1<<q, g1-g0, ar, br, cr, dr)
		} else {
			avx2Rot1GrpCx(&re[x0], &im[x0], 1<<q, g1-g0, ar, ai, br, bi, cr, ci, dr, di)
		}
		lo = g1 << q
	}
	if lo < hi {
		rot1Runs(re, im, q, lo, hi, avx2Rot2x2, ar, ai, br, bi, cr, ci, dr, di)
	}
}

// avx2Rot1Lo vectorizes the dense 1q rotation on qubits 0 and 1 — runs too
// short for the span path — over the half-block pairs [lo,hi). The assembly
// processes 8 float64 per plane per iteration (4 amplitude pairs), so the
// wrapper aligns lo to a 4-element group for q=1 (parallelRange may split at
// an odd pair) and peels the <4-pair tail with the scalar pair body.
func avx2Rot1Lo(re, im []float64, q, lo, hi int, ar, ai, br, bi, cr, ci, dr, di float64) {
	if q == 1 && lo&1 != 0 && lo < hi {
		rot1Pair(re, im, q, lo, ar, ai, br, bi, cr, ci, dr, di)
		lo++
	}
	f0 := lo << 1
	h := ((hi - lo) << 1) &^ 7
	if h > 0 {
		if ai == 0 && bi == 0 && ci == 0 && di == 0 {
			if q == 0 {
				avx2Rot1LoQ0Re(&re[f0], h, ar, br, cr, dr)
				avx2Rot1LoQ0Re(&im[f0], h, ar, br, cr, dr)
			} else {
				avx2Rot1LoQ1Re(&re[f0], h, ar, br, cr, dr)
				avx2Rot1LoQ1Re(&im[f0], h, ar, br, cr, dr)
			}
		} else {
			if q == 0 {
				avx2Rot1LoQ0Cx(&re[f0], &im[f0], h, ar, ai, br, bi, cr, ci, dr, di)
			} else {
				avx2Rot1LoQ1Cx(&re[f0], &im[f0], h, ar, ai, br, bi, cr, ci, dr, di)
			}
		}
	}
	for o := lo + h>>1; o < hi; o++ {
		rot1Pair(re, im, q, o, ar, ai, br, bi, cr, ci, dr, di)
	}
}

// avx2Diag1Lo is the diag(a, d) analogue of avx2Rot1Lo (phase1 reuses it
// with a = 1).
func avx2Diag1Lo(re, im []float64, q, lo, hi int, ar, ai, dr, di float64) {
	if q == 1 && lo&1 != 0 && lo < hi {
		diag1Pair(re, im, q, lo, ar, ai, dr, di)
		lo++
	}
	f0 := lo << 1
	h := ((hi - lo) << 1) &^ 7
	if h > 0 {
		if q == 0 {
			avx2Diag1LoQ0(&re[f0], &im[f0], h, ar, ai, dr, di)
		} else {
			avx2Diag1LoQ1(&re[f0], &im[f0], h, ar, ai, dr, di)
		}
	}
	for o := lo + h>>1; o < hi; o++ {
		diag1Pair(re, im, q, o, ar, ai, dr, di)
	}
}

func avx2Rot4x4(x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i []float64, m []complex128) {
	n := len(x0r)
	x0i, x1r, x1i = x0i[:n], x1r[:n], x1i[:n]
	x2r, x2i, x3r, x3i = x2r[:n], x2i[:n], x3r[:n], x3i[:n]
	h := n &^ 3
	if h > 0 {
		avx2Rot4x4N(&x0r[0], &x0i[0], &x1r[0], &x1i[0], &x2r[0], &x2i[0], &x3r[0], &x3i[0], h, &m[0])
	}
	if h == n {
		return
	}
	scalarRot4x4(x0r[h:], x0i[h:], x1r[h:], x1i[h:], x2r[h:], x2i[h:], x3r[h:], x3i[h:], m)
}
