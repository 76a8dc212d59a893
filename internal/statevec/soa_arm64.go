//go:build !purego

package statevec

import "hsfsim/internal/cpufeat"

// NEON (ASIMD) arm. The assembly bodies (soa_arm64.s; generator notes under
// asm/) process 2 float64 lanes per 128-bit vector register. ASIMD is
// baseline ARMv8 so the probe always admits the arm on arm64, but the gate
// stays explicit to keep the registry uniform. As on amd64, each wrapper
// picks the real-coefficient entry point when the imaginary parts are
// exactly zero, hands the largest even-length head to the assembly, and
// finishes the at-most-one-element tail inline. The bodies use fused
// multiply-accumulate (FMLA/FMLS), so results can differ from the
// span/scalar arms in the last ulp — parity is checked at 1e-12.

// neonSpanMin is the run length at which dispatching into the assembly beats
// the inlined scalar loop. As on amd64, the callers' scalar fallback
// recomputes the strided index per element while the span path computes it
// once per run, so the assembly arm profitably dispatches runs half as short
// as the Go span arm.
const neonSpanMin = 4

// archArms returns the arm64 assembly candidates, best-first.
func archArms() []kernelOps {
	if !cpufeat.ARM64.HasASIMD {
		return nil
	}
	return []kernelOps{{
		name:    "neon",
		spanMin: neonSpanMin,
		scale:   neonScale,
		rot2x2:  neonRot2x2,
		swap:    neonSwap,
		cross:   neonCross,
		axpy:    neonAxpy,
		rot4x4:  neonRot4x4,
		rot1:    neonRot1,
		diag1lo: neonDiag1Lo,
		fold:    foldNEON,
	}}
}

//go:noescape
func neonFoldN(accRe, accIm *float64, stride, n int, lo *[FoldChunk]Vector, c *[FoldChunk][foldRows][2]float64, k int)

// archFold runs op on the NEON fold body, which takes one block of rows and
// up to FoldChunk nodes per call: per block and FoldChunk nodes in turn, it
// gathers their column windows and coefficients into the body's operand
// table. Every amplitude still gets the nodes in order.
func archFold(_ foldBody, op *foldOp) {
	var (
		lo [FoldChunk]Vector
		c  [FoldChunk][foldRows][2]float64
	)
	for b := range op.blocks {
		row := b * foldRows
		x := row * op.stride
		for p0 := 0; p0 < len(op.lo); p0 += FoldChunk {
			k := min(FoldChunk, len(op.lo)-p0)
			for s := range k {
				lo[s] = op.lo[p0+s].Slice(op.loOff, op.loOff+op.n)
				w := op.c[p0+s]
				for r := range foldRows {
					y := op.cOff + (row+r)*op.cStride
					c[s][r] = [2]float64{w.Re[y], w.Im[y]}
				}
			}
			neonFoldN(&op.acc.Re[x], &op.acc.Im[x], op.stride, op.n, &lo, &c, k)
		}
	}
}

//go:noescape
func neonScaleRe(xr, xi *float64, n int, cr float64)

//go:noescape
func neonScaleCx(xr, xi *float64, n int, cr, ci float64)

//go:noescape
func neonSwapN(xr, xi, yr, yi *float64, n int)

//go:noescape
func neonCrossRe(xr, xi, yr, yi *float64, n int, br, cr float64)

//go:noescape
func neonCrossCx(xr, xi, yr, yi *float64, n int, br, bi, cr, ci float64)

//go:noescape
func neonAxpyRe(dstRe, dstIm, srcRe, srcIm *float64, n int, cr float64)

//go:noescape
func neonAxpyCx(dstRe, dstIm, srcRe, srcIm *float64, n int, cr, ci float64)

//go:noescape
func neonRot2x2Re(xr, xi, yr, yi *float64, n int, ar, br, cr, dr float64)

//go:noescape
func neonRot2x2Cx(xr, xi, yr, yi *float64, n int, ar, ai, br, bi, cr, ci, dr, di float64)

//go:noescape
func neonRot4x4N(x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i *float64, n int, m *complex128)

//go:noescape
func neonRot1LoQ0Re(p *float64, n int, ar, br, cr, dr float64)

//go:noescape
func neonRot1LoQ1Re(p *float64, n int, ar, br, cr, dr float64)

//go:noescape
func neonRot1LoQ0Cx(re, im *float64, n int, ar, ai, br, bi, cr, ci, dr, di float64)

//go:noescape
func neonRot1LoQ1Cx(re, im *float64, n int, ar, ai, br, bi, cr, ci, dr, di float64)

//go:noescape
func neonDiag1LoQ0(re, im *float64, n int, ar, ai, dr, di float64)

//go:noescape
func neonDiag1LoQ1(re, im *float64, n int, ar, ai, dr, di float64)

// neonRot1 is the rot1 slot: the dense 1q rotation on qubit q over the
// half-block pairs [lo,hi). Qubits q ≥ 2 keep the span loop, one neonRot2x2
// call per run (there is no group-looped NEON body). Qubits 0 and 1 — runs
// too short for the span path — are vectorized in-register: the assembly
// processes 4 float64 per plane per iteration (2 amplitude pairs), so the
// wrapper aligns lo to a 2-pair group for q=1 (parallelRange may split at an
// odd pair) and peels the <2-pair tail with the scalar pair body.
func neonRot1(re, im []float64, q, lo, hi int, ar, ai, br, bi, cr, ci, dr, di float64) {
	if q >= 2 {
		rot1Runs(re, im, q, lo, hi, neonRot2x2, ar, ai, br, bi, cr, ci, dr, di)
		return
	}
	if q == 1 && lo&1 != 0 && lo < hi {
		rot1Pair(re, im, q, lo, ar, ai, br, bi, cr, ci, dr, di)
		lo++
	}
	f0 := lo << 1
	h := ((hi - lo) << 1) &^ 3
	if h > 0 {
		if ai == 0 && bi == 0 && ci == 0 && di == 0 {
			if q == 0 {
				neonRot1LoQ0Re(&re[f0], h, ar, br, cr, dr)
				neonRot1LoQ0Re(&im[f0], h, ar, br, cr, dr)
			} else {
				neonRot1LoQ1Re(&re[f0], h, ar, br, cr, dr)
				neonRot1LoQ1Re(&im[f0], h, ar, br, cr, dr)
			}
		} else {
			if q == 0 {
				neonRot1LoQ0Cx(&re[f0], &im[f0], h, ar, ai, br, bi, cr, ci, dr, di)
			} else {
				neonRot1LoQ1Cx(&re[f0], &im[f0], h, ar, ai, br, bi, cr, ci, dr, di)
			}
		}
	}
	for o := lo + h>>1; o < hi; o++ {
		rot1Pair(re, im, q, o, ar, ai, br, bi, cr, ci, dr, di)
	}
}

// neonDiag1Lo is the diag(a, d) analogue of neonRot1's low qubits (phase1 reuses it
// with a = 1).
func neonDiag1Lo(re, im []float64, q, lo, hi int, ar, ai, dr, di float64) {
	if q == 1 && lo&1 != 0 && lo < hi {
		diag1Pair(re, im, q, lo, ar, ai, dr, di)
		lo++
	}
	f0 := lo << 1
	h := ((hi - lo) << 1) &^ 3
	if h > 0 {
		if q == 0 {
			neonDiag1LoQ0(&re[f0], &im[f0], h, ar, ai, dr, di)
		} else {
			neonDiag1LoQ1(&re[f0], &im[f0], h, ar, ai, dr, di)
		}
	}
	for o := lo + h>>1; o < hi; o++ {
		diag1Pair(re, im, q, o, ar, ai, dr, di)
	}
}

func neonScale(xr, xi []float64, cr, ci float64) {
	n := len(xr)
	xi = xi[:n]
	h := n &^ 1
	if h > 0 {
		if ci == 0 {
			neonScaleRe(&xr[0], &xi[0], h, cr)
		} else {
			neonScaleCx(&xr[0], &xi[0], h, cr, ci)
		}
	}
	for i := h; i < n; i++ {
		r, m := xr[i], xi[i]
		xr[i] = cr*r - ci*m
		xi[i] = cr*m + ci*r
	}
}

func neonSwap(xr, xi, yr, yi []float64) {
	n := len(xr)
	xi, yr, yi = xi[:n], yr[:n], yi[:n]
	h := n &^ 1
	if h > 0 {
		neonSwapN(&xr[0], &xi[0], &yr[0], &yi[0], h)
	}
	for i := h; i < n; i++ {
		xr[i], yr[i] = yr[i], xr[i]
		xi[i], yi[i] = yi[i], xi[i]
	}
}

func neonCross(xr, xi, yr, yi []float64, br, bi, cr, ci float64) {
	n := len(xr)
	xi, yr, yi = xi[:n], yr[:n], yi[:n]
	h := n &^ 1
	if h > 0 {
		if bi == 0 && ci == 0 {
			neonCrossRe(&xr[0], &xi[0], &yr[0], &yi[0], h, br, cr)
		} else {
			neonCrossCx(&xr[0], &xi[0], &yr[0], &yi[0], h, br, bi, cr, ci)
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

func neonAxpy(dstRe, dstIm, srcRe, srcIm []float64, cr, ci float64) {
	n := len(dstRe)
	dstIm, srcRe, srcIm = dstIm[:n], srcRe[:n], srcIm[:n]
	h := n &^ 1
	if h > 0 {
		if ci == 0 {
			neonAxpyRe(&dstRe[0], &dstIm[0], &srcRe[0], &srcIm[0], h, cr)
		} else {
			neonAxpyCx(&dstRe[0], &dstIm[0], &srcRe[0], &srcIm[0], h, cr, ci)
		}
	}
	for i := h; i < n; i++ {
		s, t := srcRe[i], srcIm[i]
		dstRe[i] += cr*s - ci*t
		dstIm[i] += cr*t + ci*s
	}
}

func neonRot2x2(xr, xi, yr, yi []float64, ar, ai, br, bi, cr, ci, dr, di float64) {
	n := len(xr)
	xi, yr, yi = xi[:n], yr[:n], yi[:n]
	h := n &^ 1
	if h > 0 {
		if ai == 0 && bi == 0 && ci == 0 && di == 0 {
			neonRot2x2Re(&xr[0], &xi[0], &yr[0], &yi[0], h, ar, br, cr, dr)
		} else {
			neonRot2x2Cx(&xr[0], &xi[0], &yr[0], &yi[0], h, ar, ai, br, bi, cr, ci, dr, di)
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

func neonRot4x4(x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i []float64, m []complex128) {
	n := len(x0r)
	x0i, x1r, x1i = x0i[:n], x1r[:n], x1i[:n]
	x2r, x2i, x3r, x3i = x2r[:n], x2i[:n], x3r[:n], x3i[:n]
	h := n &^ 1
	if h > 0 {
		neonRot4x4N(&x0r[0], &x0i[0], &x1r[0], &x1i[0], &x2r[0], &x2i[0], &x3r[0], &x3i[0], h, &m[0])
	}
	if h == n {
		return
	}
	scalarRot4x4(x0r[h:], x0i[h:], x1r[h:], x1i[h:], x2r[h:], x2i[h:], x3r[h:], x3i[h:], m)
}
