package statevec

// The SoA kernel seam. Every Vector gate kernel lowers its inner loop onto a
// small set of span primitives — stride-1 operations over contiguous runs of
// the split real/imag planes — dispatched through a package-level table
// selected once at startup:
//
//   - default builds install the best available arm (soa_dispatch.go):
//     Go-assembly vector bodies — AVX2+FMA on amd64 (soa_amd64.s, plus an
//     AVX-512F fold), NEON on arm64 (soa_arm64.s) — when the CPU
//     feature probe admits them, else the unrolled-Go span arm (this file);
//     kernels take the span path whenever a gate's contiguous run length
//     reaches ops.spanMin;
//   - `-tags purego` builds install the plain scalar arm (soa_purego.go) with
//     spanMin=0, so every kernel runs its scalar fallback loop — the
//     reference semantics, and the portability floor for exotic targets.
//
// The HSFSIM_KERNEL_ISA environment variable (or SelectKernelISA) forces a
// weaker arm; see soa_dispatch.go. The primitives are chosen so each maps to
// one obvious vertical SIMD loop: no lane shuffles, no horizontal
// reductions. They are scale, rot2x2, swap, cross, axpy and rot4x4 over
// spans, the optional whole-range 1q rotation and low-qubit diagonal
// kernels, and fold, the packed complex GEMM both HSF folds take: foldRows
// accumulator rows of a column group held in registers while every node of
// the call is added, an axpy per row and node on the arms without a body of
// their own.

// kernelOps is the startup-selected table of span primitives. All spans
// passed to these functions are equal-length and non-aliasing (x and y spans
// of one call never overlap; re/im planes are distinct arrays by
// construction).
type kernelOps struct {
	// name identifies the installed arm (KernelISA reports it).
	name string

	// spanMin is the minimum contiguous run length at which kernels prefer
	// the span path over their scalar loop. Zero disables span dispatch.
	spanMin int

	// scale: x *= c, elementwise over the span.
	scale func(xr, xi []float64, cr, ci float64)

	// rot2x2: (x, y) ← (a·x + b·y, c·x + d·y) — the 1q dense matvec over a
	// pair of spans.
	rot2x2 func(xr, xi, yr, yi []float64, ar, ai, br, bi, cr, ci, dr, di float64)

	// swap: x ↔ y with no arithmetic (X gate, permutation transpositions).
	swap func(xr, xi, yr, yi []float64)

	// cross: (x, y) ← (b·y, c·x) — a phased transposition (Y gate, ISWAP).
	cross func(xr, xi, yr, yi []float64, br, bi, cr, ci float64)

	// axpy: dst += c·src — the HSF leaf accumulate primitive.
	axpy func(dstRe, dstIm, srcRe, srcIm []float64, cr, ci float64)

	// rot4x4: the 2q dense matvec over four spans; m is the row-major 4×4
	// complex matrix.
	rot4x4 func(x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i []float64, m []complex128)

	// fold names the arm's register-blocked fold body, the packed complex
	// GEMM both HSF folds take (foldOp): it holds foldRows rows of a column
	// group in registers across all the op's nodes. Arms without one
	// (foldNone) fold through axpy, a call per row and node. A name rather
	// than a func value, because a fold's operand tables sit on its caller's
	// stack and a call through a func value would move them to the heap.
	fold foldBody

	// rot1 is the optional whole-range 1q rotation: the dense gate
	// [[a, b], [c, d]] on qubit q over the half-block pairs [lo,hi) of the
	// planes, for every q, in one call. On qubits 0 and 1, whose runs
	// (length 1 and 2) never reach spanMin, the assembly arms vectorize the
	// pairs with in-register shuffles. Above, a 2^q-element run costs one
	// span call — 13 arguments and up to 8 broadcasts — which dominates at
	// q = 2…5; the amd64 arm instead loops over whole groups inside one
	// assembly body, bit-identical to the span path, and the NEON arm keeps
	// the span loop (rot1Runs). Nil on arms without it: Vector.rot1 then
	// takes the span loop or its scalar loop.
	rot1 func(re, im []float64, q, lo, hi int, ar, ai, br, bi, cr, ci, dr, di float64)

	// diag1lo is the optional interleaved-pair diag(a, d) kernel for qubits 0
	// and 1 (phase1 passes a = 1), vectorized like rot1's low qubits. Nil on
	// arms without it; callers must check.
	diag1lo func(re, im []float64, q, lo, hi int, ar, ai, dr, di float64)

	// scaleRuns is the optional run-wise scale: v *= f[j mod len(f)] over
	// the consecutive runs j of run amplitudes, run a multiple of 4 and
	// len(f) a power of two. One call streams the whole vector where a scale
	// per run would pay a call every few amplitudes (Diagonal's runs). Nil on
	// arms without it; callers must check.
	scaleRuns func(v Vector, run int, f []complex128)
}

// ops is the installed primitive table. soa_dispatch.go assigns it in init
// from the build's candidate arms; there is no default, so forgetting an arm
// is an immediate nil dereference in every test.
var ops kernelOps

// KernelISA reports which kernel arm this process is running: "avx512"
// (avx2 with the ZMM fold), "avx2" or "neon" when an assembly arm is
// live, "span" for the unrolled-Go fallback, "scalar" under -tags purego or
// a forced override. Telemetry and the bench studies record it so artifacts
// say which arm produced them.
func KernelISA() string { return ops.name }

// scalarArm is the reference arm: plain one-element loops, span dispatch
// disabled. Always last in the candidate list, always available.
func scalarArm() kernelOps {
	return kernelOps{
		name:    "scalar",
		spanMin: 0,
		scale:   scalarScale,
		rot2x2:  scalarRot2x2,
		swap:    scalarSwap,
		cross:   scalarCross,
		axpy:    scalarAxpy,
		rot4x4:  scalarRot4x4,
	}
}

const foldRows = 4 // accumulator rows one register tile holds (R)

// FoldRowBlock is foldRows for callers that tile an accumulator: a tile of
// whole blocks of that many rows goes through the register-blocked fold
// alone.
const FoldRowBlock = foldRows

// FoldChunk is the number of leaves the HSF engine batches for one leaf fold,
// and the number of nodes the NEON body takes per call. A fold call applies
// all its nodes to each register block before it stores the block, so a
// batch of that many leaves streams the accumulator once; larger batches
// measured no faster while holding more lower halves.
const FoldChunk = 8

// foldBody names a kernel arm's fold body; foldOp.run dispatches on it.
type foldBody uint8

const (
	foldNone   foldBody = iota // no body: the callers' axpy loops
	foldAVX2                   // avx2FoldN
	foldAVX512                 // avx512Fold
	foldNEON                   // neonFoldN, through soa_arm64.go's archFold
)

// foldOp is one call of the register-blocked fold: the packed complex GEMM
// Acc += C·L over the blocks·foldRows rows r of an accumulator, stride apart,
// and n columns x:
//
//	acc[r·stride + x] += Σ_p c[p](r) · lo[p][loOff + x],   c[p](r) = c[p][cOff + r·cStride],
//
// p running over the len(lo) nodes (HSF leaves or held tail nodes) in slice
// order, with axpy's per-element FMA sequence, so every amplitude rounds as
// under one axpy per node. L is read in place from the nodes' vectors and C
// from their weight rows or row tables, so setting up a call gathers
// nothing. The assembly bodies take the op by pointer and
// read its slices' data pointers, never their lengths: the callers check
// the op first (check). Only arms with a fold body run one.
type foldOp struct {
	acc               Vector
	stride, n, blocks int
	lo                []Vector
	loOff             int
	c                 []Vector
	cOff, cStride     int
}

// check panics unless op is one the bodies take — blocks, len(lo) and n
// positive, n a multiple of 4 — and every amplitude it writes and every
// operand it reads lies inside its slice.
func (op *foldOp) check() {
	if op.blocks <= 0 || len(op.lo) == 0 || op.n <= 0 || op.n&3 != 0 || op.n > op.stride ||
		op.loOff < 0 || op.cOff < 0 || op.cStride < 0 || len(op.c) < len(op.lo) {
		panic("statevec: fold operands out of range")
	}
	last := op.blocks*foldRows - 1
	x, y := op.loOff+op.n-1, op.cOff+last*op.cStride
	_, _ = op.acc.Re[last*op.stride+op.n-1], op.acc.Im[last*op.stride+op.n-1]
	for p, lo := range op.lo {
		_, _ = lo.Re[x], lo.Im[x]
		_, _ = op.c[p].Re[y], op.c[p].Im[y]
	}
}

// run folds op on the installed arm's body.
func (op *foldOp) run() { archFold(ops.fold, op) }

// --- scalar arm -------------------------------------------------------------
//
// Straight one-element-at-a-time loops: the reference semantics every span
// implementation must reproduce (same per-element operation order, up to
// exactly-zero terms the span arm's real-coefficient branches drop), and the
// bodies the purego build runs everywhere.

func scalarScale(xr, xi []float64, cr, ci float64) {
	xi = xi[:len(xr)]
	for i := range xr {
		r, m := xr[i], xi[i]
		xr[i] = cr*r - ci*m
		xi[i] = cr*m + ci*r
	}
}

func scalarRot2x2(xr, xi, yr, yi []float64, ar, ai, br, bi, cr, ci, dr, di float64) {
	n := len(xr)
	xi, yr, yi = xi[:n], yr[:n], yi[:n]
	for i := range xr {
		x, xm := xr[i], xi[i]
		y, ym := yr[i], yi[i]
		xr[i] = ar*x - ai*xm + br*y - bi*ym
		xi[i] = ar*xm + ai*x + br*ym + bi*y
		yr[i] = cr*x - ci*xm + dr*y - di*ym
		yi[i] = cr*xm + ci*x + dr*ym + di*y
	}
}

// rot1Runs applies the dense 1q rotation on qubit q to the half-block pairs
// [lo,hi) one contiguous run pair at a time through rot2x2: Vector.rot1's span
// path, the NEON rot1 slot above qubit 1, and the partial groups the amd64
// group-looped body leaves at either end. Adding j < n to i0 never carries
// into bit q, so both spans of a run are contiguous.
func rot1Runs(re, im []float64, q, lo, hi int,
	rot2x2 func(xr, xi, yr, yi []float64, ar, ai, br, bi, cr, ci, dr, di float64),
	ar, ai, br, bi, cr, ci, dr, di float64) {
	mask := 1 << q
	for o := lo; o < hi; {
		g := o >> q
		end := min((g+1)<<q, hi)
		i0 := g<<(q+1) | (o & (mask - 1))
		i1 := i0 + mask
		n := end - o
		rot2x2(re[i0:i0+n], im[i0:i0+n], re[i1:i1+n], im[i1:i1+n], ar, ai, br, bi, cr, ci, dr, di)
		o = end
	}
}

// rot1Pair applies the dense 1q rotation to the single half-block pair o for
// qubit q: the per-pair body of rot1's scalar loop, shared by the assembly
// arms' rot1 wrappers for their unaligned head and sub-register tail pairs.
func rot1Pair(re, im []float64, q, o int, ar, ai, br, bi, cr, ci, dr, di float64) {
	mask := 1 << q
	i0 := (o>>q)<<(q+1) | (o & (mask - 1))
	i1 := i0 | mask
	x, xm := re[i0], im[i0]
	y, ym := re[i1], im[i1]
	re[i0] = ar*x - ai*xm + br*y - bi*ym
	im[i0] = ar*xm + ai*x + br*ym + bi*y
	re[i1] = cr*x - ci*xm + dr*y - di*ym
	im[i1] = cr*xm + ci*x + dr*ym + di*y
}

// diag1Pair is the per-pair body of diag1's scalar loop, same role as
// rot1Pair for the diag1lo wrappers.
func diag1Pair(re, im []float64, q, o int, ar, ai, dr, di float64) {
	mask := 1 << q
	i0 := (o>>q)<<(q+1) | (o & (mask - 1))
	i1 := i0 | mask
	r, m := re[i0], im[i0]
	re[i0] = ar*r - ai*m
	im[i0] = ar*m + ai*r
	r, m = re[i1], im[i1]
	re[i1] = dr*r - di*m
	im[i1] = dr*m + di*r
}

func scalarSwap(xr, xi, yr, yi []float64) {
	n := len(xr)
	xi, yr, yi = xi[:n], yr[:n], yi[:n]
	for i := range xr {
		xr[i], yr[i] = yr[i], xr[i]
		xi[i], yi[i] = yi[i], xi[i]
	}
}

func scalarCross(xr, xi, yr, yi []float64, br, bi, cr, ci float64) {
	n := len(xr)
	xi, yr, yi = xi[:n], yr[:n], yi[:n]
	for i := range xr {
		x, xm := xr[i], xi[i]
		y, ym := yr[i], yi[i]
		xr[i] = br*y - bi*ym
		xi[i] = br*ym + bi*y
		yr[i] = cr*x - ci*xm
		yi[i] = cr*xm + ci*x
	}
}

func scalarAxpy(dstRe, dstIm, srcRe, srcIm []float64, cr, ci float64) {
	n := len(dstRe)
	dstIm, srcRe, srcIm = dstIm[:n], srcRe[:n], srcIm[:n]
	for i := range dstRe {
		sr, si := srcRe[i], srcIm[i]
		dstRe[i] += cr*sr - ci*si
		dstIm[i] += cr*si + ci*sr
	}
}

func scalarRot4x4(x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i []float64, m []complex128) {
	n := len(x0r)
	x0i, x1r, x1i = x0i[:n], x1r[:n], x1i[:n]
	x2r, x2i, x3r, x3i = x2r[:n], x2i[:n], x3r[:n], x3i[:n]
	for i := 0; i < n; i++ {
		a0 := complex(x0r[i], x0i[i])
		a1 := complex(x1r[i], x1i[i])
		a2 := complex(x2r[i], x2i[i])
		a3 := complex(x3r[i], x3i[i])
		b0 := m[0]*a0 + m[1]*a1 + m[2]*a2 + m[3]*a3
		b1 := m[4]*a0 + m[5]*a1 + m[6]*a2 + m[7]*a3
		b2 := m[8]*a0 + m[9]*a1 + m[10]*a2 + m[11]*a3
		b3 := m[12]*a0 + m[13]*a1 + m[14]*a2 + m[15]*a3
		x0r[i], x0i[i] = real(b0), imag(b0)
		x1r[i], x1i[i] = real(b1), imag(b1)
		x2r[i], x2i[i] = real(b2), imag(b2)
		x3r[i], x3i[i] = real(b3), imag(b3)
	}
}

// --- span arm ---------------------------------------------------------------
//
// Manually 4-wide unrolled bodies over bounds-check-eliminated windows. gc
// does not auto-vectorize, so the wins here are real but bounded: independent
// FMA chains per unrolled lane, no complex128 shuffle traffic, pure stride-1
// loads on both planes. These bodies are also the shape the future assembly
// kernels replace — same signature, same span contract.
//
// Each body starts with a coefficient-shape check: purely real coefficients
// (Hadamard and every X-basis rotation, CZ's −1, real controlled blocks)
// drop the cross-plane terms and halve the arithmetic. The check runs once
// per span, and the dropped terms are exact zeros, so results agree with the
// scalar arm to the sign of zero.

func spanScale(xr, xi []float64, cr, ci float64) {
	n := len(xr)
	xi = xi[:n]
	i := 0
	if ci == 0 {
		if cr == -1 {
			for ; i+4 <= n; i += 4 {
				xr[i], xi[i] = -xr[i], -xi[i]
				xr[i+1], xi[i+1] = -xr[i+1], -xi[i+1]
				xr[i+2], xi[i+2] = -xr[i+2], -xi[i+2]
				xr[i+3], xi[i+3] = -xr[i+3], -xi[i+3]
			}
			for ; i < n; i++ {
				xr[i], xi[i] = -xr[i], -xi[i]
			}
			return
		}
		for ; i+4 <= n; i += 4 {
			xr[i] *= cr
			xi[i] *= cr
			xr[i+1] *= cr
			xi[i+1] *= cr
			xr[i+2] *= cr
			xi[i+2] *= cr
			xr[i+3] *= cr
			xi[i+3] *= cr
		}
		for ; i < n; i++ {
			xr[i] *= cr
			xi[i] *= cr
		}
		return
	}
	for ; i+4 <= n; i += 4 {
		r0, m0 := xr[i], xi[i]
		r1, m1 := xr[i+1], xi[i+1]
		r2, m2 := xr[i+2], xi[i+2]
		r3, m3 := xr[i+3], xi[i+3]
		xr[i] = cr*r0 - ci*m0
		xi[i] = cr*m0 + ci*r0
		xr[i+1] = cr*r1 - ci*m1
		xi[i+1] = cr*m1 + ci*r1
		xr[i+2] = cr*r2 - ci*m2
		xi[i+2] = cr*m2 + ci*r2
		xr[i+3] = cr*r3 - ci*m3
		xi[i+3] = cr*m3 + ci*r3
	}
	for ; i < n; i++ {
		r, m := xr[i], xi[i]
		xr[i] = cr*r - ci*m
		xi[i] = cr*m + ci*r
	}
}

func spanRot2x2(xr, xi, yr, yi []float64, ar, ai, br, bi, cr, ci, dr, di float64) {
	n := len(xr)
	xi, yr, yi = xi[:n], yr[:n], yi[:n]
	i := 0
	if ai == 0 && bi == 0 && ci == 0 && di == 0 {
		for ; i+2 <= n; i += 2 {
			x0, xm0 := xr[i], xi[i]
			y0, ym0 := yr[i], yi[i]
			x1, xm1 := xr[i+1], xi[i+1]
			y1, ym1 := yr[i+1], yi[i+1]
			xr[i] = ar*x0 + br*y0
			xi[i] = ar*xm0 + br*ym0
			yr[i] = cr*x0 + dr*y0
			yi[i] = cr*xm0 + dr*ym0
			xr[i+1] = ar*x1 + br*y1
			xi[i+1] = ar*xm1 + br*ym1
			yr[i+1] = cr*x1 + dr*y1
			yi[i+1] = cr*xm1 + dr*ym1
		}
		for ; i < n; i++ {
			x, xm := xr[i], xi[i]
			y, ym := yr[i], yi[i]
			xr[i] = ar*x + br*y
			xi[i] = ar*xm + br*ym
			yr[i] = cr*x + dr*y
			yi[i] = cr*xm + dr*ym
		}
		return
	}
	for ; i+2 <= n; i += 2 {
		x0, xm0 := xr[i], xi[i]
		y0, ym0 := yr[i], yi[i]
		x1, xm1 := xr[i+1], xi[i+1]
		y1, ym1 := yr[i+1], yi[i+1]
		xr[i] = ar*x0 - ai*xm0 + br*y0 - bi*ym0
		xi[i] = ar*xm0 + ai*x0 + br*ym0 + bi*y0
		yr[i] = cr*x0 - ci*xm0 + dr*y0 - di*ym0
		yi[i] = cr*xm0 + ci*x0 + dr*ym0 + di*y0
		xr[i+1] = ar*x1 - ai*xm1 + br*y1 - bi*ym1
		xi[i+1] = ar*xm1 + ai*x1 + br*ym1 + bi*y1
		yr[i+1] = cr*x1 - ci*xm1 + dr*y1 - di*ym1
		yi[i+1] = cr*xm1 + ci*x1 + dr*ym1 + di*y1
	}
	for ; i < n; i++ {
		x, xm := xr[i], xi[i]
		y, ym := yr[i], yi[i]
		xr[i] = ar*x - ai*xm + br*y - bi*ym
		xi[i] = ar*xm + ai*x + br*ym + bi*y
		yr[i] = cr*x - ci*xm + dr*y - di*ym
		yi[i] = cr*xm + ci*x + dr*ym + di*y
	}
}

func spanSwap(xr, xi, yr, yi []float64) {
	n := len(xr)
	xi, yr, yi = xi[:n], yr[:n], yi[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		xr[i], yr[i] = yr[i], xr[i]
		xi[i], yi[i] = yi[i], xi[i]
		xr[i+1], yr[i+1] = yr[i+1], xr[i+1]
		xi[i+1], yi[i+1] = yi[i+1], xi[i+1]
		xr[i+2], yr[i+2] = yr[i+2], xr[i+2]
		xi[i+2], yi[i+2] = yi[i+2], xi[i+2]
		xr[i+3], yr[i+3] = yr[i+3], xr[i+3]
		xi[i+3], yi[i+3] = yi[i+3], xi[i+3]
	}
	for ; i < n; i++ {
		xr[i], yr[i] = yr[i], xr[i]
		xi[i], yi[i] = yi[i], xi[i]
	}
}

func spanCross(xr, xi, yr, yi []float64, br, bi, cr, ci float64) {
	n := len(xr)
	xi, yr, yi = xi[:n], yr[:n], yi[:n]
	i := 0
	if bi == 0 && ci == 0 {
		for ; i+2 <= n; i += 2 {
			x0, xm0 := xr[i], xi[i]
			x1, xm1 := xr[i+1], xi[i+1]
			xr[i] = br * yr[i]
			xi[i] = br * yi[i]
			yr[i] = cr * x0
			yi[i] = cr * xm0
			xr[i+1] = br * yr[i+1]
			xi[i+1] = br * yi[i+1]
			yr[i+1] = cr * x1
			yi[i+1] = cr * xm1
		}
		for ; i < n; i++ {
			x, xm := xr[i], xi[i]
			xr[i] = br * yr[i]
			xi[i] = br * yi[i]
			yr[i] = cr * x
			yi[i] = cr * xm
		}
		return
	}
	for ; i+2 <= n; i += 2 {
		x0, xm0 := xr[i], xi[i]
		y0, ym0 := yr[i], yi[i]
		x1, xm1 := xr[i+1], xi[i+1]
		y1, ym1 := yr[i+1], yi[i+1]
		xr[i] = br*y0 - bi*ym0
		xi[i] = br*ym0 + bi*y0
		yr[i] = cr*x0 - ci*xm0
		yi[i] = cr*xm0 + ci*x0
		xr[i+1] = br*y1 - bi*ym1
		xi[i+1] = br*ym1 + bi*y1
		yr[i+1] = cr*x1 - ci*xm1
		yi[i+1] = cr*xm1 + ci*x1
	}
	for ; i < n; i++ {
		x, xm := xr[i], xi[i]
		y, ym := yr[i], yi[i]
		xr[i] = br*y - bi*ym
		xi[i] = br*ym + bi*y
		yr[i] = cr*x - ci*xm
		yi[i] = cr*xm + ci*x
	}
}

func spanAxpy(dstRe, dstIm, srcRe, srcIm []float64, cr, ci float64) {
	n := len(dstRe)
	dstIm, srcRe, srcIm = dstIm[:n], srcRe[:n], srcIm[:n]
	i := 0
	if ci == 0 {
		for ; i+4 <= n; i += 4 {
			dstRe[i] += cr * srcRe[i]
			dstIm[i] += cr * srcIm[i]
			dstRe[i+1] += cr * srcRe[i+1]
			dstIm[i+1] += cr * srcIm[i+1]
			dstRe[i+2] += cr * srcRe[i+2]
			dstIm[i+2] += cr * srcIm[i+2]
			dstRe[i+3] += cr * srcRe[i+3]
			dstIm[i+3] += cr * srcIm[i+3]
		}
		for ; i < n; i++ {
			dstRe[i] += cr * srcRe[i]
			dstIm[i] += cr * srcIm[i]
		}
		return
	}
	for ; i+4 <= n; i += 4 {
		s0, t0 := srcRe[i], srcIm[i]
		s1, t1 := srcRe[i+1], srcIm[i+1]
		s2, t2 := srcRe[i+2], srcIm[i+2]
		s3, t3 := srcRe[i+3], srcIm[i+3]
		dstRe[i] += cr*s0 - ci*t0
		dstIm[i] += cr*t0 + ci*s0
		dstRe[i+1] += cr*s1 - ci*t1
		dstIm[i+1] += cr*t1 + ci*s1
		dstRe[i+2] += cr*s2 - ci*t2
		dstIm[i+2] += cr*t2 + ci*s2
		dstRe[i+3] += cr*s3 - ci*t3
		dstIm[i+3] += cr*t3 + ci*s3
	}
	for ; i < n; i++ {
		s, t := srcRe[i], srcIm[i]
		dstRe[i] += cr*s - ci*t
		dstIm[i] += cr*t + ci*s
	}
}

// spanRot4x4 is the 2q dense matvec with the 16 complex coefficients hoisted
// into scalars once per span (scalarRot4x4 re-reads m and runs complex128
// arithmetic per element). An all-real matrix — real 2q rotations, X-basis
// entanglers — drops every cross-plane term, halving the flops.
func spanRot4x4(x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i []float64, m []complex128) {
	n := len(x0r)
	x0i, x1r, x1i = x0i[:n], x1r[:n], x1i[:n]
	x2r, x2i, x3r, x3i = x2r[:n], x2i[:n], x3r[:n], x3i[:n]
	var mr, mi [16]float64
	allReal := true
	for k, c := range m[:16] {
		mr[k], mi[k] = real(c), imag(c)
		if mi[k] != 0 {
			allReal = false
		}
	}
	if allReal {
		for i := 0; i < n; i++ {
			a0, b0 := x0r[i], x0i[i]
			a1, b1 := x1r[i], x1i[i]
			a2, b2 := x2r[i], x2i[i]
			a3, b3 := x3r[i], x3i[i]
			x0r[i] = mr[0]*a0 + mr[1]*a1 + mr[2]*a2 + mr[3]*a3
			x0i[i] = mr[0]*b0 + mr[1]*b1 + mr[2]*b2 + mr[3]*b3
			x1r[i] = mr[4]*a0 + mr[5]*a1 + mr[6]*a2 + mr[7]*a3
			x1i[i] = mr[4]*b0 + mr[5]*b1 + mr[6]*b2 + mr[7]*b3
			x2r[i] = mr[8]*a0 + mr[9]*a1 + mr[10]*a2 + mr[11]*a3
			x2i[i] = mr[8]*b0 + mr[9]*b1 + mr[10]*b2 + mr[11]*b3
			x3r[i] = mr[12]*a0 + mr[13]*a1 + mr[14]*a2 + mr[15]*a3
			x3i[i] = mr[12]*b0 + mr[13]*b1 + mr[14]*b2 + mr[15]*b3
		}
		return
	}
	for i := 0; i < n; i++ {
		a0, b0 := x0r[i], x0i[i]
		a1, b1 := x1r[i], x1i[i]
		a2, b2 := x2r[i], x2i[i]
		a3, b3 := x3r[i], x3i[i]
		x0r[i] = mr[0]*a0 - mi[0]*b0 + mr[1]*a1 - mi[1]*b1 + mr[2]*a2 - mi[2]*b2 + mr[3]*a3 - mi[3]*b3
		x0i[i] = mr[0]*b0 + mi[0]*a0 + mr[1]*b1 + mi[1]*a1 + mr[2]*b2 + mi[2]*a2 + mr[3]*b3 + mi[3]*a3
		x1r[i] = mr[4]*a0 - mi[4]*b0 + mr[5]*a1 - mi[5]*b1 + mr[6]*a2 - mi[6]*b2 + mr[7]*a3 - mi[7]*b3
		x1i[i] = mr[4]*b0 + mi[4]*a0 + mr[5]*b1 + mi[5]*a1 + mr[6]*b2 + mi[6]*a2 + mr[7]*b3 + mi[7]*a3
		x2r[i] = mr[8]*a0 - mi[8]*b0 + mr[9]*a1 - mi[9]*b1 + mr[10]*a2 - mi[10]*b2 + mr[11]*a3 - mi[11]*b3
		x2i[i] = mr[8]*b0 + mi[8]*a0 + mr[9]*b1 + mi[9]*a1 + mr[10]*b2 + mi[10]*a2 + mr[11]*b3 + mi[11]*a3
		x3r[i] = mr[12]*a0 - mi[12]*b0 + mr[13]*a1 - mi[13]*b1 + mr[14]*a2 - mi[14]*b2 + mr[15]*a3 - mi[15]*b3
		x3i[i] = mr[12]*b0 + mi[12]*a0 + mr[13]*b1 + mi[13]*a1 + mr[14]*b2 + mi[14]*a2 + mr[15]*b3 + mi[15]*a3
	}
}
