//go:build !purego

// AVX2+FMA span-primitive bodies and the AVX-512F fold. Hand-maintained:
// this text is the source (asm/README.md has the contracts), so builds need
// no codegen step.
//
// Contract shared by every TEXT below but the folds (which take a foldOp and
// keep three locals, see there): pointer arguments address the first
// element of equal-length, non-aliasing float64 spans; n > 0 and n%4 == 0
// (the Go wrappers in soa_amd64.go peel the rest); loads and stores are
// unaligned (VMOVUPD) because spans start at arbitrary gate-offset positions
// inside the 64-byte-aligned planes. No function calls, no stack frame,
// upper vector state cleared with VZEROUPPER before RET.

#include "go_asm.h"
#include "textflag.h"

// func avx2ScaleRe(xr, xi *float64, n int, cr float64)
// x *= cr on both planes: the all-real diagonal fast branch.
TEXT ·avx2ScaleRe(SB), NOSPLIT, $0-32
	MOVQ xr+0(FP), DI
	MOVQ xi+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD cr+24(FP), Y0
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD (SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, (SI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func avx2ScaleCx(xr, xi *float64, n int, cr, ci float64)
// x *= (cr + i·ci): xr' = cr·r − ci·m, xi' = cr·m + ci·r.
TEXT ·avx2ScaleCx(SB), NOSPLIT, $0-40
	MOVQ xr+0(FP), DI
	MOVQ xi+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD cr+24(FP), Y0
	VBROADCASTSD ci+32(FP), Y1
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y2 // r
	VMOVUPD (SI)(AX*8), Y3 // m
	VMULPD       Y0, Y2, Y4 // cr·r
	VFNMADD231PD Y1, Y3, Y4 // − ci·m
	VMULPD       Y0, Y3, Y5 // cr·m
	VFMADD231PD  Y1, Y2, Y5 // + ci·r
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, (SI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func avx2ScaleRunsN(xr, xi *float64, n, run int, f *complex128, fmask int)
// x *= f[j & fmask] over the runs j of run elements, ScaleCx's arithmetic per
// element. run and n are multiples of 4.
TEXT ·avx2ScaleRunsN(SB), NOSPLIT, $0-48
	MOVQ xr+0(FP), DI
	MOVQ xi+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ run+24(FP), DX
	MOVQ f+32(FP), R10
	MOVQ fmask+40(FP), R11
	XORQ AX, AX // element
	XORQ BX, BX // run
runs:
	MOVQ BX, R12
	ANDQ R11, R12
	SHLQ $4, R12
	VBROADCASTSD (R10)(R12*1), Y0  // cr
	VBROADCASTSD 8(R10)(R12*1), Y1 // ci
	LEAQ (AX)(DX*1), R13
loop:
	VMOVUPD (DI)(AX*8), Y2 // r
	VMOVUPD (SI)(AX*8), Y3 // m
	VMULPD       Y0, Y2, Y4 // cr·r
	VFNMADD231PD Y1, Y3, Y4 // − ci·m
	VMULPD       Y0, Y3, Y5 // cr·m
	VFMADD231PD  Y1, Y2, Y5 // + ci·r
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, (SI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, R13
	JLT  loop
	INCQ BX
	CMPQ AX, CX
	JLT  runs
	VZEROUPPER
	RET

// func avx2SwapN(xr, xi, yr, yi *float64, n int)
// x ↔ y on both planes, no arithmetic.
TEXT ·avx2SwapN(SB), NOSPLIT, $0-40
	MOVQ xr+0(FP), DI
	MOVQ xi+8(FP), SI
	MOVQ yr+16(FP), R8
	MOVQ yi+24(FP), R9
	MOVQ n+32(FP), CX
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (R8)(AX*8), Y1
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (R9)(AX*8), Y3
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y0, (R8)(AX*8)
	VMOVUPD Y3, (SI)(AX*8)
	VMOVUPD Y2, (R9)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func avx2CrossRe(xr, xi, yr, yi *float64, n int, br, cr float64)
// Real phased transposition: x' = br·y, y' = cr·x.
TEXT ·avx2CrossRe(SB), NOSPLIT, $0-56
	MOVQ xr+0(FP), DI
	MOVQ xi+8(FP), SI
	MOVQ yr+16(FP), R8
	MOVQ yi+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD br+40(FP), Y0
	VBROADCASTSD cr+48(FP), Y1
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y2 // x
	VMOVUPD (SI)(AX*8), Y3 // xm
	VMOVUPD (R8)(AX*8), Y4 // y
	VMOVUPD (R9)(AX*8), Y5 // ym
	VMULPD Y0, Y4, Y4      // br·y
	VMULPD Y0, Y5, Y5      // br·ym
	VMULPD Y1, Y2, Y2      // cr·x
	VMULPD Y1, Y3, Y3      // cr·xm
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, (SI)(AX*8)
	VMOVUPD Y2, (R8)(AX*8)
	VMOVUPD Y3, (R9)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func avx2CrossCx(xr, xi, yr, yi *float64, n int, br, bi, cr, ci float64)
// Complex phased transposition: x' = (br+i·bi)·y, y' = (cr+i·ci)·x.
TEXT ·avx2CrossCx(SB), NOSPLIT, $0-72
	MOVQ xr+0(FP), DI
	MOVQ xi+8(FP), SI
	MOVQ yr+16(FP), R8
	MOVQ yi+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD br+40(FP), Y0
	VBROADCASTSD bi+48(FP), Y1
	VBROADCASTSD cr+56(FP), Y2
	VBROADCASTSD ci+64(FP), Y3
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y4 // x
	VMOVUPD (SI)(AX*8), Y5 // xm
	VMOVUPD (R8)(AX*8), Y6 // y
	VMOVUPD (R9)(AX*8), Y7 // ym
	VMULPD       Y0, Y6, Y8  // br·y
	VFNMADD231PD Y1, Y7, Y8  // − bi·ym
	VMULPD       Y0, Y7, Y9  // br·ym
	VFMADD231PD  Y1, Y6, Y9  // + bi·y
	VMULPD       Y2, Y4, Y10 // cr·x
	VFNMADD231PD Y3, Y5, Y10 // − ci·xm
	VMULPD       Y2, Y5, Y11 // cr·xm
	VFMADD231PD  Y3, Y4, Y11 // + ci·x
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y9, (SI)(AX*8)
	VMOVUPD Y10, (R8)(AX*8)
	VMOVUPD Y11, (R9)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func avx2AxpyRe(dstRe, dstIm, srcRe, srcIm *float64, n int, cr float64)
// dst += cr·src on both planes: the real-coefficient leaf accumulate.
TEXT ·avx2AxpyRe(SB), NOSPLIT, $0-48
	MOVQ dstRe+0(FP), DI
	MOVQ dstIm+8(FP), SI
	MOVQ srcRe+16(FP), R8
	MOVQ srcIm+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD cr+40(FP), Y0
	XORQ AX, AX
loop:
	VMOVUPD (R8)(AX*8), Y1 // s
	VMOVUPD (R9)(AX*8), Y2 // t
	VMOVUPD (DI)(AX*8), Y3
	VMOVUPD (SI)(AX*8), Y4
	VFMADD231PD Y0, Y1, Y3 // dstRe += cr·s
	VFMADD231PD Y0, Y2, Y4 // dstIm += cr·t
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y4, (SI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func avx2AxpyCx(dstRe, dstIm, srcRe, srcIm *float64, n int, cr, ci float64)
// dst += (cr+i·ci)·src: the HSF leaf accumulate primitive.
TEXT ·avx2AxpyCx(SB), NOSPLIT, $0-56
	MOVQ dstRe+0(FP), DI
	MOVQ dstIm+8(FP), SI
	MOVQ srcRe+16(FP), R8
	MOVQ srcIm+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD cr+40(FP), Y0
	VBROADCASTSD ci+48(FP), Y1
	XORQ AX, AX
loop:
	VMOVUPD (R8)(AX*8), Y2 // s
	VMOVUPD (R9)(AX*8), Y3 // t
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD (SI)(AX*8), Y5
	VFMADD231PD  Y0, Y2, Y4 // dstRe += cr·s
	VFNMADD231PD Y1, Y3, Y4 // dstRe −= ci·t
	VFMADD231PD  Y0, Y3, Y5 // dstIm += cr·t
	VFMADD231PD  Y1, Y2, Y5 // dstIm += ci·s
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, (SI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func avx2Rot2x2Re(xr, xi, yr, yi *float64, n int, ar, br, cr, dr float64)
// Real 1q dense matvec (Hadamard, X-basis rotations):
// x' = ar·x + br·y, y' = cr·x + dr·y, per plane.
TEXT ·avx2Rot2x2Re(SB), NOSPLIT, $0-72
	MOVQ xr+0(FP), DI
	MOVQ xi+8(FP), SI
	MOVQ yr+16(FP), R8
	MOVQ yi+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD ar+40(FP), Y0
	VBROADCASTSD br+48(FP), Y1
	VBROADCASTSD cr+56(FP), Y2
	VBROADCASTSD dr+64(FP), Y3
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y4 // x
	VMOVUPD (SI)(AX*8), Y5 // xm
	VMOVUPD (R8)(AX*8), Y6 // y
	VMOVUPD (R9)(AX*8), Y7 // ym
	VMULPD      Y0, Y4, Y8  // ar·x
	VFMADD231PD Y1, Y6, Y8  // + br·y
	VMULPD      Y0, Y5, Y9  // ar·xm
	VFMADD231PD Y1, Y7, Y9  // + br·ym
	VMULPD      Y2, Y4, Y10 // cr·x
	VFMADD231PD Y3, Y6, Y10 // + dr·y
	VMULPD      Y2, Y5, Y11 // cr·xm
	VFMADD231PD Y3, Y7, Y11 // + dr·ym
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y9, (SI)(AX*8)
	VMOVUPD Y10, (R8)(AX*8)
	VMOVUPD Y11, (R9)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func avx2Rot2x2Cx(xr, xi, yr, yi *float64, n int, ar, ai, br, bi, cr, ci, dr, di float64)
// Full complex 1q dense matvec:
// x' = (ar+i·ai)·x + (br+i·bi)·y, y' = (cr+i·ci)·x + (dr+i·di)·y.
TEXT ·avx2Rot2x2Cx(SB), NOSPLIT, $0-104
	MOVQ xr+0(FP), DI
	MOVQ xi+8(FP), SI
	MOVQ yr+16(FP), R8
	MOVQ yi+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD ar+40(FP), Y0
	VBROADCASTSD ai+48(FP), Y1
	VBROADCASTSD br+56(FP), Y2
	VBROADCASTSD bi+64(FP), Y3
	VBROADCASTSD cr+72(FP), Y4
	VBROADCASTSD ci+80(FP), Y5
	VBROADCASTSD dr+88(FP), Y6
	VBROADCASTSD di+96(FP), Y7
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y8  // x
	VMOVUPD (SI)(AX*8), Y9  // xm
	VMOVUPD (R8)(AX*8), Y10 // y
	VMOVUPD (R9)(AX*8), Y11 // ym
	VMULPD       Y0, Y8, Y12   // ar·x
	VFNMADD231PD Y1, Y9, Y12   // − ai·xm
	VFMADD231PD  Y2, Y10, Y12  // + br·y
	VFNMADD231PD Y3, Y11, Y12  // − bi·ym
	VMULPD       Y0, Y9, Y13   // ar·xm
	VFMADD231PD  Y1, Y8, Y13   // + ai·x
	VFMADD231PD  Y2, Y11, Y13  // + br·ym
	VFMADD231PD  Y3, Y10, Y13  // + bi·y
	VMULPD       Y4, Y8, Y14   // cr·x
	VFNMADD231PD Y5, Y9, Y14   // − ci·xm
	VFMADD231PD  Y6, Y10, Y14  // + dr·y
	VFNMADD231PD Y7, Y11, Y14  // − di·ym
	VMULPD       Y4, Y9, Y15   // cr·xm
	VFMADD231PD  Y5, Y8, Y15   // + ci·x
	VFMADD231PD  Y6, Y11, Y15  // + dr·ym
	VFMADD231PD  Y7, Y10, Y15  // + di·y
	VMOVUPD Y12, (DI)(AX*8)
	VMOVUPD Y13, (SI)(AX*8)
	VMOVUPD Y14, (R8)(AX*8)
	VMOVUPD Y15, (R9)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// --- group-looped 1q rotation -----------------------------------------------
//
// The dense 1q gate on qubit q ≥ 2 over whole half-block groups: group g is
// the x span re/im[2g·half, 2g·half+half) and the y span right after it, half
// = 2^q. Each group runs avx2Rot2x2Re/Cx's loop unchanged (same per-element
// FMA sequence, so the output is bit-identical to one span call per group);
// the outer loop advances 2·half elements per group, so a whole q-range is one
// call instead of one 13-argument call and 4–8 broadcasts per 2^q-element
// run. half > 0, half%4 == 0, groups > 0.

// func avx2Rot1GrpRe(re, im *float64, half, groups int, ar, br, cr, dr float64)
TEXT ·avx2Rot1GrpRe(SB), NOSPLIT, $0-64
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ half+16(FP), CX
	MOVQ groups+24(FP), DX
	VBROADCASTSD ar+32(FP), Y0
	VBROADCASTSD br+40(FP), Y1
	VBROADCASTSD cr+48(FP), Y2
	VBROADCASTSD dr+56(FP), Y3
	LEAQ (DI)(CX*8), R8 // y spans start half elements in
	LEAQ (SI)(CX*8), R9
	MOVQ CX, BX
	SHLQ $4, BX // bytes per group: 2·half·8
group:
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y4 // x
	VMOVUPD (SI)(AX*8), Y5 // xm
	VMOVUPD (R8)(AX*8), Y6 // y
	VMOVUPD (R9)(AX*8), Y7 // ym
	VMULPD      Y0, Y4, Y8  // ar·x
	VFMADD231PD Y1, Y6, Y8  // + br·y
	VMULPD      Y0, Y5, Y9  // ar·xm
	VFMADD231PD Y1, Y7, Y9  // + br·ym
	VMULPD      Y2, Y4, Y10 // cr·x
	VFMADD231PD Y3, Y6, Y10 // + dr·y
	VMULPD      Y2, Y5, Y11 // cr·xm
	VFMADD231PD Y3, Y7, Y11 // + dr·ym
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y9, (SI)(AX*8)
	VMOVUPD Y10, (R8)(AX*8)
	VMOVUPD Y11, (R9)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	ADDQ BX, DI
	ADDQ BX, SI
	ADDQ BX, R8
	ADDQ BX, R9
	DECQ DX
	JNZ  group
	VZEROUPPER
	RET

// func avx2Rot1GrpCx(re, im *float64, half, groups int, ar, ai, br, bi, cr, ci, dr, di float64)
TEXT ·avx2Rot1GrpCx(SB), NOSPLIT, $0-96
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ half+16(FP), CX
	MOVQ groups+24(FP), DX
	VBROADCASTSD ar+32(FP), Y0
	VBROADCASTSD ai+40(FP), Y1
	VBROADCASTSD br+48(FP), Y2
	VBROADCASTSD bi+56(FP), Y3
	VBROADCASTSD cr+64(FP), Y4
	VBROADCASTSD ci+72(FP), Y5
	VBROADCASTSD dr+80(FP), Y6
	VBROADCASTSD di+88(FP), Y7
	LEAQ (DI)(CX*8), R8
	LEAQ (SI)(CX*8), R9
	MOVQ CX, BX
	SHLQ $4, BX
group:
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y8  // x
	VMOVUPD (SI)(AX*8), Y9  // xm
	VMOVUPD (R8)(AX*8), Y10 // y
	VMOVUPD (R9)(AX*8), Y11 // ym
	VMULPD       Y0, Y8, Y12   // ar·x
	VFNMADD231PD Y1, Y9, Y12   // − ai·xm
	VFMADD231PD  Y2, Y10, Y12  // + br·y
	VFNMADD231PD Y3, Y11, Y12  // − bi·ym
	VMULPD       Y0, Y9, Y13   // ar·xm
	VFMADD231PD  Y1, Y8, Y13   // + ai·x
	VFMADD231PD  Y2, Y11, Y13  // + br·ym
	VFMADD231PD  Y3, Y10, Y13  // + bi·y
	VMULPD       Y4, Y8, Y14   // cr·x
	VFNMADD231PD Y5, Y9, Y14   // − ci·xm
	VFMADD231PD  Y6, Y10, Y14  // + dr·y
	VFNMADD231PD Y7, Y11, Y14  // − di·ym
	VMULPD       Y4, Y9, Y15   // cr·xm
	VFMADD231PD  Y5, Y8, Y15   // + ci·x
	VFMADD231PD  Y6, Y11, Y15  // + dr·ym
	VFMADD231PD  Y7, Y10, Y15  // + di·y
	VMOVUPD Y12, (DI)(AX*8)
	VMOVUPD Y13, (SI)(AX*8)
	VMOVUPD Y14, (R8)(AX*8)
	VMOVUPD Y15, (R9)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	ADDQ BX, DI
	ADDQ BX, SI
	ADDQ BX, R8
	ADDQ BX, R9
	DECQ DX
	JNZ  group
	VZEROUPPER
	RET

// func avx2Rot4x4N(x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i *float64, n int, m *complex128)
// 2q dense matvec over four span quadruples. The 16 complex coefficients are
// broadcast from m (row-major, interleaved re/im) per row; all eight input
// vectors are held in registers, so each output row stores immediately.
TEXT ·avx2Rot4x4N(SB), NOSPLIT, $0-80
	MOVQ x0r+0(FP), DI
	MOVQ x0i+8(FP), SI
	MOVQ x1r+16(FP), R8
	MOVQ x1i+24(FP), R9
	MOVQ x2r+32(FP), R10
	MOVQ x2i+40(FP), R11
	MOVQ x3r+48(FP), R12
	MOVQ x3i+56(FP), R13
	MOVQ n+64(FP), CX
	MOVQ m+72(FP), BX
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y0  // x0 re
	VMOVUPD (SI)(AX*8), Y1  // x0 im
	VMOVUPD (R8)(AX*8), Y2  // x1 re
	VMOVUPD (R9)(AX*8), Y3  // x1 im
	VMOVUPD (R10)(AX*8), Y4 // x2 re
	VMOVUPD (R11)(AX*8), Y5 // x2 im
	VMOVUPD (R12)(AX*8), Y6 // x3 re
	VMOVUPD (R13)(AX*8), Y7 // x3 im

	// row 0: b0 = m00·x0 + m01·x1 + m02·x2 + m03·x3
	VBROADCASTSD 0(BX), Y10
	VBROADCASTSD 8(BX), Y11
	VMULPD       Y10, Y0, Y8
	VFNMADD231PD Y11, Y1, Y8
	VMULPD       Y10, Y1, Y9
	VFMADD231PD  Y11, Y0, Y9
	VBROADCASTSD 16(BX), Y10
	VBROADCASTSD 24(BX), Y11
	VFMADD231PD  Y10, Y2, Y8
	VFNMADD231PD Y11, Y3, Y8
	VFMADD231PD  Y10, Y3, Y9
	VFMADD231PD  Y11, Y2, Y9
	VBROADCASTSD 32(BX), Y10
	VBROADCASTSD 40(BX), Y11
	VFMADD231PD  Y10, Y4, Y8
	VFNMADD231PD Y11, Y5, Y8
	VFMADD231PD  Y10, Y5, Y9
	VFMADD231PD  Y11, Y4, Y9
	VBROADCASTSD 48(BX), Y10
	VBROADCASTSD 56(BX), Y11
	VFMADD231PD  Y10, Y6, Y8
	VFNMADD231PD Y11, Y7, Y8
	VFMADD231PD  Y10, Y7, Y9
	VFMADD231PD  Y11, Y6, Y9
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y9, (SI)(AX*8)

	// row 1
	VBROADCASTSD 64(BX), Y10
	VBROADCASTSD 72(BX), Y11
	VMULPD       Y10, Y0, Y8
	VFNMADD231PD Y11, Y1, Y8
	VMULPD       Y10, Y1, Y9
	VFMADD231PD  Y11, Y0, Y9
	VBROADCASTSD 80(BX), Y10
	VBROADCASTSD 88(BX), Y11
	VFMADD231PD  Y10, Y2, Y8
	VFNMADD231PD Y11, Y3, Y8
	VFMADD231PD  Y10, Y3, Y9
	VFMADD231PD  Y11, Y2, Y9
	VBROADCASTSD 96(BX), Y10
	VBROADCASTSD 104(BX), Y11
	VFMADD231PD  Y10, Y4, Y8
	VFNMADD231PD Y11, Y5, Y8
	VFMADD231PD  Y10, Y5, Y9
	VFMADD231PD  Y11, Y4, Y9
	VBROADCASTSD 112(BX), Y10
	VBROADCASTSD 120(BX), Y11
	VFMADD231PD  Y10, Y6, Y8
	VFNMADD231PD Y11, Y7, Y8
	VFMADD231PD  Y10, Y7, Y9
	VFMADD231PD  Y11, Y6, Y9
	VMOVUPD Y8, (R8)(AX*8)
	VMOVUPD Y9, (R9)(AX*8)

	// row 2
	VBROADCASTSD 128(BX), Y10
	VBROADCASTSD 136(BX), Y11
	VMULPD       Y10, Y0, Y8
	VFNMADD231PD Y11, Y1, Y8
	VMULPD       Y10, Y1, Y9
	VFMADD231PD  Y11, Y0, Y9
	VBROADCASTSD 144(BX), Y10
	VBROADCASTSD 152(BX), Y11
	VFMADD231PD  Y10, Y2, Y8
	VFNMADD231PD Y11, Y3, Y8
	VFMADD231PD  Y10, Y3, Y9
	VFMADD231PD  Y11, Y2, Y9
	VBROADCASTSD 160(BX), Y10
	VBROADCASTSD 168(BX), Y11
	VFMADD231PD  Y10, Y4, Y8
	VFNMADD231PD Y11, Y5, Y8
	VFMADD231PD  Y10, Y5, Y9
	VFMADD231PD  Y11, Y4, Y9
	VBROADCASTSD 176(BX), Y10
	VBROADCASTSD 184(BX), Y11
	VFMADD231PD  Y10, Y6, Y8
	VFNMADD231PD Y11, Y7, Y8
	VFMADD231PD  Y10, Y7, Y9
	VFMADD231PD  Y11, Y6, Y9
	VMOVUPD Y8, (R10)(AX*8)
	VMOVUPD Y9, (R11)(AX*8)

	// row 3
	VBROADCASTSD 192(BX), Y10
	VBROADCASTSD 200(BX), Y11
	VMULPD       Y10, Y0, Y8
	VFNMADD231PD Y11, Y1, Y8
	VMULPD       Y10, Y1, Y9
	VFMADD231PD  Y11, Y0, Y9
	VBROADCASTSD 208(BX), Y10
	VBROADCASTSD 216(BX), Y11
	VFMADD231PD  Y10, Y2, Y8
	VFNMADD231PD Y11, Y3, Y8
	VFMADD231PD  Y10, Y3, Y9
	VFMADD231PD  Y11, Y2, Y9
	VBROADCASTSD 224(BX), Y10
	VBROADCASTSD 232(BX), Y11
	VFMADD231PD  Y10, Y4, Y8
	VFNMADD231PD Y11, Y5, Y8
	VFMADD231PD  Y10, Y5, Y9
	VFMADD231PD  Y11, Y4, Y9
	VBROADCASTSD 240(BX), Y10
	VBROADCASTSD 248(BX), Y11
	VFMADD231PD  Y10, Y6, Y8
	VFNMADD231PD Y11, Y7, Y8
	VFMADD231PD  Y10, Y7, Y9
	VFMADD231PD  Y11, Y6, Y9
	VMOVUPD Y8, (R12)(AX*8)
	VMOVUPD Y9, (R13)(AX*8)

	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// --- interleaved low-qubit 1q kernels ---------------------------------------
//
// Qubits 0 and 1 never produce runs long enough for the span bodies above, so
// these kernels vectorize the pair structure itself: load two YMM registers
// per plane (8 float64 = 4 amplitude pairs), deinterleave the x/y halves with
// in-register shuffles, run the same rot2x2/diag arithmetic, and interleave
// back. q=0 pairs alternate element-wise (VUNPCKLPD/VUNPCKHPD); q=1 pairs
// alternate 128-bit lanes (VPERM2F128). n counts float64 elements per plane,
// n > 0 and n%8 == 0; the wrappers peel unaligned head and tail pairs.

// func avx2Rot1LoQ0Re(p *float64, n int, ar, br, cr, dr float64)
// Real 1q rotation on qubit 0 over one plane (planes are independent when
// every coefficient is real): x' = ar·x + br·y, y' = cr·x + dr·y.
TEXT ·avx2Rot1LoQ0Re(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD ar+16(FP), Y8
	VBROADCASTSD br+24(FP), Y9
	VBROADCASTSD cr+32(FP), Y10
	VBROADCASTSD dr+40(FP), Y11
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y0   // [x0 y0 x1 y1]
	VMOVUPD 32(DI)(AX*8), Y1 // [x2 y2 x3 y3]
	VUNPCKLPD Y1, Y0, Y2 // xs = [x0 x2 x1 x3]
	VUNPCKHPD Y1, Y0, Y3 // ys = [y0 y2 y1 y3]
	VMULPD      Y2, Y8, Y4  // ar·xs
	VFMADD231PD Y3, Y9, Y4  // + br·ys
	VMULPD      Y2, Y10, Y5 // cr·xs
	VFMADD231PD Y3, Y11, Y5 // + dr·ys
	VUNPCKLPD Y5, Y4, Y0
	VUNPCKHPD Y5, Y4, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func avx2Rot1LoQ1Re(p *float64, n int, ar, br, cr, dr float64)
// As Q0Re for qubit 1: x/y halves are the 128-bit lanes of each group.
TEXT ·avx2Rot1LoQ1Re(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD ar+16(FP), Y8
	VBROADCASTSD br+24(FP), Y9
	VBROADCASTSD cr+32(FP), Y10
	VBROADCASTSD dr+40(FP), Y11
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y0   // [x0 x1 y0 y1]
	VMOVUPD 32(DI)(AX*8), Y1 // [x2 x3 y2 y3]
	VPERM2F128 $0x20, Y1, Y0, Y2 // xs = [x0 x1 x2 x3]
	VPERM2F128 $0x31, Y1, Y0, Y3 // ys = [y0 y1 y2 y3]
	VMULPD      Y2, Y8, Y4  // ar·xs
	VFMADD231PD Y3, Y9, Y4  // + br·ys
	VMULPD      Y2, Y10, Y5 // cr·xs
	VFMADD231PD Y3, Y11, Y5 // + dr·ys
	VPERM2F128 $0x20, Y5, Y4, Y0
	VPERM2F128 $0x31, Y5, Y4, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func avx2Rot1LoQ0Cx(re, im *float64, n int, ar, ai, br, bi, cr, ci, dr, di float64)
// Complex 1q rotation on qubit 0: full rot2x2 arithmetic on deinterleaved
// pairs of both planes.
TEXT ·avx2Rot1LoQ0Cx(SB), NOSPLIT, $0-88
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD ar+24(FP), Y8
	VBROADCASTSD ai+32(FP), Y9
	VBROADCASTSD br+40(FP), Y10
	VBROADCASTSD bi+48(FP), Y11
	VBROADCASTSD cr+56(FP), Y12
	VBROADCASTSD ci+64(FP), Y13
	VBROADCASTSD dr+72(FP), Y14
	VBROADCASTSD di+80(FP), Y15
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y3
	VUNPCKLPD Y1, Y0, Y4 // xr
	VUNPCKHPD Y1, Y0, Y5 // yr
	VUNPCKLPD Y3, Y2, Y6 // xm
	VUNPCKHPD Y3, Y2, Y7 // ym
	VMULPD       Y4, Y8, Y0  // nxr = ar·xr
	VFNMADD231PD Y6, Y9, Y0  // − ai·xm
	VFMADD231PD  Y5, Y10, Y0 // + br·yr
	VFNMADD231PD Y7, Y11, Y0 // − bi·ym
	VMULPD       Y6, Y8, Y1  // nxi = ar·xm
	VFMADD231PD  Y4, Y9, Y1  // + ai·xr
	VFMADD231PD  Y7, Y10, Y1 // + br·ym
	VFMADD231PD  Y5, Y11, Y1 // + bi·yr
	VMULPD       Y4, Y12, Y2 // nyr = cr·xr
	VFNMADD231PD Y6, Y13, Y2 // − ci·xm
	VFMADD231PD  Y5, Y14, Y2 // + dr·yr
	VFNMADD231PD Y7, Y15, Y2 // − di·ym
	VMULPD       Y6, Y12, Y3 // nyi = cr·xm
	VFMADD231PD  Y4, Y13, Y3 // + ci·xr
	VFMADD231PD  Y7, Y14, Y3 // + dr·ym
	VFMADD231PD  Y5, Y15, Y3 // + di·yr
	VUNPCKLPD Y2, Y0, Y4
	VUNPCKHPD Y2, Y0, Y5
	VUNPCKLPD Y3, Y1, Y6
	VUNPCKHPD Y3, Y1, Y7
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, (SI)(AX*8)
	VMOVUPD Y7, 32(SI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func avx2Rot1LoQ1Cx(re, im *float64, n int, ar, ai, br, bi, cr, ci, dr, di float64)
// As Q0Cx for qubit 1 (lane shuffles instead of element unpacks).
TEXT ·avx2Rot1LoQ1Cx(SB), NOSPLIT, $0-88
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD ar+24(FP), Y8
	VBROADCASTSD ai+32(FP), Y9
	VBROADCASTSD br+40(FP), Y10
	VBROADCASTSD bi+48(FP), Y11
	VBROADCASTSD cr+56(FP), Y12
	VBROADCASTSD ci+64(FP), Y13
	VBROADCASTSD dr+72(FP), Y14
	VBROADCASTSD di+80(FP), Y15
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y3
	VPERM2F128 $0x20, Y1, Y0, Y4 // xr
	VPERM2F128 $0x31, Y1, Y0, Y5 // yr
	VPERM2F128 $0x20, Y3, Y2, Y6 // xm
	VPERM2F128 $0x31, Y3, Y2, Y7 // ym
	VMULPD       Y4, Y8, Y0
	VFNMADD231PD Y6, Y9, Y0
	VFMADD231PD  Y5, Y10, Y0
	VFNMADD231PD Y7, Y11, Y0
	VMULPD       Y6, Y8, Y1
	VFMADD231PD  Y4, Y9, Y1
	VFMADD231PD  Y7, Y10, Y1
	VFMADD231PD  Y5, Y11, Y1
	VMULPD       Y4, Y12, Y2
	VFNMADD231PD Y6, Y13, Y2
	VFMADD231PD  Y5, Y14, Y2
	VFNMADD231PD Y7, Y15, Y2
	VMULPD       Y6, Y12, Y3
	VFMADD231PD  Y4, Y13, Y3
	VFMADD231PD  Y7, Y14, Y3
	VFMADD231PD  Y5, Y15, Y3
	VPERM2F128 $0x20, Y2, Y0, Y4
	VPERM2F128 $0x31, Y2, Y0, Y5
	VPERM2F128 $0x20, Y3, Y1, Y6
	VPERM2F128 $0x31, Y3, Y1, Y7
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, (SI)(AX*8)
	VMOVUPD Y7, 32(SI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func avx2Diag1LoQ0(re, im *float64, n int, ar, ai, dr, di float64)
// diag(a, d) on qubit 0: x *= a, y *= d on deinterleaved pairs.
TEXT ·avx2Diag1LoQ0(SB), NOSPLIT, $0-56
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD ar+24(FP), Y8
	VBROADCASTSD ai+32(FP), Y9
	VBROADCASTSD dr+40(FP), Y10
	VBROADCASTSD di+48(FP), Y11
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y3
	VUNPCKLPD Y1, Y0, Y4 // xr
	VUNPCKHPD Y1, Y0, Y5 // yr
	VUNPCKLPD Y3, Y2, Y6 // xm
	VUNPCKHPD Y3, Y2, Y7 // ym
	VMULPD       Y4, Y8, Y0  // ar·xr
	VFNMADD231PD Y6, Y9, Y0  // − ai·xm
	VMULPD       Y6, Y8, Y1  // ar·xm
	VFMADD231PD  Y4, Y9, Y1  // + ai·xr
	VMULPD       Y5, Y10, Y2 // dr·yr
	VFNMADD231PD Y7, Y11, Y2 // − di·ym
	VMULPD       Y7, Y10, Y3 // dr·ym
	VFMADD231PD  Y5, Y11, Y3 // + di·yr
	VUNPCKLPD Y2, Y0, Y4
	VUNPCKHPD Y2, Y0, Y5
	VUNPCKLPD Y3, Y1, Y6
	VUNPCKHPD Y3, Y1, Y7
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, (SI)(AX*8)
	VMOVUPD Y7, 32(SI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func avx2Diag1LoQ1(re, im *float64, n int, ar, ai, dr, di float64)
// As Diag1LoQ0 for qubit 1.
TEXT ·avx2Diag1LoQ1(SB), NOSPLIT, $0-56
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD ar+24(FP), Y8
	VBROADCASTSD ai+32(FP), Y9
	VBROADCASTSD dr+40(FP), Y10
	VBROADCASTSD di+48(FP), Y11
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y3
	VPERM2F128 $0x20, Y1, Y0, Y4 // xr
	VPERM2F128 $0x31, Y1, Y0, Y5 // yr
	VPERM2F128 $0x20, Y3, Y2, Y6 // xm
	VPERM2F128 $0x31, Y3, Y2, Y7 // ym
	VMULPD       Y4, Y8, Y0
	VFNMADD231PD Y6, Y9, Y0
	VMULPD       Y6, Y8, Y1
	VFMADD231PD  Y4, Y9, Y1
	VMULPD       Y5, Y10, Y2
	VFNMADD231PD Y7, Y11, Y2
	VMULPD       Y7, Y10, Y3
	VFMADD231PD  Y5, Y11, Y3
	VPERM2F128 $0x20, Y2, Y0, Y4
	VPERM2F128 $0x31, Y2, Y0, Y5
	VPERM2F128 $0x20, Y3, Y1, Y6
	VPERM2F128 $0x31, Y3, Y1, Y7
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, (SI)(AX*8)
	VMOVUPD Y7, 32(SI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// --- register-blocked leaf fold ---------------------------------------------

// --- the register-blocked fold ----------------------------------------------
//
// func avx2FoldN(op *foldOp) / func avx512FoldN(op *foldOp)
// The packed complex GEMM of a foldOp (soa.go): for its blocks of 4
// accumulator rows and each column group, the group's accumulators stay in
// registers while every node of the op is applied in table order — per node,
// its lower half's s and t for the group and the 4 rows' coefficient
// broadcasts feed axpy's per-element FMA sequence (re += cr·s, re −= ci·t,
// im += cr·t, im += ci·s). The node table lo and the coefficient table c
// are []Vector: node p's header at byte 48p, its Re data pointer first and
// its Im data pointer at +24. Lengths are not read; the Go callers check
// the op (foldOp.check). blocks, n and len(lo) are positive; n % 4 == 0
// (n % 16 == 0 for avx512FoldN).

// FOLD_SETUP loads the op at AX into the fold bodies' registers: DI and SI the
// first accumulator row of the block (re, im) at the column group, DX one
// and AX three accumulator row strides in bytes, R8 the node table, R9 the
// coefficient table, R14 the column group's byte offset in the nodes' lower
// halves and CX its end, R15 the byte offset of the block's first
// coefficient row, R12 one and R10 three coefficient row strides in bytes.
// The locals hold the table bytes of the op's nodes (kend), the byte offset
// of column 0 (lo0) and the blocks left (blk). BX, R11 and R13 are scratch.
#define FOLD_SETUP \
	MOVQ  (foldOp_acc+Vector_Re)(AX), DI; \
	MOVQ  (foldOp_acc+Vector_Im)(AX), SI; \
	MOVQ  foldOp_lo(AX), R8; \
	MOVQ  foldOp_c(AX), R9; \
	MOVQ  (foldOp_lo+8)(AX), BX; \
	IMULQ $48, BX; \
	MOVQ  BX, kend-8(SP); \
	MOVQ  foldOp_blocks(AX), BX; \
	MOVQ  BX, blk-24(SP); \
	MOVQ  foldOp_loOff(AX), R14; \
	SHLQ  $3, R14; \
	MOVQ  R14, lo0-16(SP); \
	MOVQ  foldOp_n(AX), CX; \
	LEAQ  (R14)(CX*8), CX; \
	MOVQ  foldOp_cOff(AX), R15; \
	SHLQ  $3, R15; \
	MOVQ  foldOp_cStride(AX), R12; \
	SHLQ  $3, R12; \
	LEAQ  (R12)(R12*2), R10; \
	MOVQ  foldOp_stride(AX), DX; \
	SHLQ  $3, DX; \
	LEAQ  (DX)(DX*2), AX

// FOLD_NEXT_BLOCK moves the registers from the end of a block's columns to
// the start of the next block and counts it, leaving ZF set after the last.
#define FOLD_NEXT_BLOCK \
	MOVQ lo0-16(SP), R13; \
	SUBQ R14, R13; \
	ADDQ R13, DI; \
	ADDQ R13, SI; \
	LEAQ (DI)(DX*4), DI; \
	LEAQ (SI)(DX*4), SI; \
	MOVQ lo0-16(SP), R14; \
	LEAQ (R15)(R12*4), R15; \
	DECQ blk-24(SP)

// avx2FoldN: 4 columns per group, Y0–Y7 the accumulators (row r's re in
// Y2r, im in Y2r+1), Y8/Y9 s and t, Y10–Y15 the broadcasts: 16 FMAs per node.
TEXT ·avx2FoldN(SB), NOSPLIT, $24-8
	MOVQ op+0(FP), AX
	FOLD_SETUP
block:
	VMOVUPD (DI), Y0        // row 0 re
	VMOVUPD (SI), Y1        // row 0 im
	VMOVUPD (DI)(DX*1), Y2  // row 1
	VMOVUPD (SI)(DX*1), Y3
	VMOVUPD (DI)(DX*2), Y4  // row 2
	VMOVUPD (SI)(DX*2), Y5
	VMOVUPD (DI)(AX*1), Y6  // row 3
	VMOVUPD (SI)(AX*1), Y7
	XORQ    BX, BX
node:
	MOVQ         0(R8)(BX*1), R13
	VMOVUPD      (R13)(R14*1), Y8  // s
	MOVQ         24(R8)(BX*1), R13
	VMOVUPD      (R13)(R14*1), Y9  // t
	MOVQ         0(R9)(BX*1), R13
	ADDQ         R15, R13          // the node's cr of the block's rows
	MOVQ         24(R9)(BX*1), R11
	ADDQ         R15, R11          // and its ci
	VBROADCASTSD (R13), Y10        // row 0
	VBROADCASTSD (R11), Y11
	VFMADD231PD  Y10, Y8, Y0       // re += cr·s
	VFNMADD231PD Y11, Y9, Y0       // re −= ci·t
	VFMADD231PD  Y10, Y9, Y1       // im += cr·t
	VFMADD231PD  Y11, Y8, Y1       // im += ci·s
	VBROADCASTSD (R13)(R12*1), Y12 // row 1
	VBROADCASTSD (R11)(R12*1), Y13
	VFMADD231PD  Y12, Y8, Y2
	VFNMADD231PD Y13, Y9, Y2
	VFMADD231PD  Y12, Y9, Y3
	VFMADD231PD  Y13, Y8, Y3
	VBROADCASTSD (R13)(R12*2), Y14 // row 2
	VBROADCASTSD (R11)(R12*2), Y15
	VFMADD231PD  Y14, Y8, Y4
	VFNMADD231PD Y15, Y9, Y4
	VFMADD231PD  Y14, Y9, Y5
	VFMADD231PD  Y15, Y8, Y5
	VBROADCASTSD (R13)(R10*1), Y10 // row 3
	VBROADCASTSD (R11)(R10*1), Y11
	VFMADD231PD  Y10, Y8, Y6
	VFNMADD231PD Y11, Y9, Y6
	VFMADD231PD  Y10, Y9, Y7
	VFMADD231PD  Y11, Y8, Y7
	ADDQ         $48, BX
	CMPQ         BX, kend-8(SP)
	JLT          node
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (SI)
	VMOVUPD Y2, (DI)(DX*1)
	VMOVUPD Y3, (SI)(DX*1)
	VMOVUPD Y4, (DI)(DX*2)
	VMOVUPD Y5, (SI)(DX*2)
	VMOVUPD Y6, (DI)(AX*1)
	VMOVUPD Y7, (SI)(AX*1)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R14
	CMPQ    R14, CX
	JLT     block
	FOLD_NEXT_BLOCK
	JNZ     block
	VZEROUPPER
	RET

// avx512FoldN: avx2FoldN on 16 columns of 8-lane ZMM registers per group:
// the 4 rows × 2 groups × re/im accumulators sit in Z0–Z15 (row r's re
// groups in Z4r, Z4r+1, its im groups in Z4r+2, Z4r+3). Per node, s and t
// of both groups (Z16–Z19) and the eight coefficient broadcasts (Z20–Z27)
// feed 32 FMAs in avx2FoldN's per-element sequence, so every element rounds
// exactly as there.
TEXT ·avx512FoldN(SB), NOSPLIT, $24-8
	MOVQ op+0(FP), AX
	FOLD_SETUP
block:
	VMOVUPD (DI), Z0          // row 0 re
	VMOVUPD 64(DI), Z1
	VMOVUPD (SI), Z2          // row 0 im
	VMOVUPD 64(SI), Z3
	VMOVUPD (DI)(DX*1), Z4    // row 1
	VMOVUPD 64(DI)(DX*1), Z5
	VMOVUPD (SI)(DX*1), Z6
	VMOVUPD 64(SI)(DX*1), Z7
	VMOVUPD (DI)(DX*2), Z8    // row 2
	VMOVUPD 64(DI)(DX*2), Z9
	VMOVUPD (SI)(DX*2), Z10
	VMOVUPD 64(SI)(DX*2), Z11
	VMOVUPD (DI)(AX*1), Z12   // row 3
	VMOVUPD 64(DI)(AX*1), Z13
	VMOVUPD (SI)(AX*1), Z14
	VMOVUPD 64(SI)(AX*1), Z15
	XORQ    BX, BX
node:
	MOVQ         0(R8)(BX*1), R13
	VMOVUPD      (R13)(R14*1), Z16   // s
	VMOVUPD      64(R13)(R14*1), Z17
	MOVQ         24(R8)(BX*1), R13
	VMOVUPD      (R13)(R14*1), Z18   // t
	VMOVUPD      64(R13)(R14*1), Z19
	MOVQ         0(R9)(BX*1), R13
	ADDQ         R15, R13            // the node's cr of the block's rows
	MOVQ         24(R9)(BX*1), R11
	ADDQ         R15, R11            // and its ci
	VBROADCASTSD (R13), Z20          // row 0: cr, ci
	VBROADCASTSD (R11), Z21
	VBROADCASTSD (R13)(R12*1), Z22   // row 1
	VBROADCASTSD (R11)(R12*1), Z23
	VBROADCASTSD (R13)(R12*2), Z24   // row 2
	VBROADCASTSD (R11)(R12*2), Z25
	VBROADCASTSD (R13)(R10*1), Z26   // row 3
	VBROADCASTSD (R11)(R10*1), Z27
	VFMADD231PD  Z20, Z16, Z0        // re += cr·s
	VFMADD231PD  Z20, Z17, Z1
	VFNMADD231PD Z21, Z18, Z0        // re −= ci·t
	VFNMADD231PD Z21, Z19, Z1
	VFMADD231PD  Z20, Z18, Z2        // im += cr·t
	VFMADD231PD  Z20, Z19, Z3
	VFMADD231PD  Z21, Z16, Z2        // im += ci·s
	VFMADD231PD  Z21, Z17, Z3
	VFMADD231PD  Z22, Z16, Z4
	VFMADD231PD  Z22, Z17, Z5
	VFNMADD231PD Z23, Z18, Z4
	VFNMADD231PD Z23, Z19, Z5
	VFMADD231PD  Z22, Z18, Z6
	VFMADD231PD  Z22, Z19, Z7
	VFMADD231PD  Z23, Z16, Z6
	VFMADD231PD  Z23, Z17, Z7
	VFMADD231PD  Z24, Z16, Z8
	VFMADD231PD  Z24, Z17, Z9
	VFNMADD231PD Z25, Z18, Z8
	VFNMADD231PD Z25, Z19, Z9
	VFMADD231PD  Z24, Z18, Z10
	VFMADD231PD  Z24, Z19, Z11
	VFMADD231PD  Z25, Z16, Z10
	VFMADD231PD  Z25, Z17, Z11
	VFMADD231PD  Z26, Z16, Z12
	VFMADD231PD  Z26, Z17, Z13
	VFNMADD231PD Z27, Z18, Z12
	VFNMADD231PD Z27, Z19, Z13
	VFMADD231PD  Z26, Z18, Z14
	VFMADD231PD  Z26, Z19, Z15
	VFMADD231PD  Z27, Z16, Z14
	VFMADD231PD  Z27, Z17, Z15
	ADDQ         $48, BX
	CMPQ         BX, kend-8(SP)
	JLT          node
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (SI)
	VMOVUPD Z3, 64(SI)
	VMOVUPD Z4, (DI)(DX*1)
	VMOVUPD Z5, 64(DI)(DX*1)
	VMOVUPD Z6, (SI)(DX*1)
	VMOVUPD Z7, 64(SI)(DX*1)
	VMOVUPD Z8, (DI)(DX*2)
	VMOVUPD Z9, 64(DI)(DX*2)
	VMOVUPD Z10, (SI)(DX*2)
	VMOVUPD Z11, 64(SI)(DX*2)
	VMOVUPD Z12, (DI)(AX*1)
	VMOVUPD Z13, 64(DI)(AX*1)
	VMOVUPD Z14, (SI)(AX*1)
	VMOVUPD Z15, 64(SI)(AX*1)
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    $128, R14
	CMPQ    R14, CX
	JLT     block
	FOLD_NEXT_BLOCK
	JNZ     block
	VZEROUPPER
	RET
