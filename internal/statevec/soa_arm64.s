//go:build !purego

// NEON (ASIMD) span-primitive bodies. See asm/README.md for the maintenance
// notes; the committed text is authoritative so builds need no codegen step.
//
// Contract shared by every TEXT below: pointer arguments address the first
// element of equal-length, non-aliasing float64 spans; n > 0 and n%2 == 0
// (the Go wrappers in soa_arm64.go peel the at-most-one-element tail).
// Two float64 lanes per 128-bit vector register. The Go arm64 assembler
// accepts FMLA/FMLS but not vector FMUL/FADD/FSUB, so every product term is
// accumulated into a VEOR-zeroed register — each primitive is a sum of
// products, so the shape costs one VEOR per result vector and nothing else.
// Spans advance by post-incrementing the pointer on the store (VST1.P),
// which keeps the loop free of separate index arithmetic.

#include "textflag.h"

// func neonScaleRe(xr, xi *float64, n int, cr float64)
TEXT ·neonScaleRe(SB), NOSPLIT, $0-32
	MOVD  xr+0(FP), R0
	MOVD  xi+8(FP), R1
	MOVD  n+16(FP), R8
	FMOVD cr+24(FP), F0
	VDUP  V0.D[0], V0.D2
loop:
	VLD1 (R0), [V1.D2]
	VLD1 (R1), [V2.D2]
	VEOR  V3.B16, V3.B16, V3.B16
	VFMLA V0.D2, V1.D2, V3.D2 // cr·r
	VEOR  V4.B16, V4.B16, V4.B16
	VFMLA V0.D2, V2.D2, V4.D2 // cr·m
	VST1.P [V3.D2], 16(R0)
	VST1.P [V4.D2], 16(R1)
	SUB  $2, R8, R8
	CBNZ R8, loop
	RET

// func neonScaleCx(xr, xi *float64, n int, cr, ci float64)
TEXT ·neonScaleCx(SB), NOSPLIT, $0-40
	MOVD  xr+0(FP), R0
	MOVD  xi+8(FP), R1
	MOVD  n+16(FP), R8
	FMOVD cr+24(FP), F0
	FMOVD ci+32(FP), F1
	VDUP  V0.D[0], V0.D2
	VDUP  V1.D[0], V1.D2
loop:
	VLD1 (R0), [V2.D2] // r
	VLD1 (R1), [V3.D2] // m
	VEOR  V4.B16, V4.B16, V4.B16
	VFMLA V0.D2, V2.D2, V4.D2 // cr·r
	VFMLS V1.D2, V3.D2, V4.D2 // − ci·m
	VEOR  V5.B16, V5.B16, V5.B16
	VFMLA V0.D2, V3.D2, V5.D2 // cr·m
	VFMLA V1.D2, V2.D2, V5.D2 // + ci·r
	VST1.P [V4.D2], 16(R0)
	VST1.P [V5.D2], 16(R1)
	SUB  $2, R8, R8
	CBNZ R8, loop
	RET

// func neonSwapN(xr, xi, yr, yi *float64, n int)
TEXT ·neonSwapN(SB), NOSPLIT, $0-40
	MOVD xr+0(FP), R0
	MOVD xi+8(FP), R1
	MOVD yr+16(FP), R2
	MOVD yi+24(FP), R3
	MOVD n+32(FP), R8
loop:
	VLD1 (R0), [V0.D2]
	VLD1 (R2), [V1.D2]
	VLD1 (R1), [V2.D2]
	VLD1 (R3), [V3.D2]
	VST1.P [V1.D2], 16(R0)
	VST1.P [V0.D2], 16(R2)
	VST1.P [V3.D2], 16(R1)
	VST1.P [V2.D2], 16(R3)
	SUB  $2, R8, R8
	CBNZ R8, loop
	RET

// func neonCrossRe(xr, xi, yr, yi *float64, n int, br, cr float64)
TEXT ·neonCrossRe(SB), NOSPLIT, $0-56
	MOVD  xr+0(FP), R0
	MOVD  xi+8(FP), R1
	MOVD  yr+16(FP), R2
	MOVD  yi+24(FP), R3
	MOVD  n+32(FP), R8
	FMOVD br+40(FP), F0
	FMOVD cr+48(FP), F1
	VDUP  V0.D[0], V0.D2
	VDUP  V1.D[0], V1.D2
loop:
	VLD1 (R0), [V2.D2] // x
	VLD1 (R1), [V3.D2] // xm
	VLD1 (R2), [V4.D2] // y
	VLD1 (R3), [V5.D2] // ym
	VEOR  V6.B16, V6.B16, V6.B16
	VFMLA V0.D2, V4.D2, V6.D2 // br·y
	VEOR  V7.B16, V7.B16, V7.B16
	VFMLA V0.D2, V5.D2, V7.D2 // br·ym
	VEOR  V8.B16, V8.B16, V8.B16
	VFMLA V1.D2, V2.D2, V8.D2 // cr·x
	VEOR  V9.B16, V9.B16, V9.B16
	VFMLA V1.D2, V3.D2, V9.D2 // cr·xm
	VST1.P [V6.D2], 16(R0)
	VST1.P [V7.D2], 16(R1)
	VST1.P [V8.D2], 16(R2)
	VST1.P [V9.D2], 16(R3)
	SUB  $2, R8, R8
	CBNZ R8, loop
	RET

// func neonCrossCx(xr, xi, yr, yi *float64, n int, br, bi, cr, ci float64)
TEXT ·neonCrossCx(SB), NOSPLIT, $0-72
	MOVD  xr+0(FP), R0
	MOVD  xi+8(FP), R1
	MOVD  yr+16(FP), R2
	MOVD  yi+24(FP), R3
	MOVD  n+32(FP), R8
	FMOVD br+40(FP), F0
	FMOVD bi+48(FP), F1
	FMOVD cr+56(FP), F2
	FMOVD ci+64(FP), F3
	VDUP  V0.D[0], V0.D2
	VDUP  V1.D[0], V1.D2
	VDUP  V2.D[0], V2.D2
	VDUP  V3.D[0], V3.D2
loop:
	VLD1 (R0), [V4.D2] // x
	VLD1 (R1), [V5.D2] // xm
	VLD1 (R2), [V6.D2] // y
	VLD1 (R3), [V7.D2] // ym
	VEOR  V8.B16, V8.B16, V8.B16
	VFMLA V0.D2, V6.D2, V8.D2 // br·y
	VFMLS V1.D2, V7.D2, V8.D2 // − bi·ym
	VEOR  V9.B16, V9.B16, V9.B16
	VFMLA V0.D2, V7.D2, V9.D2 // br·ym
	VFMLA V1.D2, V6.D2, V9.D2 // + bi·y
	VEOR  V10.B16, V10.B16, V10.B16
	VFMLA V2.D2, V4.D2, V10.D2 // cr·x
	VFMLS V3.D2, V5.D2, V10.D2 // − ci·xm
	VEOR  V11.B16, V11.B16, V11.B16
	VFMLA V2.D2, V5.D2, V11.D2 // cr·xm
	VFMLA V3.D2, V4.D2, V11.D2 // + ci·x
	VST1.P [V8.D2], 16(R0)
	VST1.P [V9.D2], 16(R1)
	VST1.P [V10.D2], 16(R2)
	VST1.P [V11.D2], 16(R3)
	SUB  $2, R8, R8
	CBNZ R8, loop
	RET

// func neonAxpyRe(dstRe, dstIm, srcRe, srcIm *float64, n int, cr float64)
// The accumulator is the destination itself, so no VEOR is needed.
TEXT ·neonAxpyRe(SB), NOSPLIT, $0-48
	MOVD  dstRe+0(FP), R0
	MOVD  dstIm+8(FP), R1
	MOVD  srcRe+16(FP), R2
	MOVD  srcIm+24(FP), R3
	MOVD  n+32(FP), R8
	FMOVD cr+40(FP), F0
	VDUP  V0.D[0], V0.D2
loop:
	VLD1.P 16(R2), [V1.D2] // s
	VLD1.P 16(R3), [V2.D2] // t
	VLD1 (R0), [V3.D2]
	VLD1 (R1), [V4.D2]
	VFMLA V0.D2, V1.D2, V3.D2 // dstRe += cr·s
	VFMLA V0.D2, V2.D2, V4.D2 // dstIm += cr·t
	VST1.P [V3.D2], 16(R0)
	VST1.P [V4.D2], 16(R1)
	SUB  $2, R8, R8
	CBNZ R8, loop
	RET

// func neonAxpyCx(dstRe, dstIm, srcRe, srcIm *float64, n int, cr, ci float64)
TEXT ·neonAxpyCx(SB), NOSPLIT, $0-56
	MOVD  dstRe+0(FP), R0
	MOVD  dstIm+8(FP), R1
	MOVD  srcRe+16(FP), R2
	MOVD  srcIm+24(FP), R3
	MOVD  n+32(FP), R8
	FMOVD cr+40(FP), F0
	FMOVD ci+48(FP), F1
	VDUP  V0.D[0], V0.D2
	VDUP  V1.D[0], V1.D2
loop:
	VLD1.P 16(R2), [V2.D2] // s
	VLD1.P 16(R3), [V3.D2] // t
	VLD1 (R0), [V4.D2]
	VLD1 (R1), [V5.D2]
	VFMLA V0.D2, V2.D2, V4.D2 // dstRe += cr·s
	VFMLS V1.D2, V3.D2, V4.D2 // dstRe −= ci·t
	VFMLA V0.D2, V3.D2, V5.D2 // dstIm += cr·t
	VFMLA V1.D2, V2.D2, V5.D2 // dstIm += ci·s
	VST1.P [V4.D2], 16(R0)
	VST1.P [V5.D2], 16(R1)
	SUB  $2, R8, R8
	CBNZ R8, loop
	RET

// func neonRot2x2Re(xr, xi, yr, yi *float64, n int, ar, br, cr, dr float64)
TEXT ·neonRot2x2Re(SB), NOSPLIT, $0-72
	MOVD  xr+0(FP), R0
	MOVD  xi+8(FP), R1
	MOVD  yr+16(FP), R2
	MOVD  yi+24(FP), R3
	MOVD  n+32(FP), R8
	FMOVD ar+40(FP), F0
	FMOVD br+48(FP), F1
	FMOVD cr+56(FP), F2
	FMOVD dr+64(FP), F3
	VDUP  V0.D[0], V0.D2
	VDUP  V1.D[0], V1.D2
	VDUP  V2.D[0], V2.D2
	VDUP  V3.D[0], V3.D2
loop:
	VLD1 (R0), [V4.D2] // x
	VLD1 (R1), [V5.D2] // xm
	VLD1 (R2), [V6.D2] // y
	VLD1 (R3), [V7.D2] // ym
	VEOR  V8.B16, V8.B16, V8.B16
	VFMLA V0.D2, V4.D2, V8.D2 // ar·x
	VFMLA V1.D2, V6.D2, V8.D2 // + br·y
	VEOR  V9.B16, V9.B16, V9.B16
	VFMLA V0.D2, V5.D2, V9.D2 // ar·xm
	VFMLA V1.D2, V7.D2, V9.D2 // + br·ym
	VEOR  V10.B16, V10.B16, V10.B16
	VFMLA V2.D2, V4.D2, V10.D2 // cr·x
	VFMLA V3.D2, V6.D2, V10.D2 // + dr·y
	VEOR  V11.B16, V11.B16, V11.B16
	VFMLA V2.D2, V5.D2, V11.D2 // cr·xm
	VFMLA V3.D2, V7.D2, V11.D2 // + dr·ym
	VST1.P [V8.D2], 16(R0)
	VST1.P [V9.D2], 16(R1)
	VST1.P [V10.D2], 16(R2)
	VST1.P [V11.D2], 16(R3)
	SUB  $2, R8, R8
	CBNZ R8, loop
	RET

// func neonRot2x2Cx(xr, xi, yr, yi *float64, n int, ar, ai, br, bi, cr, ci, dr, di float64)
TEXT ·neonRot2x2Cx(SB), NOSPLIT, $0-104
	MOVD  xr+0(FP), R0
	MOVD  xi+8(FP), R1
	MOVD  yr+16(FP), R2
	MOVD  yi+24(FP), R3
	MOVD  n+32(FP), R8
	FMOVD ar+40(FP), F0
	FMOVD ai+48(FP), F1
	FMOVD br+56(FP), F2
	FMOVD bi+64(FP), F3
	FMOVD cr+72(FP), F4
	FMOVD ci+80(FP), F5
	FMOVD dr+88(FP), F6
	FMOVD di+96(FP), F7
	VDUP  V0.D[0], V0.D2
	VDUP  V1.D[0], V1.D2
	VDUP  V2.D[0], V2.D2
	VDUP  V3.D[0], V3.D2
	VDUP  V4.D[0], V4.D2
	VDUP  V5.D[0], V5.D2
	VDUP  V6.D[0], V6.D2
	VDUP  V7.D[0], V7.D2
loop:
	VLD1 (R0), [V8.D2]  // x
	VLD1 (R1), [V9.D2]  // xm
	VLD1 (R2), [V10.D2] // y
	VLD1 (R3), [V11.D2] // ym
	VEOR  V12.B16, V12.B16, V12.B16
	VFMLA V0.D2, V8.D2, V12.D2  // ar·x
	VFMLS V1.D2, V9.D2, V12.D2  // − ai·xm
	VFMLA V2.D2, V10.D2, V12.D2 // + br·y
	VFMLS V3.D2, V11.D2, V12.D2 // − bi·ym
	VEOR  V13.B16, V13.B16, V13.B16
	VFMLA V0.D2, V9.D2, V13.D2  // ar·xm
	VFMLA V1.D2, V8.D2, V13.D2  // + ai·x
	VFMLA V2.D2, V11.D2, V13.D2 // + br·ym
	VFMLA V3.D2, V10.D2, V13.D2 // + bi·y
	VEOR  V14.B16, V14.B16, V14.B16
	VFMLA V4.D2, V8.D2, V14.D2  // cr·x
	VFMLS V5.D2, V9.D2, V14.D2  // − ci·xm
	VFMLA V6.D2, V10.D2, V14.D2 // + dr·y
	VFMLS V7.D2, V11.D2, V14.D2 // − di·ym
	VEOR  V15.B16, V15.B16, V15.B16
	VFMLA V4.D2, V9.D2, V15.D2  // cr·xm
	VFMLA V5.D2, V8.D2, V15.D2  // + ci·x
	VFMLA V6.D2, V11.D2, V15.D2 // + dr·ym
	VFMLA V7.D2, V10.D2, V15.D2 // + di·y
	VST1.P [V12.D2], 16(R0)
	VST1.P [V13.D2], 16(R1)
	VST1.P [V14.D2], 16(R2)
	VST1.P [V15.D2], 16(R3)
	SUB  $2, R8, R8
	CBNZ R8, loop
	RET

// func neonRot4x4N(x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i *float64, n int, m *complex128)
// Coefficients are re-broadcast from m (row-major, interleaved re/im) every
// iteration row; the eight input vectors V0–V7 stay live across all four
// rows, so each output row stores (and post-increments its pointers)
// immediately after its accumulation completes.
TEXT ·neonRot4x4N(SB), NOSPLIT, $0-80
	MOVD x0r+0(FP), R0
	MOVD x0i+8(FP), R1
	MOVD x1r+16(FP), R2
	MOVD x1i+24(FP), R3
	MOVD x2r+32(FP), R4
	MOVD x2i+40(FP), R5
	MOVD x3r+48(FP), R6
	MOVD x3i+56(FP), R7
	MOVD n+64(FP), R8
	MOVD m+72(FP), R9
loop:
	VLD1 (R0), [V0.D2] // x0 re
	VLD1 (R1), [V1.D2] // x0 im
	VLD1 (R2), [V2.D2] // x1 re
	VLD1 (R3), [V3.D2] // x1 im
	VLD1 (R4), [V4.D2] // x2 re
	VLD1 (R5), [V5.D2] // x2 im
	VLD1 (R6), [V6.D2] // x3 re
	VLD1 (R7), [V7.D2] // x3 im

	// row 0
	FMOVD 0(R9), F10
	FMOVD 8(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VEOR  V8.B16, V8.B16, V8.B16
	VEOR  V9.B16, V9.B16, V9.B16
	VFMLA V10.D2, V0.D2, V8.D2
	VFMLS V11.D2, V1.D2, V8.D2
	VFMLA V10.D2, V1.D2, V9.D2
	VFMLA V11.D2, V0.D2, V9.D2
	FMOVD 16(R9), F10
	FMOVD 24(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VFMLA V10.D2, V2.D2, V8.D2
	VFMLS V11.D2, V3.D2, V8.D2
	VFMLA V10.D2, V3.D2, V9.D2
	VFMLA V11.D2, V2.D2, V9.D2
	FMOVD 32(R9), F10
	FMOVD 40(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VFMLA V10.D2, V4.D2, V8.D2
	VFMLS V11.D2, V5.D2, V8.D2
	VFMLA V10.D2, V5.D2, V9.D2
	VFMLA V11.D2, V4.D2, V9.D2
	FMOVD 48(R9), F10
	FMOVD 56(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VFMLA V10.D2, V6.D2, V8.D2
	VFMLS V11.D2, V7.D2, V8.D2
	VFMLA V10.D2, V7.D2, V9.D2
	VFMLA V11.D2, V6.D2, V9.D2
	VST1.P [V8.D2], 16(R0)
	VST1.P [V9.D2], 16(R1)

	// row 1
	FMOVD 64(R9), F10
	FMOVD 72(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VEOR  V8.B16, V8.B16, V8.B16
	VEOR  V9.B16, V9.B16, V9.B16
	VFMLA V10.D2, V0.D2, V8.D2
	VFMLS V11.D2, V1.D2, V8.D2
	VFMLA V10.D2, V1.D2, V9.D2
	VFMLA V11.D2, V0.D2, V9.D2
	FMOVD 80(R9), F10
	FMOVD 88(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VFMLA V10.D2, V2.D2, V8.D2
	VFMLS V11.D2, V3.D2, V8.D2
	VFMLA V10.D2, V3.D2, V9.D2
	VFMLA V11.D2, V2.D2, V9.D2
	FMOVD 96(R9), F10
	FMOVD 104(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VFMLA V10.D2, V4.D2, V8.D2
	VFMLS V11.D2, V5.D2, V8.D2
	VFMLA V10.D2, V5.D2, V9.D2
	VFMLA V11.D2, V4.D2, V9.D2
	FMOVD 112(R9), F10
	FMOVD 120(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VFMLA V10.D2, V6.D2, V8.D2
	VFMLS V11.D2, V7.D2, V8.D2
	VFMLA V10.D2, V7.D2, V9.D2
	VFMLA V11.D2, V6.D2, V9.D2
	VST1.P [V8.D2], 16(R2)
	VST1.P [V9.D2], 16(R3)

	// row 2
	FMOVD 128(R9), F10
	FMOVD 136(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VEOR  V8.B16, V8.B16, V8.B16
	VEOR  V9.B16, V9.B16, V9.B16
	VFMLA V10.D2, V0.D2, V8.D2
	VFMLS V11.D2, V1.D2, V8.D2
	VFMLA V10.D2, V1.D2, V9.D2
	VFMLA V11.D2, V0.D2, V9.D2
	FMOVD 144(R9), F10
	FMOVD 152(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VFMLA V10.D2, V2.D2, V8.D2
	VFMLS V11.D2, V3.D2, V8.D2
	VFMLA V10.D2, V3.D2, V9.D2
	VFMLA V11.D2, V2.D2, V9.D2
	FMOVD 160(R9), F10
	FMOVD 168(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VFMLA V10.D2, V4.D2, V8.D2
	VFMLS V11.D2, V5.D2, V8.D2
	VFMLA V10.D2, V5.D2, V9.D2
	VFMLA V11.D2, V4.D2, V9.D2
	FMOVD 176(R9), F10
	FMOVD 184(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VFMLA V10.D2, V6.D2, V8.D2
	VFMLS V11.D2, V7.D2, V8.D2
	VFMLA V10.D2, V7.D2, V9.D2
	VFMLA V11.D2, V6.D2, V9.D2
	VST1.P [V8.D2], 16(R4)
	VST1.P [V9.D2], 16(R5)

	// row 3
	FMOVD 192(R9), F10
	FMOVD 200(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VEOR  V8.B16, V8.B16, V8.B16
	VEOR  V9.B16, V9.B16, V9.B16
	VFMLA V10.D2, V0.D2, V8.D2
	VFMLS V11.D2, V1.D2, V8.D2
	VFMLA V10.D2, V1.D2, V9.D2
	VFMLA V11.D2, V0.D2, V9.D2
	FMOVD 208(R9), F10
	FMOVD 216(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VFMLA V10.D2, V2.D2, V8.D2
	VFMLS V11.D2, V3.D2, V8.D2
	VFMLA V10.D2, V3.D2, V9.D2
	VFMLA V11.D2, V2.D2, V9.D2
	FMOVD 224(R9), F10
	FMOVD 232(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VFMLA V10.D2, V4.D2, V8.D2
	VFMLS V11.D2, V5.D2, V8.D2
	VFMLA V10.D2, V5.D2, V9.D2
	VFMLA V11.D2, V4.D2, V9.D2
	FMOVD 240(R9), F10
	FMOVD 248(R9), F11
	VDUP  V10.D[0], V10.D2
	VDUP  V11.D[0], V11.D2
	VFMLA V10.D2, V6.D2, V8.D2
	VFMLS V11.D2, V7.D2, V8.D2
	VFMLA V10.D2, V7.D2, V9.D2
	VFMLA V11.D2, V6.D2, V9.D2
	VST1.P [V8.D2], 16(R6)
	VST1.P [V9.D2], 16(R7)

	SUB  $2, R8, R8
	CBNZ R8, loop
	RET

// --- interleaved low-qubit 1q kernels ---------------------------------------
//
// Qubits 0 and 1 never produce runs long enough for the span bodies above, so
// these kernels vectorize the pair structure itself over 4 float64 per plane
// per iteration (2 amplitude pairs); n > 0 and n%4 == 0, wrappers peel the
// rest. For q=0 the x/y halves alternate element-wise and are split with
// VUZP1/VUZP2 and rejoined with VZIP1/VZIP2; for q=1 each 4-element group is
// [x0 x1 y0 y1], so the two vector registers of a 32-byte load are already
// the x and y halves and no shuffle is needed.

// func neonRot1LoQ0Re(p *float64, n int, ar, br, cr, dr float64)
// Real 1q rotation on qubit 0 over one plane (planes are independent when
// every coefficient is real): x' = ar·x + br·y, y' = cr·x + dr·y.
TEXT ·neonRot1LoQ0Re(SB), NOSPLIT, $0-48
	MOVD  p+0(FP), R0
	MOVD  n+8(FP), R8
	FMOVD ar+16(FP), F0
	FMOVD br+24(FP), F1
	FMOVD cr+32(FP), F2
	FMOVD dr+40(FP), F3
	VDUP  V0.D[0], V0.D2
	VDUP  V1.D[0], V1.D2
	VDUP  V2.D[0], V2.D2
	VDUP  V3.D[0], V3.D2
loop:
	VLD1  (R0), [V4.D2, V5.D2]
	VUZP1 V5.D2, V4.D2, V6.D2 // xs
	VUZP2 V5.D2, V4.D2, V7.D2 // ys
	VEOR  V16.B16, V16.B16, V16.B16
	VFMLA V0.D2, V6.D2, V16.D2 // ar·xs
	VFMLA V1.D2, V7.D2, V16.D2 // + br·ys
	VEOR  V17.B16, V17.B16, V17.B16
	VFMLA V2.D2, V6.D2, V17.D2 // cr·xs
	VFMLA V3.D2, V7.D2, V17.D2 // + dr·ys
	VZIP1 V17.D2, V16.D2, V4.D2
	VZIP2 V17.D2, V16.D2, V5.D2
	VST1.P [V4.D2, V5.D2], 32(R0)
	SUB  $4, R8, R8
	CBNZ R8, loop
	RET

// func neonRot1LoQ1Re(p *float64, n int, ar, br, cr, dr float64)
// As Q0Re for qubit 1: the two registers of each load are the halves.
TEXT ·neonRot1LoQ1Re(SB), NOSPLIT, $0-48
	MOVD  p+0(FP), R0
	MOVD  n+8(FP), R8
	FMOVD ar+16(FP), F0
	FMOVD br+24(FP), F1
	FMOVD cr+32(FP), F2
	FMOVD dr+40(FP), F3
	VDUP  V0.D[0], V0.D2
	VDUP  V1.D[0], V1.D2
	VDUP  V2.D[0], V2.D2
	VDUP  V3.D[0], V3.D2
loop:
	VLD1  (R0), [V4.D2, V5.D2] // xs, ys
	VEOR  V16.B16, V16.B16, V16.B16
	VFMLA V0.D2, V4.D2, V16.D2 // ar·xs
	VFMLA V1.D2, V5.D2, V16.D2 // + br·ys
	VEOR  V17.B16, V17.B16, V17.B16
	VFMLA V2.D2, V4.D2, V17.D2 // cr·xs
	VFMLA V3.D2, V5.D2, V17.D2 // + dr·ys
	VST1.P [V16.D2, V17.D2], 32(R0)
	SUB  $4, R8, R8
	CBNZ R8, loop
	RET

// func neonRot1LoQ0Cx(re, im *float64, n int, ar, ai, br, bi, cr, ci, dr, di float64)
// Complex 1q rotation on qubit 0: full rot2x2 arithmetic on deinterleaved
// pairs of both planes.
TEXT ·neonRot1LoQ0Cx(SB), NOSPLIT, $0-88
	MOVD  re+0(FP), R0
	MOVD  im+8(FP), R1
	MOVD  n+16(FP), R8
	FMOVD ar+24(FP), F0
	FMOVD ai+32(FP), F1
	FMOVD br+40(FP), F2
	FMOVD bi+48(FP), F3
	FMOVD cr+56(FP), F4
	FMOVD ci+64(FP), F5
	FMOVD dr+72(FP), F6
	FMOVD di+80(FP), F7
	VDUP  V0.D[0], V0.D2
	VDUP  V1.D[0], V1.D2
	VDUP  V2.D[0], V2.D2
	VDUP  V3.D[0], V3.D2
	VDUP  V4.D[0], V4.D2
	VDUP  V5.D[0], V5.D2
	VDUP  V6.D[0], V6.D2
	VDUP  V7.D[0], V7.D2
loop:
	VLD1  (R0), [V8.D2, V9.D2]
	VLD1  (R1), [V10.D2, V11.D2]
	VUZP1 V9.D2, V8.D2, V12.D2   // xr
	VUZP2 V9.D2, V8.D2, V13.D2   // yr
	VUZP1 V11.D2, V10.D2, V14.D2 // xm
	VUZP2 V11.D2, V10.D2, V15.D2 // ym
	VEOR  V16.B16, V16.B16, V16.B16
	VFMLA V0.D2, V12.D2, V16.D2 // nxr = ar·xr
	VFMLS V1.D2, V14.D2, V16.D2 // − ai·xm
	VFMLA V2.D2, V13.D2, V16.D2 // + br·yr
	VFMLS V3.D2, V15.D2, V16.D2 // − bi·ym
	VEOR  V17.B16, V17.B16, V17.B16
	VFMLA V4.D2, V12.D2, V17.D2 // nyr = cr·xr
	VFMLS V5.D2, V14.D2, V17.D2 // − ci·xm
	VFMLA V6.D2, V13.D2, V17.D2 // + dr·yr
	VFMLS V7.D2, V15.D2, V17.D2 // − di·ym
	VEOR  V18.B16, V18.B16, V18.B16
	VFMLA V0.D2, V14.D2, V18.D2 // nxi = ar·xm
	VFMLA V1.D2, V12.D2, V18.D2 // + ai·xr
	VFMLA V2.D2, V15.D2, V18.D2 // + br·ym
	VFMLA V3.D2, V13.D2, V18.D2 // + bi·yr
	VEOR  V19.B16, V19.B16, V19.B16
	VFMLA V4.D2, V14.D2, V19.D2 // nyi = cr·xm
	VFMLA V5.D2, V12.D2, V19.D2 // + ci·xr
	VFMLA V6.D2, V15.D2, V19.D2 // + dr·ym
	VFMLA V7.D2, V13.D2, V19.D2 // + di·yr
	VZIP1 V17.D2, V16.D2, V8.D2
	VZIP2 V17.D2, V16.D2, V9.D2
	VZIP1 V19.D2, V18.D2, V10.D2
	VZIP2 V19.D2, V18.D2, V11.D2
	VST1.P [V8.D2, V9.D2], 32(R0)
	VST1.P [V10.D2, V11.D2], 32(R1)
	SUB  $4, R8, R8
	CBNZ R8, loop
	RET

// func neonRot1LoQ1Cx(re, im *float64, n int, ar, ai, br, bi, cr, ci, dr, di float64)
// As Q0Cx for qubit 1 (no shuffles needed).
TEXT ·neonRot1LoQ1Cx(SB), NOSPLIT, $0-88
	MOVD  re+0(FP), R0
	MOVD  im+8(FP), R1
	MOVD  n+16(FP), R8
	FMOVD ar+24(FP), F0
	FMOVD ai+32(FP), F1
	FMOVD br+40(FP), F2
	FMOVD bi+48(FP), F3
	FMOVD cr+56(FP), F4
	FMOVD ci+64(FP), F5
	FMOVD dr+72(FP), F6
	FMOVD di+80(FP), F7
	VDUP  V0.D[0], V0.D2
	VDUP  V1.D[0], V1.D2
	VDUP  V2.D[0], V2.D2
	VDUP  V3.D[0], V3.D2
	VDUP  V4.D[0], V4.D2
	VDUP  V5.D[0], V5.D2
	VDUP  V6.D[0], V6.D2
	VDUP  V7.D[0], V7.D2
loop:
	VLD1  (R0), [V12.D2, V13.D2] // xr, yr
	VLD1  (R1), [V14.D2, V15.D2] // xm, ym
	VEOR  V16.B16, V16.B16, V16.B16
	VFMLA V0.D2, V12.D2, V16.D2 // nxr
	VFMLS V1.D2, V14.D2, V16.D2
	VFMLA V2.D2, V13.D2, V16.D2
	VFMLS V3.D2, V15.D2, V16.D2
	VEOR  V17.B16, V17.B16, V17.B16
	VFMLA V4.D2, V12.D2, V17.D2 // nyr
	VFMLS V5.D2, V14.D2, V17.D2
	VFMLA V6.D2, V13.D2, V17.D2
	VFMLS V7.D2, V15.D2, V17.D2
	VEOR  V18.B16, V18.B16, V18.B16
	VFMLA V0.D2, V14.D2, V18.D2 // nxi
	VFMLA V1.D2, V12.D2, V18.D2
	VFMLA V2.D2, V15.D2, V18.D2
	VFMLA V3.D2, V13.D2, V18.D2
	VEOR  V19.B16, V19.B16, V19.B16
	VFMLA V4.D2, V14.D2, V19.D2 // nyi
	VFMLA V5.D2, V12.D2, V19.D2
	VFMLA V6.D2, V15.D2, V19.D2
	VFMLA V7.D2, V13.D2, V19.D2
	VST1.P [V16.D2, V17.D2], 32(R0)
	VST1.P [V18.D2, V19.D2], 32(R1)
	SUB  $4, R8, R8
	CBNZ R8, loop
	RET

// func neonDiag1LoQ0(re, im *float64, n int, ar, ai, dr, di float64)
// diag(a, d) on qubit 0: x *= a, y *= d on deinterleaved pairs.
TEXT ·neonDiag1LoQ0(SB), NOSPLIT, $0-56
	MOVD  re+0(FP), R0
	MOVD  im+8(FP), R1
	MOVD  n+16(FP), R8
	FMOVD ar+24(FP), F0
	FMOVD ai+32(FP), F1
	FMOVD dr+40(FP), F2
	FMOVD di+48(FP), F3
	VDUP  V0.D[0], V0.D2
	VDUP  V1.D[0], V1.D2
	VDUP  V2.D[0], V2.D2
	VDUP  V3.D[0], V3.D2
loop:
	VLD1  (R0), [V8.D2, V9.D2]
	VLD1  (R1), [V10.D2, V11.D2]
	VUZP1 V9.D2, V8.D2, V12.D2   // xr
	VUZP2 V9.D2, V8.D2, V13.D2   // yr
	VUZP1 V11.D2, V10.D2, V14.D2 // xm
	VUZP2 V11.D2, V10.D2, V15.D2 // ym
	VEOR  V16.B16, V16.B16, V16.B16
	VFMLA V0.D2, V12.D2, V16.D2 // ar·xr
	VFMLS V1.D2, V14.D2, V16.D2 // − ai·xm
	VEOR  V17.B16, V17.B16, V17.B16
	VFMLA V2.D2, V13.D2, V17.D2 // dr·yr
	VFMLS V3.D2, V15.D2, V17.D2 // − di·ym
	VEOR  V18.B16, V18.B16, V18.B16
	VFMLA V0.D2, V14.D2, V18.D2 // ar·xm
	VFMLA V1.D2, V12.D2, V18.D2 // + ai·xr
	VEOR  V19.B16, V19.B16, V19.B16
	VFMLA V2.D2, V15.D2, V19.D2 // dr·ym
	VFMLA V3.D2, V13.D2, V19.D2 // + di·yr
	VZIP1 V17.D2, V16.D2, V8.D2
	VZIP2 V17.D2, V16.D2, V9.D2
	VZIP1 V19.D2, V18.D2, V10.D2
	VZIP2 V19.D2, V18.D2, V11.D2
	VST1.P [V8.D2, V9.D2], 32(R0)
	VST1.P [V10.D2, V11.D2], 32(R1)
	SUB  $4, R8, R8
	CBNZ R8, loop
	RET

// func neonDiag1LoQ1(re, im *float64, n int, ar, ai, dr, di float64)
// As Diag1LoQ0 for qubit 1 (no shuffles needed).
TEXT ·neonDiag1LoQ1(SB), NOSPLIT, $0-56
	MOVD  re+0(FP), R0
	MOVD  im+8(FP), R1
	MOVD  n+16(FP), R8
	FMOVD ar+24(FP), F0
	FMOVD ai+32(FP), F1
	FMOVD dr+40(FP), F2
	FMOVD di+48(FP), F3
	VDUP  V0.D[0], V0.D2
	VDUP  V1.D[0], V1.D2
	VDUP  V2.D[0], V2.D2
	VDUP  V3.D[0], V3.D2
loop:
	VLD1  (R0), [V12.D2, V13.D2] // xr, yr
	VLD1  (R1), [V14.D2, V15.D2] // xm, ym
	VEOR  V16.B16, V16.B16, V16.B16
	VFMLA V0.D2, V12.D2, V16.D2 // ar·xr
	VFMLS V1.D2, V14.D2, V16.D2 // − ai·xm
	VEOR  V17.B16, V17.B16, V17.B16
	VFMLA V2.D2, V13.D2, V17.D2 // dr·yr
	VFMLS V3.D2, V15.D2, V17.D2 // − di·ym
	VEOR  V18.B16, V18.B16, V18.B16
	VFMLA V0.D2, V14.D2, V18.D2 // ar·xm
	VFMLA V1.D2, V12.D2, V18.D2 // + ai·xr
	VEOR  V19.B16, V19.B16, V19.B16
	VFMLA V2.D2, V15.D2, V19.D2 // dr·ym
	VFMLA V3.D2, V13.D2, V19.D2 // + di·yr
	VST1.P [V16.D2, V17.D2], 32(R0)
	VST1.P [V18.D2, V19.D2], 32(R1)
	SUB  $4, R8, R8
	CBNZ R8, loop
	RET

// func neonFoldN(accRe, accIm *float64, stride, n int, lo *[8]Vector, c *[8][4][2]float64, k int)
// Register-blocked leaf fold: acc row r += Σ_k c[k][r] · lo[k][:n] for the 4
// rows at accRe/accIm, stride elements apart; n > 0 and n%4 == 0. Four
// columns of all four rows (V0–V15, two vectors per plane and row) stay in
// registers while the k > 0 leaves are applied in table order: per leaf, four
// lower-half loads and eight coefficient broadcasts feed thirty-two FMLA/FMLS,
// in neonAxpyCx's per-element sequence. lo is the table's [8]Vector: leaf k's
// Re data pointer is at 48k and its Im data pointer at 48k+24.
TEXT ·neonFoldN(SB), NOSPLIT, $0-56
	MOVD accRe+0(FP), R0
	MOVD accIm+8(FP), R1
	MOVD stride+16(FP), R2
	LSL  $3, R2, R2 // row stride in bytes
	ADD  R2, R0, R3 // row 1
	ADD  R2, R1, R4
	ADD  R2, R3, R5 // row 2
	ADD  R2, R4, R6
	ADD  R2, R5, R7 // row 3
	ADD  R2, R6, R8
	MOVD n+24(FP), R9
	MOVD lo+32(FP), R10
	MOVD c+40(FP), R11
	MOVD k+48(FP), R12
	MOVD $48, R13
	MUL  R13, R12, R12
	ADD  R10, R12, R12 // end of the held leaves
	MOVD ZR, R13       // lower-half byte offset
col:
	VLD1 (R0), [V0.D2, V1.D2]   // row 0 re
	VLD1 (R1), [V2.D2, V3.D2]   // row 0 im
	VLD1 (R3), [V4.D2, V5.D2]   // row 1
	VLD1 (R4), [V6.D2, V7.D2]
	VLD1 (R5), [V8.D2, V9.D2]   // row 2
	VLD1 (R6), [V10.D2, V11.D2]
	VLD1 (R7), [V12.D2, V13.D2] // row 3
	VLD1 (R8), [V14.D2, V15.D2]
	MOVD R10, R14
	MOVD R11, R15
leaf:
	MOVD (R14), R19
	MOVD 24(R14), R20
	ADD  R13, R19, R19
	ADD  R13, R20, R20
	VLD1 (R19), [V16.D2, V17.D2] // s
	VLD1 (R20), [V18.D2, V19.D2] // t
	FMOVD 0(R15), F20 // row 0: cr, ci
	FMOVD 8(R15), F21
	VDUP  V20.D[0], V20.D2
	VDUP  V21.D[0], V21.D2
	VFMLA V20.D2, V16.D2, V0.D2 // re += cr·s
	VFMLA V20.D2, V17.D2, V1.D2
	VFMLS V21.D2, V18.D2, V0.D2 // re −= ci·t
	VFMLS V21.D2, V19.D2, V1.D2
	VFMLA V20.D2, V18.D2, V2.D2 // im += cr·t
	VFMLA V20.D2, V19.D2, V3.D2
	VFMLA V21.D2, V16.D2, V2.D2 // im += ci·s
	VFMLA V21.D2, V17.D2, V3.D2
	FMOVD 16(R15), F22
	FMOVD 24(R15), F23
	VDUP  V22.D[0], V22.D2
	VDUP  V23.D[0], V23.D2
	VFMLA V22.D2, V16.D2, V4.D2
	VFMLA V22.D2, V17.D2, V5.D2
	VFMLS V23.D2, V18.D2, V4.D2
	VFMLS V23.D2, V19.D2, V5.D2
	VFMLA V22.D2, V18.D2, V6.D2
	VFMLA V22.D2, V19.D2, V7.D2
	VFMLA V23.D2, V16.D2, V6.D2
	VFMLA V23.D2, V17.D2, V7.D2
	FMOVD 32(R15), F24
	FMOVD 40(R15), F25
	VDUP  V24.D[0], V24.D2
	VDUP  V25.D[0], V25.D2
	VFMLA V24.D2, V16.D2, V8.D2
	VFMLA V24.D2, V17.D2, V9.D2
	VFMLS V25.D2, V18.D2, V8.D2
	VFMLS V25.D2, V19.D2, V9.D2
	VFMLA V24.D2, V18.D2, V10.D2
	VFMLA V24.D2, V19.D2, V11.D2
	VFMLA V25.D2, V16.D2, V10.D2
	VFMLA V25.D2, V17.D2, V11.D2
	FMOVD 48(R15), F26
	FMOVD 56(R15), F27
	VDUP  V26.D[0], V26.D2
	VDUP  V27.D[0], V27.D2
	VFMLA V26.D2, V16.D2, V12.D2
	VFMLA V26.D2, V17.D2, V13.D2
	VFMLS V27.D2, V18.D2, V12.D2
	VFMLS V27.D2, V19.D2, V13.D2
	VFMLA V26.D2, V18.D2, V14.D2
	VFMLA V26.D2, V19.D2, V15.D2
	VFMLA V27.D2, V16.D2, V14.D2
	VFMLA V27.D2, V17.D2, V15.D2
	ADD  $48, R14
	ADD  $64, R15
	CMP  R12, R14
	BLO  leaf
	VST1.P [V0.D2, V1.D2], 32(R0)
	VST1.P [V2.D2, V3.D2], 32(R1)
	VST1.P [V4.D2, V5.D2], 32(R3)
	VST1.P [V6.D2, V7.D2], 32(R4)
	VST1.P [V8.D2, V9.D2], 32(R5)
	VST1.P [V10.D2, V11.D2], 32(R6)
	VST1.P [V12.D2, V13.D2], 32(R7)
	VST1.P [V14.D2, V15.D2], 32(R8)
	ADD  $32, R13
	SUB  $4, R9, R9
	CBNZ R9, col
	RET
