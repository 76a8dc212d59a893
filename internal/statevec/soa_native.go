//go:build !purego

package statevec

import "unsafe"

// Default build: candidate arms are the architecture's assembly arm (when
// the CPU feature probe admits it — see soa_amd64.go / soa_arm64.go), the
// unrolled-Go span arm, and the scalar reference arm, best-first. Plane
// allocation is 64-byte aligned so the contiguous runs the kernels hand to
// the table start on cache-line (and full-register) boundaries.

// nativeSpanMin is the run length at which span dispatch beats the inlined
// scalar loop: below it, the call through the function pointer costs more
// than the unrolling saves.
const nativeSpanMin = 8

func buildArms() []kernelOps {
	return append(archArms(), spanArm(), scalarArm())
}

// spanArm is the portable unrolled-Go arm: the fallback when the CPU lacks
// the assembly arm's extensions, and the baseline the per-arm benchmarks
// compare the assembly against.
func spanArm() kernelOps {
	return kernelOps{
		name:    "span",
		spanMin: nativeSpanMin,
		scale:   spanScale,
		rot2x2:  spanRot2x2,
		swap:    spanSwap,
		cross:   spanCross,
		axpy:    spanAxpy,
		rot4x4:  spanRot4x4,
	}
}

// alignedFloats returns a zeroed n-element slice whose first element sits on
// a 64-byte boundary. It over-allocates by one cache line and re-slices; the
// returned slice points into the padded array, which keeps it live.
func alignedFloats(n int) []float64 {
	if n == 0 {
		return []float64{}
	}
	const line = 64
	buf := make([]float64, n+line/8)
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	off := 0
	if rem := addr % line; rem != 0 {
		off = int((line - rem) / 8)
	}
	return buf[off : off+n : off+n]
}
