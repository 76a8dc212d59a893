// Package cpufeat detects the CPU instruction-set extensions the statevector
// kernels can exploit, without importing anything outside the standard
// library (golang.org/x/sys/cpu is deliberately not a dependency: the repo
// vendors nothing, and the few bits the kernels care about fit in two CPUID
// leaves and one XGETBV).
//
// Detection runs once at package init. On amd64 it executes CPUID/XGETBV
// directly (see cpuid_amd64.s): an extension is reported only when the CPU
// implements it AND the OS has enabled the register state it needs (AVX
// requires OSXSAVE plus XCR0 XMM|YMM bits, AVX-512 additionally the opmask,
// ZMM_Hi256 and Hi16_ZMM bits, per the Intel SDM — a kernel that does not
// context-switch that state would corrupt it). On arm64, ASIMD (NEON) with
// double-precision lanes is ARMv8-A baseline, so it is reported
// unconditionally. Under -tags purego, and on every other architecture, all
// features read false — the portable arms never consult this package's
// results anyway.
package cpufeat

// X86 reports amd64 extensions usable by this process. All fields are false
// on other architectures and under -tags purego.
var X86 struct {
	// HasAVX2 is true when the CPU implements AVX2 and the OS saves and
	// restores YMM state (OSXSAVE set, XCR0 bits 1-2 enabled).
	HasAVX2 bool
	// HasFMA is true when the CPU implements FMA3. The AVX2 kernel arm
	// requires both HasAVX2 and HasFMA.
	HasFMA bool
	// HasAVX512F is true when the CPU implements AVX-512 Foundation and the
	// OS also saves the opmask and all 32 ZMM registers (XCR0 bits 5-7). It
	// implies HasAVX2 and HasFMA: the avx512 kernel arm extends the avx2 one.
	HasAVX512F bool
}

// ARM64 reports arm64 features usable by this process. All fields are false
// on other architectures and under -tags purego.
var ARM64 struct {
	// HasASIMD is true on every arm64 build: Advanced SIMD with 64-bit
	// float lanes is mandatory in ARMv8-A.
	HasASIMD bool
}
