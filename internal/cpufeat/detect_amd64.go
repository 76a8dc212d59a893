//go:build !purego

package cpufeat

// cpuid executes the CPUID instruction with the given EAX/ECX inputs.
// Implemented in cpuid_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0). Only valid when CPUID
// reports OSXSAVE; the caller checks first.
func xgetbv() (eax, edx uint32)

const (
	leaf1FMA     = 1 << 12 // CPUID.01H:ECX.FMA
	leaf1OSXSAVE = 1 << 27 // CPUID.01H:ECX.OSXSAVE
	leaf1AVX     = 1 << 28 // CPUID.01H:ECX.AVX
	leaf7AVX2    = 1 << 5  // CPUID.07H.0:EBX.AVX2
	leaf7AVX512F = 1 << 16 // CPUID.07H.0:EBX.AVX512F
	xcr0SSE      = 1 << 1  // XCR0: XMM state enabled by the OS
	xcr0AVX      = 1 << 2  // XCR0: YMM state enabled by the OS
	xcr0AVX512   = 7 << 5  // XCR0: opmask, ZMM_Hi256 and Hi16_ZMM state
)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)

	// YMM and ZMM registers are usable only when the OS opted into saving
	// them.
	var xcr0 uint32
	if ecx1&leaf1OSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	if xcr0&(xcr0SSE|xcr0AVX) != xcr0SSE|xcr0AVX || ecx1&leaf1AVX == 0 {
		return
	}
	X86.HasFMA = ecx1&leaf1FMA != 0
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		X86.HasAVX2 = ebx7&leaf7AVX2 != 0
		X86.HasAVX512F = ebx7&leaf7AVX512F != 0 && xcr0&xcr0AVX512 == xcr0AVX512 &&
			X86.HasAVX2 && X86.HasFMA
	}
}
