package cpufeat

import (
	"runtime"
	"testing"
)

// TestDetectionRan sanity-checks the init-time probe: it must not report an
// arch's features on a different arch, AVX-512F comes only with AVX2 and FMA
// (the avx512 kernel arm runs avx2 bodies for everything but the fold), and
// on arm64 ASIMD is baseline.
func TestDetectionRan(t *testing.T) {
	t.Logf("GOARCH=%s X86=%+v ARM64=%+v", runtime.GOARCH, X86, ARM64)
	if runtime.GOARCH != "amd64" && (X86.HasAVX2 || X86.HasFMA || X86.HasAVX512F) {
		t.Fatalf("x86 features reported on %s: %+v", runtime.GOARCH, X86)
	}
	if X86.HasAVX512F && !(X86.HasAVX2 && X86.HasFMA) {
		t.Fatalf("AVX-512F reported without AVX2 and FMA: %+v", X86)
	}
	if runtime.GOARCH != "arm64" && ARM64.HasASIMD {
		t.Fatalf("arm64 features reported on %s: %+v", runtime.GOARCH, ARM64)
	}
}
