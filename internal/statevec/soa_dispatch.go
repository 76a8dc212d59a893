package statevec

import (
	"fmt"
	"os"
	"strings"
)

// Runtime kernel-arm dispatch. The build selects a candidate set (purego:
// scalar only; default: the architecture's assembly arm when the CPU
// supports it, then the unrolled span arm, then scalar), and the best
// available arm is installed at startup. Two overrides force a weaker arm
// for per-arm testing and honest same-machine benchmarking:
//
//   - the HSFSIM_KERNEL_ISA environment variable, applied at package init
//     (the process dies with a clear message if the named arm is not
//     available — silently falling back would mislabel benchmark artifacts);
//   - SelectKernelISA, the programmatic equivalent (the per-arm parity
//     sweeps and benchmarks).
//
// Overrides can only choose among the compiled-in, CPU-supported arms: you
// can force avx512 down to avx2, span or scalar, never scalar up to avx2.

// EnvKernelISA names the environment variable that forces a kernel arm at
// startup: one of "scalar", "span", "avx2", "avx512", "neon" (subject to
// availability).
const EnvKernelISA = "HSFSIM_KERNEL_ISA"

// kernelISANames is every arm name any build knows, used to distinguish "not
// available here" from "no such arm" in override errors.
var kernelISANames = []string{"scalar", "span", "avx2", "avx512", "neon"}

// arms holds the available kernel arms, best-first. buildArms is supplied by
// the build-tag arms (soa_native.go / soa_purego.go); the per-architecture
// assembly candidates come from archArms.
var arms = buildArms()

func init() {
	ops = arms[0]
	if name := os.Getenv(EnvKernelISA); name != "" {
		if err := SelectKernelISA(name); err != nil {
			panic("statevec: " + EnvKernelISA + ": " + err.Error())
		}
	}
}

// KernelISAs lists the kernel arms available to this process, best-first.
// The first entry is what init installed absent an override.
func KernelISAs() []string {
	names := make([]string, len(arms))
	for i := range arms {
		names[i] = arms[i].name
	}
	return names
}

// SelectKernelISA installs the named kernel arm, replacing the current one.
// It errors (leaving the installed arm unchanged) when the arm is not
// compiled in or the CPU lacks it. Not safe to call concurrently with
// running kernels: switch arms at startup or between runs.
func SelectKernelISA(name string) error {
	for i := range arms {
		if arms[i].name == name {
			ops = arms[i]
			return nil
		}
	}
	avail := strings.Join(KernelISAs(), ", ")
	for _, known := range kernelISANames {
		if name == known {
			return fmt.Errorf("kernel ISA %q not available on this CPU/build (available: %s)", name, avail)
		}
	}
	return fmt.Errorf("unknown kernel ISA %q (available: %s)", name, avail)
}
