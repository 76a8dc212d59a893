package fuse_test

import (
	"testing"

	"hsfsim"
	"hsfsim/internal/qaoa"
)

// The fusion-budget benchmark behind fuse.DefaultMaxQubits: 2-qubit clusters
// (span kernels) are the sweet spot; 3-qubit and larger clusters fall back to
// the general gather/scatter kernel, keep their diagonal gates out of the
// sweep's phase step, and lose to unfused application.
func benchBudget(b *testing.B, fq int) {
	spec := qaoa.ScaledInstances()[3] // q18-1
	inst, err := spec.Generate(qaoa.SingleLayer())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hsfsim.Simulate(inst.Circuit, hsfsim.Options{
			Method: hsfsim.Schrodinger, MaxAmplitudes: 1 << 14, FusionMaxQubits: fq,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFusionBudgetOff(b *testing.B)   { benchBudget(b, -1) }
func BenchmarkFusionBudgetTwo(b *testing.B)   { benchBudget(b, 2) }
func BenchmarkFusionBudgetThree(b *testing.B) { benchBudget(b, 3) }
func BenchmarkFusionBudgetFour(b *testing.B)  { benchBudget(b, 4) }
