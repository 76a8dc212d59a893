package hsfsim_test

import (
	"math/rand"
	"testing"

	"hsfsim"
	"hsfsim/internal/qaoa"
)

// TestIntegrationInstanceFamily runs the full joint-HSF workflow on every
// scaled Table II instance, cross-checking against Schrödinger simulation
// on a partial-amplitude window — an end-to-end regression over the exact
// workloads the benchmarks measure. Skipped in -short runs.
func TestIntegrationInstanceFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: skipped in -short mode")
	}
	const maxAmps = 1 << 12
	for _, spec := range qaoa.ScaledInstances() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Generate(qaoa.SingleLayer())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := hsfsim.Simulate(inst.Circuit, hsfsim.Options{
				Method: hsfsim.Schrodinger, MaxAmplitudes: maxAmps,
			})
			if err != nil {
				t.Fatal(err)
			}
			jnt, err := hsfsim.Simulate(inst.Circuit, hsfsim.Options{
				Method: hsfsim.JointHSF, CutPos: spec.CutPos(), MaxAmplitudes: maxAmps,
			})
			if err != nil {
				t.Fatal(err)
			}
			if d := maxDiff(ref.Amplitudes, jnt.Amplitudes); d > 1e-8 {
				t.Fatalf("joint HSF diverges from Schrödinger by %g", d)
			}
			if jnt.NumBlocks == 0 {
				t.Fatal("no cascades on an SBM instance")
			}
			// The analysis must agree with the simulation stats.
			s, err := hsfsim.Analyze(inst.Circuit, spec.CutPos(), hsfsim.BlockCascade, 0)
			if err != nil {
				t.Fatal(err)
			}
			if s.NumPaths != jnt.NumPaths {
				t.Fatalf("Analyze reports %d paths, Simulate %d", s.NumPaths, jnt.NumPaths)
			}
		})
	}
}

// TestIntegrationRandomizedOptions fuzzes option combinations on one
// instance: every combination must agree with the reference amplitudes.
func TestIntegrationRandomizedOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: skipped in -short mode")
	}
	spec := qaoa.ScaledInstances()[0]
	inst, err := spec.Generate(qaoa.SingleLayer())
	if err != nil {
		t.Fatal(err)
	}
	const maxAmps = 1 << 10
	ref, err := hsfsim.Simulate(inst.Circuit, hsfsim.Options{
		Method: hsfsim.Schrodinger, MaxAmplitudes: maxAmps,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		opts := hsfsim.Options{
			Method:          hsfsim.JointHSF,
			CutPos:          spec.CutPos(),
			MaxAmplitudes:   maxAmps,
			Workers:         1 + rng.Intn(8),
			FusionMaxQubits: []int{-1, 0, 2, 4}[rng.Intn(4)],
			MaxBlockQubits:  []int{0, 4, 6}[rng.Intn(3)],
		}
		res, err := hsfsim.Simulate(inst.Circuit, opts)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, opts, err)
		}
		if d := maxDiff(ref.Amplitudes, res.Amplitudes); d > 1e-8 {
			t.Fatalf("trial %d (%+v): diverges by %g", trial, opts, d)
		}
	}
}
