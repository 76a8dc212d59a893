// Many-body dynamics: Trotterized time evolution of a transverse-field
// Ising chain, the deep-circuit application the paper points to via
// Richter's Schrödinger-Feynman work (Ref. [35]). The midpoint ZZ bond
// crosses the cut once per Trotter step, so standard HSF pays 2^steps
// paths. This example also demonstrates the limitation the paper's
// conclusion names: the transverse-field layers between steps pin the
// recurring bond gates in place (they commute with neither mixer), so no
// valid joint block exists and the planner correctly reports joint =
// standard — HSF still halves the memory footprint, but deep, dense
// circuits get no path reduction.
package main

import (
	"fmt"
	"log"
	"math"
	"math/cmplx"

	"hsfsim"
)

func main() {
	const (
		n     = 14
		steps = 6
		j     = -1.0
		h     = -0.5
		dt    = 0.1
	)
	c := isingTrotter(n, steps, j, h, dt)
	cutPos := n/2 - 1
	fmt.Printf("transverse-field Ising chain: %d sites, %d Trotter steps, %d gates\n",
		n, steps, len(c.Gates))

	// Only one ZZ bond crosses the cut, but it recurs every Trotter step:
	// standard cutting pays 2^steps paths.
	std, jnt, err := hsfsim.PathCounts(c, cutPos, hsfsim.BlockCascade, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paths: standard %d, joint %d\n", std, jnt)

	ref, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.Schrodinger})
	if err != nil {
		log.Fatal(err)
	}
	res, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.JointHSF, CutPos: cutPos})
	if err != nil {
		log.Fatal(err)
	}
	var maxDiff float64
	for i := range ref.Amplitudes {
		if d := cmplx.Abs(ref.Amplitudes[i] - res.Amplitudes[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("HSF vs. Schrödinger max amplitude difference: %.2e\n", maxDiff)

	// Physics check: magnetization <X_q> after the quench, computed from
	// the HSF amplitudes.
	mx := 0.0
	for q := 0; q < n; q++ {
		mx += expectationX(res.Amplitudes, q)
	}
	fmt.Printf("average transverse magnetization <X> = %.4f (t = %.1f)\n",
		mx/float64(n), float64(steps)*dt)
	if math.Abs(mx/float64(n)) > 1 {
		log.Fatal("unphysical magnetization")
	}
}

// isingTrotter builds the first-order Trotter circuit of the open chain
// H = J Σ Z_i Z_{i+1} + h Σ X_i from |+…+⟩ (a global quench): per step
// RZZ(2Jδt) on every bond, then RX(2hδt) on every site, since
// RZZ(θ) = e^{-iθZZ/2}.
func isingTrotter(n, steps int, j, h, dt float64) *hsfsim.Circuit {
	c := hsfsim.NewCircuit(n)
	for q := 0; q < n; q++ {
		c.Append(hsfsim.H(q))
	}
	for s := 0; s < steps; s++ {
		for q := 0; q+1 < n; q++ {
			c.Append(hsfsim.RZZ(2*j*dt, q, q+1))
		}
		for q := 0; q < n; q++ {
			c.Append(hsfsim.RX(2*h*dt, q))
		}
	}
	return c
}

// expectationX computes <ψ|X_q|ψ> from a full statevector.
func expectationX(amps []complex128, q int) float64 {
	var e complex128
	mask := 1 << q
	for i, a := range amps {
		e += cmplx.Conj(a) * amps[i^mask]
	}
	return real(e)
}
