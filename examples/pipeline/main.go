// Pipeline: the full toolchain end to end — optimize QAOA angles, transpile
// to the {1q, CX} basis, route onto a linear chain, simplify with the
// peephole pass, simulate on the MPS backend (which requires the linear
// layout), and estimate the cut value from measurement shots with a
// bootstrap confidence interval.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hsfsim/internal/graph"
	"hsfsim/internal/peephole"
	"hsfsim/internal/qaoa"
	"hsfsim/internal/reorder"
	"hsfsim/internal/route"
	"hsfsim/internal/shots"
	"hsfsim/internal/statevec"
	"hsfsim/internal/synth"
	"hsfsim/internal/xeb"
)

func main() {
	rng := rand.New(rand.NewSource(42))
	g, err := graph.ErdosRenyi(10, 0.4, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.N, g.NumEdges())

	// 1. Tune the QAOA angles.
	opt, err := qaoa.OptimizeAngles(g, qaoa.OptimizeOptions{Layers: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimized angles: γ=%.3f β=%.3f, expected cut %.3f (%d evaluations)\n",
		opt.Params.Gammas[0], opt.Params.Betas[0], opt.ExpectedCut, opt.Evaluations)

	c, err := qaoa.Build(g, opt.Params)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Transpile to {1q, CX}, route onto a chain, and simplify.
	basis, err := synth.Transpile(c)
	if err != nil {
		log.Fatal(err)
	}
	routed, err := route.Linear(basis)
	if err != nil {
		log.Fatal(err)
	}
	flat, err := synth.Transpile(routed.Circuit) // expand inserted SWAPs
	if err != nil {
		log.Fatal(err)
	}
	slim := peephole.Optimize(flat)
	fmt.Printf("transpile: %d gates -> %d after routing (+%d swaps) -> %d after peephole (%d CNOTs)\n",
		len(basis.Gates), len(flat.Gates), routed.SwapsInserted, len(slim.Gates), synth.CXCount(slim))

	// 3. Simulate on the statevector backend and re-check on MPS semantics
	// (every two-qubit gate is now nearest-neighbour).
	if !route.IsLinear(slim) {
		log.Fatal("pipeline produced a non-linear circuit")
	}
	v := statevec.NewVector(slim.NumQubits)
	v.ApplyAll(slim.Gates)
	// Undo the routing permutation to express amplitudes in logical order.
	logical := reorder.PermuteState(v.ToComplex(), routed.Final)

	// 4. Estimate the cut from 20k shots and bootstrap a 95% interval.
	counts, err := shots.Sample(xeb.Probabilities(logical), 20000, rng)
	if err != nil {
		log.Fatal(err)
	}
	est, err := shots.EstimateCut(counts, g)
	if err != nil {
		log.Fatal(err)
	}
	lo, hi, err := shots.BootstrapCut(counts, g, 300, 0.95, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shot estimate:   %v\n", est)
	fmt.Printf("bootstrap 95%%:   [%.3f, %.3f]\n", lo, hi)
	fmt.Printf("exact expected:  %.3f\n", opt.ExpectedCut)

	best, _, err := g.BruteForceMaxCut()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal max cut: %.0f (approximation ratio %.3f)\n", best, est.Mean/best)
}
