// Supremacy circuits: the paper's Sec. V extension — joint cutting of
// shallow Google-style random grid circuits. With the cut through the middle
// of a row, vertical and horizontal crossing iSWAP gates share boundary
// qubits and can be jointly cut at rank ≤ 4 instead of 4·4 = 16.
package main

import (
	"fmt"
	"log"
	"math/cmplx"

	"hsfsim"
	"hsfsim/internal/grcs"
)

func main() {
	opts := grcs.Options{Rows: 4, Cols: 4, Depth: 6, Entangler: grcs.ISwap, Seed: 7}
	c, err := grcs.Generate(opts)
	if err != nil {
		log.Fatal(err)
	}
	const cutPos = 9 // middle of row 2: rows 0–1 plus half of row 2 below
	fmt.Printf("grid: %dx%d, depth %d, iSWAP entanglers — %d qubits, %d gates\n",
		opts.Rows, opts.Cols, opts.Depth, c.NumQubits, len(c.Gates))

	std, jnt, err := hsfsim.PathCounts(c, cutPos, hsfsim.BlockWindow, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paths through the mid-row cut: standard %d, joint (window blocks) %d\n", std, jnt)

	// Simulate the first 4096 amplitudes both ways and cross-check.
	const m = 4096
	stdRes, err := hsfsim.Simulate(c, hsfsim.Options{
		Method: hsfsim.StandardHSF, CutPos: cutPos, MaxAmplitudes: m,
	})
	if err != nil {
		log.Fatal(err)
	}
	jntRes, err := hsfsim.Simulate(c, hsfsim.Options{
		Method: hsfsim.JointHSF, BlockStrategy: hsfsim.BlockWindow,
		MaxBlockQubits: 5, CutPos: cutPos, MaxAmplitudes: m,
	})
	if err != nil {
		log.Fatal(err)
	}
	var maxDiff float64
	for i := range stdRes.Amplitudes {
		if d := cmplx.Abs(stdRes.Amplitudes[i] - jntRes.Amplitudes[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("standard HSF:  %8d paths, total %v\n", stdRes.NumPaths, stdRes.TotalTime().Round(1e6))
	fmt.Printf("joint HSF:     %8d paths, total %v (%d blocks)\n",
		jntRes.NumPaths, jntRes.TotalTime().Round(1e6), jntRes.NumBlocks)
	fmt.Printf("max amplitude difference: %.2e\n", maxDiff)
	if jntRes.TotalTime() < stdRes.TotalTime() {
		fmt.Printf("joint cutting speedup: %.1fx\n",
			stdRes.TotalTime().Seconds()/jntRes.TotalTime().Seconds())
	}
}
