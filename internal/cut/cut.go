// Package cut implements the circuit-cutting layer of HSF simulation: it
// locates the gates that cross the chosen bipartition, groups them into
// joint-cut blocks (the paper's contribution), Schmidt-decomposes every cut,
// and emits an execution plan for the HSF engine.
package cut

import (
	"fmt"
	"math"
	"slices"

	"hsfsim/internal/circuit"
	"hsfsim/internal/gate"
	"hsfsim/internal/schmidt"
)

// Partition bipartitions the register: qubits 0..CutPos belong to the lower
// partition, qubits CutPos+1..n-1 to the upper one. This matches the paper's
// Table II "cut pos." column (the qubit label after which the cut happens).
type Partition struct {
	CutPos int
}

// NumLower returns the lower partition size for an n-qubit register.
func (p Partition) NumLower() int { return p.CutPos + 1 }

// NumUpper returns the upper partition size for an n-qubit register.
func (p Partition) NumUpper(n int) int { return n - p.CutPos - 1 }

// IsLower reports whether qubit q is in the lower partition.
func (p Partition) IsLower(q int) bool { return q <= p.CutPos }

// Crosses reports whether g touches both partitions.
func (p Partition) Crosses(g *gate.Gate) bool {
	lo, up := false, false
	for _, q := range g.Qubits {
		if p.IsLower(q) {
			lo = true
		} else {
			up = true
		}
	}
	return lo && up
}

// Validate checks the partition against a register size.
func (p Partition) Validate(numQubits int) error {
	if p.CutPos < 0 || p.CutPos >= numQubits-1 {
		return fmt.Errorf("cut: position %d leaves an empty partition for %d qubits", p.CutPos, numQubits)
	}
	return nil
}

// Side identifies one of the two partitions.
type Side int

// Partition sides.
const (
	Lower Side = iota
	Upper
)

func (s Side) String() string {
	if s == Lower {
		return "lower"
	}
	return "upper"
}

// StepKind distinguishes plan steps.
type StepKind int

// Plan step kinds.
const (
	// LocalStep applies one gate inside a single partition.
	LocalStep StepKind = iota
	// CutStep branches over the Schmidt terms of a cut gate or block.
	CutStep
)

// CutPoint is one cut in the plan: a decomposed gate or block with the
// original qubit labels its terms act on.
type CutPoint struct {
	// Terms are the Schmidt summands σ_m X_m ⊗ Y_m.
	Terms []schmidt.Term
	// LowerQubits / UpperQubits are the block's touched qubits on each side,
	// sorted ascending, in original circuit labels. Term.Lower matrices use
	// LowerQubits[k] as bit k; Term.Upper matrices use UpperQubits[k] as bit k.
	LowerQubits []int
	UpperQubits []int
	// GateIndices are the indices (in the planned order) of the member gates.
	GateIndices []int
	// Label describes the cut for reporting ("block[rzz x3]" or "sep[swap]").
	Label string
	// Diagonal records that every factor of every term is a diagonal matrix
	// with exact zeros off its diagonal (the phase-matrix route of a
	// diagonal block), so the engine classifies the factors from their
	// diagonals instead of scanning them.
	Diagonal bool
}

// Rank returns the number of Schmidt terms of the cut.
func (c *CutPoint) Rank() int { return len(c.Terms) }

// IsBlock reports whether the cut covers more than one gate.
func (c *CutPoint) IsBlock() bool { return len(c.GateIndices) > 1 }

// Step is one element of an HSF execution plan.
type Step struct {
	Kind StepKind
	// Side and Gate are set for LocalStep.
	Side Side
	Gate gate.Gate
	// Cut is set for CutStep.
	Cut *CutPoint
}

// Plan is a complete HSF execution plan: an ordered interleaving of local
// gates and cut points, equivalent to the original circuit.
type Plan struct {
	NumQubits int
	Partition Partition
	Steps     []Step
	Cuts      []*CutPoint
}

// NumPaths returns the total path count ∏ r_i. The second return value is
// false when the product overflows uint64 (use Log2Paths then).
func (p *Plan) NumPaths() (uint64, bool) {
	n := uint64(1)
	for _, c := range p.Cuts {
		r := uint64(c.Rank())
		if r != 0 && n > math.MaxUint64/r {
			return math.MaxUint64, false
		}
		n *= r
	}
	return n, true
}

// Log2Paths returns log2 of the path count.
func (p *Plan) Log2Paths() float64 {
	var l float64
	for _, c := range p.Cuts {
		l += math.Log2(float64(c.Rank()))
	}
	return l
}

// NumBlocks counts joint-cut blocks (cuts covering more than one gate).
func (p *Plan) NumBlocks() int {
	n := 0
	for _, c := range p.Cuts {
		if c.IsBlock() {
			n++
		}
	}
	return n
}

// NumSeparateCuts counts cuts covering a single gate.
func (p *Plan) NumSeparateCuts() int { return len(p.Cuts) - p.NumBlocks() }

// CrossingGateIndices returns the indices of the gates in c that cross the
// partition.
func CrossingGateIndices(c *circuit.Circuit, p Partition) []int {
	var idx []int
	for i := range c.Gates {
		if p.Crosses(&c.Gates[i]) {
			idx = append(idx, i)
		}
	}
	return idx
}

// splitQubits returns the sorted touched lower and upper qubits of a set of
// gates.
func splitQubits(gates []*gate.Gate, p Partition) (lower, upper []int) {
	for _, g := range gates {
		for _, q := range g.Qubits {
			switch {
			case p.IsLower(q) && !slices.Contains(lower, q):
				lower = append(lower, q)
			case !p.IsLower(q) && !slices.Contains(upper, q):
				upper = append(upper, q)
			}
		}
	}
	slices.Sort(lower)
	slices.Sort(upper)
	return lower, upper
}
