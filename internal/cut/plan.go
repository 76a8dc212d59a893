package cut

import (
	"fmt"
	"slices"
	"sort"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
	"hsfsim/internal/schmidt"
)

// Options configures plan construction.
type Options struct {
	// Partition places the cut.
	Partition Partition
	// Strategy selects the grouping scheme (StrategyNone = standard HSF).
	Strategy Strategy
	// MaxBlockQubits caps the touched-qubit count of a block; 0 selects
	// DefaultMaxBlockQubits.
	MaxBlockQubits int
	// Tol is the singular-value truncation tolerance; 0 selects
	// schmidt.DefaultTol.
	Tol float64
}

// BuildPlan analyzes the circuit and produces an HSF execution plan.
func BuildPlan(c *circuit.Circuit, opts Options) (*Plan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Partition.Validate(c.NumQubits); err != nil {
		return nil, err
	}
	maxBlock := opts.MaxBlockQubits
	if maxBlock <= 0 {
		maxBlock = DefaultMaxBlockQubits
	}

	groups, order, err := buildGroups(c, opts.Partition, opts.Strategy, maxBlock)
	if err != nil {
		return nil, err
	}
	rc := make([]*gate.Gate, len(order)) // the gates in planned order
	newPos := make([]int, len(order))    // original index -> new position
	for np, oi := range order {
		rc[np], newPos[oi] = &c.Gates[oi], np
	}

	// groupOf[new position] = group id, or -1.
	groupOf := make([]int, len(rc))
	for i := range groupOf {
		groupOf[i] = -1
	}
	groupMembers := make([][]int, len(groups)) // new positions, sorted
	for gi, grp := range groups {
		for _, oi := range grp {
			np := newPos[oi]
			groupOf[np] = gi
			groupMembers[gi] = append(groupMembers[gi], np)
		}
		sort.Ints(groupMembers[gi])
	}

	// Every step takes at least one gate.
	plan := &Plan{NumQubits: c.NumQubits, Partition: opts.Partition, Steps: make([]Step, 0, len(rc))}
	emitted := make([]bool, len(rc))

	emitSingle := func(np int) error {
		g := rc[np]
		emitted[np] = true
		if !opts.Partition.Crosses(g) {
			side := Upper
			if opts.Partition.IsLower(g.Qubits[0]) {
				side = Lower
			}
			plan.Steps = append(plan.Steps, Step{Kind: LocalStep, Side: side, Gate: *g})
			return nil
		}
		cp, err := decomposeBlock(rc, opts, []int{np})
		if err != nil {
			return err
		}
		plan.Steps = append(plan.Steps, Step{Kind: CutStep, Cut: cp})
		plan.Cuts = append(plan.Cuts, cp)
		return nil
	}

	for np := range rc {
		if emitted[np] {
			continue
		}
		gi := groupOf[np]
		if gi < 0 {
			if err := emitSingle(np); err != nil {
				return nil, err
			}
			continue
		}
		// First member of a block: decompose jointly and keep the block only
		// if it strictly reduces the path contribution versus cutting its
		// crossing members separately (Sec. IV-C: otherwise the SVD
		// preprocessing is pure overhead).
		members := groupMembers[gi]
		cp, err := decomposeBlock(rc, opts, members)
		if err != nil {
			return nil, err
		}
		separate := 1
		for _, m := range members {
			g := rc[m]
			if !opts.Partition.Crosses(g) {
				continue
			}
			r, err := GateSchmidtRank(g, opts.Partition, opts.Tol)
			if err != nil {
				return nil, err
			}
			separate *= r
			if separate > 1<<30 {
				break // saturate; the block certainly wins
			}
		}
		if cp.Rank() < separate {
			plan.Steps = append(plan.Steps, Step{Kind: CutStep, Cut: cp})
			plan.Cuts = append(plan.Cuts, cp)
			for _, m := range members {
				emitted[m] = true
			}
			continue
		}
		// Not beneficial: emit the members individually in order.
		for _, m := range members {
			if err := emitSingle(m); err != nil {
				return nil, err
			}
		}
	}
	return plan, nil
}

// decomposeBlock Schmidt-decomposes the product of the member gates (indices
// into rc, the gates in planned order, sorted) across the partition.
func decomposeBlock(rc []*gate.Gate, opts Options, members []int) (*CutPoint, error) {
	gates := make([]*gate.Gate, len(members))
	for i, m := range members {
		gates[i] = rc[m]
	}
	lowerQ, upperQ := splitQubits(gates, opts.Partition)
	label := blockLabel(rc, members)
	d, err := decompose(gates, lowerQ, upperQ, opts.Tol)
	if err != nil {
		return nil, fmt.Errorf("cut: decomposing %s: %w", label, err)
	}
	return &CutPoint{Terms: d.Terms, LowerQubits: lowerQ, UpperQubits: upperQ, GateIndices: members, Label: label,
		Diagonal: d.Diagonal}, nil
}

// decompose Schmidt-decomposes the product of gates (applied in order) on the
// register lowerQ ++ upperQ, whose lower qubits occupy the low bits because
// labels sort that way. It picks the route by gate class, as statevec picks
// kernels: when every gate is diagonal the product is one 2^n vector and the
// SVD runs on its phase matrix; anything else goes through the dense unitary.
func decompose(gates []*gate.Gate, lowerQ, upperQ []int, tol float64) (*schmidt.Decomposition, error) {
	diag, dense := blockOperator(gates, lowerQ, upperQ)
	if diag != nil {
		return schmidt.DecomposeDiagonal(diag, len(lowerQ), len(upperQ), tol)
	}
	return schmidt.Decompose(dense, len(lowerQ), len(upperQ), tol)
}

// blockOperator returns the product of gates on the register lowerQ ++
// upperQ: its diagonal when every gate is diagonal, else its dense unitary.
func blockOperator(gates []*gate.Gate, lowerQ, upperQ []int) (diag []complex128, dense *cmat.Matrix) {
	var touchedBuf [16]int
	touched := append(append(touchedBuf[:0], lowerQ...), upperQ...)
	for _, g := range gates {
		if !g.Diagonal {
			return nil, blockUnitary(gates, touched)
		}
	}
	diag = make([]complex128, 1<<len(touched))
	for i := range diag {
		diag[i] = 1
	}
	var bitBuf [8]int
	bit := bitBuf[:0] // register bit of each matrix bit of the current gate
	for _, g := range gates {
		bit = bit[:0]
		for _, q := range g.Qubits {
			bit = append(bit, slices.Index(touched, q))
		}
		for i := range diag {
			l := 0
			for b, p := range bit {
				l |= (i >> p & 1) << b
			}
			diag[i] *= g.Matrix.At(l, l)
		}
	}
	return diag, nil
}

// blockUnitary multiplies the gates into a dense operator on the register
// whose bit k is qubit touched[k].
func blockUnitary(gates []*gate.Gate, touched []int) *cmat.Matrix {
	block := circuit.New(len(touched))
	for _, g := range gates {
		block.Append(g.Remap(func(q int) int { return slices.Index(touched, q) }))
	}
	return block.Unitary()
}

// blockLabel summarizes a block for reports, e.g. "block[rzz x3]".
func blockLabel(rc []*gate.Gate, members []int) string {
	if len(members) == 1 {
		return "sep[" + rc[members[0]].Name + "]"
	}
	names := make(map[string]int)
	for _, m := range members {
		names[rc[m].Name]++
	}
	if len(names) == 1 {
		return fmt.Sprintf("block[%s x%d]", rc[members[0]].Name, len(members))
	}
	return fmt.Sprintf("block[mixed x%d]", len(members))
}

// StandardPathCount returns the number of paths of the standard (per-gate)
// cutting scheme, together with its log2. It is cheaper than building a full
// plan when only the count is needed, but matches BuildPlan with
// StrategyNone exactly.
func StandardPathCount(c *circuit.Circuit, p Partition, tol float64) (uint64, float64, error) {
	plan, err := BuildPlan(c, Options{Partition: p, Strategy: StrategyNone, Tol: tol})
	if err != nil {
		return 0, 0, err
	}
	n, _ := plan.NumPaths()
	return n, plan.Log2Paths(), nil
}

// GateSchmidtRank computes the Schmidt rank of a single gate across the
// partition.
func GateSchmidtRank(g *gate.Gate, p Partition, tol float64) (int, error) {
	gates := []*gate.Gate{g}
	lowerQ, upperQ := splitQubits(gates, p)
	diag, dense := blockOperator(gates, lowerQ, upperQ)
	if diag != nil {
		return schmidt.DiagonalSchmidtRank(diag, len(lowerQ), len(upperQ), tol)
	}
	return schmidt.OperatorSchmidtRank(dense, len(lowerQ), len(upperQ), tol)
}
