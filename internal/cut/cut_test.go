package cut

import (
	"math"
	"testing"

	"hsfsim/internal/schmidt"

	"hsfsim/internal/circuit"
	"hsfsim/internal/gate"
)

func TestPartitionBasics(t *testing.T) {
	p := Partition{CutPos: 2} // qubits 0..2 lower, 3.. upper
	if !p.IsLower(0) || !p.IsLower(2) || p.IsLower(3) {
		t.Fatal("IsLower wrong")
	}
	if p.NumLower() != 3 || p.NumUpper(6) != 3 {
		t.Fatal("partition sizes wrong")
	}
	g := gate.CNOT(2, 3)
	if !p.Crosses(&g) {
		t.Fatal("crossing gate not detected")
	}
	l := gate.CNOT(0, 1)
	if p.Crosses(&l) {
		t.Fatal("local gate marked crossing")
	}
	if err := p.Validate(6); err != nil {
		t.Fatal(err)
	}
	if err := (Partition{CutPos: 2}).Validate(3); err == nil {
		t.Fatal("empty upper partition accepted")
	}
	if err := (Partition{CutPos: -1}).Validate(3); err == nil {
		t.Fatal("negative cut accepted")
	}
}

func TestCrossingGateIndices(t *testing.T) {
	c := circuit.New(4)
	c.Append(gate.H(0), gate.CNOT(0, 1), gate.CNOT(1, 2), gate.CNOT(2, 3), gate.RZZ(0.4, 0, 3))
	idx := CrossingGateIndices(c, Partition{CutPos: 1})
	if len(idx) != 2 || idx[0] != 2 || idx[1] != 4 {
		t.Fatalf("crossing = %v, want [2 4]", idx)
	}
}

func TestStandardPlanOneCutPerGate(t *testing.T) {
	c := circuit.New(4)
	c.Append(gate.RZZ(0.3, 1, 2), gate.RZZ(0.5, 1, 3), gate.CNOT(0, 1))
	plan, err := BuildPlan(c, Options{Partition: Partition{CutPos: 1}, Strategy: StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cuts) != 2 {
		t.Fatalf("cuts = %d, want 2", len(plan.Cuts))
	}
	n, ok := plan.NumPaths()
	if !ok || n != 4 {
		t.Fatalf("paths = %d, want 4", n)
	}
	if plan.NumBlocks() != 0 || plan.NumSeparateCuts() != 2 {
		t.Fatal("standard plan should have only separate cuts")
	}
}

func TestCascadePlanGroupsSharedAnchor(t *testing.T) {
	// Three RZZ gates share qubit 2 across the cut at 2|3: one block, rank 2.
	c := circuit.New(6)
	c.Append(
		gate.RZZ(0.3, 2, 3),
		gate.RZZ(0.5, 2, 4),
		gate.RZZ(0.7, 2, 5),
		gate.RX(0.1, 0), // local noise
	)
	plan, err := BuildPlan(c, Options{Partition: Partition{CutPos: 2}, Strategy: StrategyCascade})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cuts) != 1 {
		t.Fatalf("cuts = %d, want 1 block", len(plan.Cuts))
	}
	cp := plan.Cuts[0]
	if !cp.IsBlock() || cp.Rank() != 2 {
		t.Fatalf("block rank = %d, want 2", cp.Rank())
	}
	n, _ := plan.NumPaths()
	if n != 2 {
		t.Fatalf("joint paths = %d, want 2 (standard would be 8)", n)
	}
	if cp.LowerQubits[0] != 2 || len(cp.UpperQubits) != 3 {
		t.Fatalf("block qubits wrong: lower %v upper %v", cp.LowerQubits, cp.UpperQubits)
	}
}

func TestCascadeVsStandardPathReduction(t *testing.T) {
	// QAOA-like layer: anchors on both sides.
	c := circuit.New(6)
	c.Append(
		gate.RZZ(0.3, 2, 3), gate.RZZ(0.4, 2, 4), // anchor 2
		gate.RZZ(0.5, 1, 3), gate.RZZ(0.6, 0, 3), // anchor 3
	)
	p := Partition{CutPos: 2}
	std, err := BuildPlan(c, Options{Partition: p, Strategy: StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	joint, err := BuildPlan(c, Options{Partition: p, Strategy: StrategyCascade})
	if err != nil {
		t.Fatal(err)
	}
	ns, _ := std.NumPaths()
	nj, _ := joint.NumPaths()
	if ns != 16 {
		t.Fatalf("standard paths = %d, want 16", ns)
	}
	if nj >= ns {
		t.Fatalf("joint paths %d not fewer than standard %d", nj, ns)
	}
	if nj != 4 {
		t.Fatalf("joint paths = %d, want 4 (two rank-2 blocks)", nj)
	}
}

func TestWindowGrouping(t *testing.T) {
	// Fig.3-style: consecutive crossing gates on a 4-qubit circuit, cut 1|2.
	c := circuit.New(4)
	c.Append(
		gate.CNOT(1, 2), gate.CZ(0, 2), gate.CNOT(3, 1), gate.SWAP(1, 2),
	)
	p := Partition{CutPos: 1}
	std, err := BuildPlan(c, Options{Partition: p, Strategy: StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	win, err := BuildPlan(c, Options{Partition: p, Strategy: StrategyWindow, MaxBlockQubits: 4})
	if err != nil {
		t.Fatal(err)
	}
	ns, _ := std.NumPaths()
	nw, _ := win.NumPaths()
	if ns != 2*2*2*4 {
		t.Fatalf("standard paths = %d, want 32", ns)
	}
	if nw > 16 {
		t.Fatalf("window paths = %d, want ≤ 16 (saturation bound)", nw)
	}
	if nw >= ns {
		t.Fatal("window grouping did not reduce paths")
	}
}

func TestInvalidGroupSplit(t *testing.T) {
	// An H on the shared qubit between two crossing RZZs forces them apart:
	// grouping would create a cycle, so the planner must fall back to
	// separate cuts.
	c := circuit.New(4)
	c.Append(gate.RZZ(0.3, 1, 2), gate.H(1), gate.RZZ(0.5, 1, 2))
	plan, err := BuildPlan(c, Options{Partition: Partition{CutPos: 1}, Strategy: StrategyCascade})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cuts) != 2 {
		t.Fatalf("cuts = %d, want 2 separate (group is invalid)", len(plan.Cuts))
	}
	n, _ := plan.NumPaths()
	if n != 4 {
		t.Fatalf("paths = %d, want 4", n)
	}
}

func TestPlanStepOrderCoversAllGates(t *testing.T) {
	c := circuit.New(4)
	c.Append(gate.H(0), gate.RZZ(0.2, 1, 2), gate.RX(0.3, 3), gate.RZZ(0.4, 1, 3), gate.CNOT(0, 1))
	plan, err := BuildPlan(c, Options{Partition: Partition{CutPos: 1}, Strategy: StrategyCascade})
	if err != nil {
		t.Fatal(err)
	}
	gates := 0
	for _, s := range plan.Steps {
		switch s.Kind {
		case LocalStep:
			gates++
		case CutStep:
			gates += len(s.Cut.GateIndices)
		}
	}
	if gates != len(c.Gates) {
		t.Fatalf("plan covers %d gates, circuit has %d", gates, len(c.Gates))
	}
}

func TestNumPathsOverflow(t *testing.T) {
	// 70 rank-2 cuts exceed 64 bits: NumPaths must saturate and report it.
	p := &Plan{}
	for i := 0; i < 70; i++ {
		p.Cuts = append(p.Cuts, &CutPoint{Terms: make([]schmidt.Term, 2)})
	}
	if _, ok := p.NumPaths(); ok {
		t.Fatal("overflow not reported")
	}
	if l := p.Log2Paths(); math.Abs(l-70) > 1e-9 {
		t.Fatalf("Log2Paths = %g, want 70", l)
	}
}

func TestGateSchmidtRank(t *testing.T) {
	p := Partition{CutPos: 0}
	g := gate.SWAP(0, 1)
	r, err := GateSchmidtRank(&g, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r != 4 {
		t.Fatalf("SWAP rank = %d", r)
	}
	g = gate.RZZ(0.4, 0, 1)
	r, err = GateSchmidtRank(&g, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r != 2 {
		t.Fatalf("RZZ rank = %d", r)
	}
}

func TestMaxBlockQubitsChunksCascade(t *testing.T) {
	// Anchor with 5 fan gates but a 3-qubit block budget: chunks of 2 fans.
	c := circuit.New(7)
	for i := 1; i <= 5; i++ {
		c.Append(gate.RZZ(0.1*float64(i), 0, i+1))
	}
	plan, err := BuildPlan(c, Options{Partition: Partition{CutPos: 0}, Strategy: StrategyCascade, MaxBlockQubits: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range plan.Cuts {
		if n := len(cp.LowerQubits) + len(cp.UpperQubits); n > 3 {
			t.Fatalf("block touches %d qubits, budget 3", n)
		}
	}
	// 5 fans in chunks of ≤2 fans: 2 blocks of 2 and 1 separate, or similar;
	// total paths must beat the standard 2^5 = 32.
	n, _ := plan.NumPaths()
	if n >= 32 {
		t.Fatalf("chunked cascade paths = %d, want < 32", n)
	}
}

func TestStandardPathCountHelper(t *testing.T) {
	c := circuit.New(4)
	c.Append(gate.RZZ(0.3, 1, 2), gate.SWAP(1, 2))
	n, l, err := StandardPathCount(c, Partition{CutPos: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("paths = %d, want 8", n)
	}
	if math.Abs(l-3) > 1e-9 {
		t.Fatalf("log2 = %g, want 3", l)
	}
}
