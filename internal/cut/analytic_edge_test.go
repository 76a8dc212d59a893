package cut

import (
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/gate"
)

// These cases pin cascade blocks at the analytic rank 2 of paper Sec. IV-D
// (Ex. 4) — including the shapes that fall outside the closed forms of
// schmidt's tests (mixed kinds, a repeated fan qubit, shared-target CNOTs) —
// reached by the planner's numeric decomposition, as in the paper's
// evaluation.

func analyticPlan(t *testing.T, c *circuit.Circuit, cutPos int) *Plan {
	t.Helper()
	plan, err := BuildPlan(c, Options{
		Partition: Partition{CutPos: cutPos}, Strategy: StrategyCascade,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestAnalyticFallbackMixedGateKinds(t *testing.T) {
	// rzz + cz sharing an anchor: a valid block of mixed kinds.
	c := circuit.New(4)
	c.Append(gate.RZZ(0.3, 1, 2), gate.CZ(1, 3))
	plan := analyticPlan(t, c, 1)
	if len(plan.Cuts) != 1 {
		t.Fatalf("cuts = %d", len(plan.Cuts))
	}
	if plan.Cuts[0].Rank() != 2 {
		t.Fatalf("rank = %d, want 2", plan.Cuts[0].Rank())
	}
}

func TestAnalyticFallbackRepeatedFan(t *testing.T) {
	// Two RZZ on the same pair: a repeated fan qubit.
	c := circuit.New(3)
	c.Append(gate.RZZ(0.3, 1, 2), gate.RZZ(0.5, 1, 2))
	plan := analyticPlan(t, c, 1)
	if len(plan.Cuts) != 1 {
		t.Fatalf("cuts = %d", len(plan.Cuts))
	}
	// Product of two RZZ on the same pair is a single RZZ: rank 2.
	if plan.Cuts[0].Rank() != 2 {
		t.Fatalf("rank = %d, want 2", plan.Cuts[0].Rank())
	}
}

func TestAnalyticFallbackCNOTControlOnFan(t *testing.T) {
	// CNOTs sharing their *target* (anchor = target): Eq. 11 needs the
	// control as the anchor, so no closed form applies. The joint rank of
	// shared-target CNOTs is still 2 (conjugate by H⊗H of the shared-control
	// case).
	c := circuit.New(4)
	c.Append(gate.CNOT(2, 1), gate.CNOT(3, 1)) // controls upper, target 1 lower
	plan := analyticPlan(t, c, 1)
	if len(plan.Cuts) != 1 {
		t.Fatalf("cuts = %d", len(plan.Cuts))
	}
	cp := plan.Cuts[0]
	if cp.Rank() != 2 {
		t.Fatalf("rank = %d, want 2", cp.Rank())
	}
}

func TestAnalyticCPhaseCascadeUsed(t *testing.T) {
	c := circuit.New(4)
	c.Append(gate.CPhase(0.4, 1, 2), gate.CPhase(0.8, 1, 3))
	plan := analyticPlan(t, c, 1)
	if len(plan.Cuts) != 1 || !plan.Cuts[0].IsBlock() {
		t.Fatal("cp cascade should be one block")
	}
	if plan.Cuts[0].Rank() != 2 {
		t.Fatalf("rank = %d, want 2", plan.Cuts[0].Rank())
	}
}

func TestAnalyticAnchorOnLowerSide(t *testing.T) {
	// Anchor in the lower partition, fans above.
	c := circuit.New(4)
	c.Append(gate.RZZ(0.3, 0, 2), gate.RZZ(0.5, 0, 3))
	plan := analyticPlan(t, c, 1)
	if len(plan.Cuts) != 1 || plan.Cuts[0].Rank() != 2 {
		t.Fatal("lower-anchor cascade should be one rank-2 block")
	}
}

func TestAnalyticSkipsThreeQubitMembers(t *testing.T) {
	// A window-style group is never proposed here, but a cascade block must
	// reject non-2-qubit members gracefully. Build a CCZ sharing qubits with
	// an RZZ; the cascade strategy only groups 2-qubit gates, so the CCZ is
	// cut separately and the plan still works.
	c := circuit.New(5)
	c.Append(gate.RZZ(0.2, 1, 2), gate.RZZ(0.4, 1, 3), gate.CCZ(0, 1, 4))
	plan := analyticPlan(t, c, 1)
	if plan.NumBlocks() != 1 {
		t.Fatalf("blocks = %d, want 1", plan.NumBlocks())
	}
	if plan.NumSeparateCuts() != 1 {
		t.Fatalf("separate = %d, want 1 (the ccz)", plan.NumSeparateCuts())
	}
}

func TestStrategyStrings(t *testing.T) {
	if StrategyNone.String() != "standard" || StrategyCascade.String() != "cascade" ||
		StrategyWindow.String() != "window" || Strategy(9).String() != "unknown" {
		t.Fatal("strategy strings wrong")
	}
	if Lower.String() != "lower" || Upper.String() != "upper" {
		t.Fatal("side strings wrong")
	}
}
