package hsf

import (
	"fmt"
	"testing"

	"hsfsim/internal/cmat"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
)

// residualMatrix returns what side of term t of c applies as a matrix on the
// term's qubits, read off by applying it as the walker does (compiledCut.apply)
// to each basis state of an n-qubit half. The cut must project nothing.
func residualMatrix(c *compiledCut, side cut.Side, t, n int) *cmat.Matrix {
	qs := c.terms[side][t].Qubits
	off := make([]int, 1<<len(qs)) // off[i]: matrix index i spread over the qubits
	for j, q := range qs {
		for i := range off {
			off[i] |= (i >> j & 1) << q
		}
	}
	m := cmat.New(len(off), len(off))
	for u, ou := range off {
		v := statevec.MakeVector(1 << n)
		v.SetAmplitude(ou, 1)
		v = c.apply(side, t, v)
		for i, oi := range off {
			m.Set(i, u, v.Amplitude(oi))
		}
	}
	return m
}

// TestCutTermResidual holds the scalar split to the plan: for every term of
// every cut, σ′·up′⊗lo′ — the engine's weight and the residuals it applies —
// equals the plan's σ·up⊗lo to 1e-14. The plans cover the q22-3 cascade (a
// scalar times I or Z below, a diagonal above), q20-3 in 8-qubit windows, a
// standard cut of a CNOT, whose projector |1⟩⟨1| has a zero first entry and
// whose X term must pass through untouched, and a CNOT cascade.
func TestCutTermResidual(t *testing.T) {
	serve, err := cut.BuildPlan(sbmCircuit(t, 10, 2003), cut.Options{Partition: cut.Partition{CutPos: 9},
		Strategy: cut.StrategyWindow, MaxBlockQubits: 8})
	if err != nil {
		t.Fatal(err)
	}
	cnot := circuitOf(4, gate.H(0), gate.CNOT(0, 2))
	fan := circuitOf(5, gate.H(0), gate.H(1), gate.CNOT(0, 2), gate.CNOT(0, 3), gate.CNOT(0, 4))
	for _, tc := range []struct {
		name  string
		plan  *cut.Plan
		kinds [3]int // residuals per kind, both sides, all terms
	}{
		{"q22-3", q22Plan(t), [3]int{12, 28, 0}},
		{"q20-3 window-8", serve, [3]int{}},
		{"cnot standard", buildPlan(t, cnot, 1, cut.StrategyNone), [3]int{1, 2, 1}},
		{"cnot cascade", buildPlan(t, fan, 1, cut.StrategyCascade), [3]int{}},
	} {
		e := compiledFor(tc.plan, resolveAmplitudes(tc.plan, 0), -1, 0)
		var kinds [3]int
		for l, cp := range tc.plan.Cuts {
			c := &e.cuts[l]
			for i, term := range cp.Terms {
				name := fmt.Sprintf("%s cut %d term %d", tc.name, l, i)
				want := cmat.Scale(complex(term.Sigma, 0), cmat.Kron(term.Upper, term.Lower))
				got := cmat.Scale(c.sigma[i], cmat.Kron(residualMatrix(c, cut.Upper, i, e.nUpper), residualMatrix(c, cut.Lower, i, e.nLower)))
				if d := cmat.MaxAbsDiff(got, want); d > 1e-14 {
					t.Errorf("%s: σ′·up′⊗lo′ off σ·up⊗lo by %g", name, d)
				}
				for side, m := range [2]*cmat.Matrix{term.Lower, term.Upper} {
					r := &c.res[side][i]
					kinds[r.kind]++
					if r.kind == residualGate && r.g.Matrix != m {
						t.Errorf("%s: a %v term that is not diagonal does not pass through as it is", name, cut.Side(side))
					}
				}
			}
		}
		if tc.kinds != ([3]int{}) && kinds != tc.kinds {
			t.Errorf("%s: residuals identity/diagonal/gate %v, want %v", tc.name, kinds, tc.kinds)
		}
		if tc.name == "cnot cascade" && kinds[residualGate] == 0 {
			t.Errorf("%s: no term passes through (%v): the case covers no controlled route", tc.name, kinds)
		}
	}
}

// forkedKinds counts the residuals, per kind and both sides, of the terms the
// walker writes into forked children: every term of a cut but its last.
func forkedKinds(e *engine) (kinds [3]int) {
	for l := range e.cuts {
		c := &e.cuts[l]
		for side := range c.res {
			for _, r := range c.res[side][:len(c.sigma)-1] {
				kinds[r.kind]++
			}
		}
	}
	return kinds
}
