package cut

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/gate"
	"hsfsim/internal/schmidt"
)

// denseDecompose is the test's reference route: whatever the gates' class,
// multiply them into the dense block unitary and decompose its full reshape.
func denseDecompose(t *testing.T, gates []*gate.Gate, lowerQ, upperQ []int, tol float64) *schmidt.Decomposition {
	t.Helper()
	touched := append(append([]int(nil), lowerQ...), upperQ...)
	d, err := schmidt.Decompose(blockUnitary(gates, touched), len(lowerQ), len(upperQ), tol)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameSpectrum compares rank and singular values (1e-12 relative to σ_max).
func sameSpectrum(got, want *schmidt.Decomposition) error {
	if got.Rank() != want.Rank() {
		return fmt.Errorf("rank %d, dense route %d (σ %v vs %v)", got.Rank(), want.Rank(), got.SingularValues, want.SingularValues)
	}
	for i, s := range got.SingularValues {
		// The full reshape pads the spectrum with zeros.
		if w := want.SingularValues[i]; math.Abs(s-w) > 1e-12*want.SingularValues[0] {
			return fmt.Errorf("σ[%d] = %.17g, dense route %.17g", i, s, w)
		}
	}
	return nil
}

// TestDiagonalBlocksMatchDenseRoute is the property test of the dispatch:
// random products of diagonal gates on random qubit subsets straddling the
// cut, 1–4 qubits a side, decomposed by class and through the dense unitary.
func TestDiagonalBlocksMatchDenseRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		nLower, nUpper := 1+rng.Intn(4), 1+rng.Intn(4)
		// Scattered labels: register bit k is touched[k], not qubit k.
		labels := rng.Perm(12)[:nLower+nUpper]
		lowerQ, upperQ := labels[:nLower], labels[nLower:]
		p := Partition{CutPos: 20}
		for i := range upperQ {
			upperQ[i] += 21
		}
		pick := func(k int) []int { // k distinct touched qubits
			qs := make([]int, k)
			for i, j := range rng.Perm(len(labels))[:k] {
				qs[i] = labels[j]
			}
			return qs
		}
		// One crossing gate touches every qubit's side; the rest are random.
		gs := []gate.Gate{gate.RZZ(rng.Float64()*3, lowerQ[0], upperQ[0])}
		for len(gs) < 2+rng.Intn(10) {
			th := rng.Float64() * 3
			switch kind := rng.Intn(6); {
			case kind == 0:
				gs = append(gs, gate.RZ(th, pick(1)[0]))
			case kind == 5 && len(labels) >= 3:
				q := pick(3)
				gs = append(gs, gate.CCZ(q[0], q[1], q[2]))
			default:
				q := pick(2)
				gs = append(gs, []gate.Gate{gate.RZZ(th, q[0], q[1]), gate.CZ(q[0], q[1]),
					gate.CPhase(th, q[0], q[1]), gate.CRZ(th, q[0], q[1])}[kind%4])
			}
		}
		gates := make([]*gate.Gate, len(gs))
		for i := range gs {
			gates[i] = &gs[i]
		}
		lo, up := splitQubits(gates, p)

		got, err := decompose(gates, lo, up, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSpectrum(got, denseDecompose(t, gates, lo, up, 0)); err != nil {
			t.Fatalf("trial %d (%d|%d, %d gates): %v", trial, len(lo), len(up), len(gs), err)
		}
		touched := append(append([]int(nil), lo...), up...)
		if e := got.ReconstructionError(blockUnitary(gates, touched)); e > 1e-12 {
			t.Fatalf("trial %d: reconstruction error %g", trial, e)
		}
		for m, term := range got.Terms {
			for side, f := range map[string]*gate.Gate{
				"upper": ptr(gate.New("cut-term", term.Upper, nil, up...)),
				"lower": ptr(gate.New("cut-term", term.Lower, nil, lo...)),
			} {
				if f.Class() != gate.KindDiagonal {
					t.Fatalf("trial %d term %d: %s factor classified %v", trial, m, side, f.Class())
				}
				for i, v := range f.Matrix.Data {
					if i%(f.Matrix.Cols+1) != 0 && v != 0 {
						t.Fatalf("trial %d term %d: %s factor entry %d is %v, want an exact zero", trial, m, side, i, v)
					}
				}
			}
		}
	}
}

func ptr(g gate.Gate) *gate.Gate { return &g }

// planFamilies are the circuit families of internal/hsf's schedule_test.go
// (its 1e-12 amplitude matrices run on the plans these produce): QAOA-like
// RZZ layers, CNOT and CZ fans with gates hanging off them, GRCS-like layers.
func planFamilies(n, cutPos int) map[string]func(*rand.Rand) *circuit.Circuit {
	hadamards := func() *circuit.Circuit {
		c := circuit.New(n)
		for q := 0; q < n; q++ {
			c.Append(gate.H(q))
		}
		return c
	}
	fans := func(rng *rand.Rand, two func(a, b int) gate.Gate) *circuit.Circuit {
		c := hadamards()
		for round := 0; round < 2; round++ {
			anchor := rng.Intn(cutPos + 1)
			for _, f := range rng.Perm(n - cutPos - 1)[:2] {
				fan := cutPos + 1 + f
				c.Append(two(anchor, fan))
				switch rng.Intn(3) {
				case 0:
					c.Append(gate.X(fan))
				case 1:
					c.Append(gate.T(fan), gate.RZ(rng.Float64(), anchor))
				default:
					c.Append(gate.CNOT(anchor, (anchor+1)%(cutPos+1)))
				}
			}
			c.Append(gate.RX(rng.Float64(), anchor))
		}
		return c
	}
	return map[string]func(*rand.Rand) *circuit.Circuit{
		"qaoa": func(rng *rand.Rand) *circuit.Circuit {
			c := hadamards()
			for i := 0; i < 8; i++ {
				a := rng.Intn(n)
				c.Append(gate.RZZ(rng.Float64()*2, a, (a+1+rng.Intn(n-1))%n))
			}
			for q := 0; q < n; q++ {
				c.Append(gate.RX(rng.Float64(), q))
			}
			return c
		},
		"cx-fans": func(rng *rand.Rand) *circuit.Circuit { return fans(rng, gate.CNOT) },
		"cz-fans": func(rng *rand.Rand) *circuit.Circuit { return fans(rng, gate.CZ) },
		"grcs": func(rng *rand.Rand) *circuit.Circuit {
			c := hadamards()
			for d := 0; d < 3; d++ {
				for q := d % 2; q+1 < n; q += 2 {
					c.Append(gate.CZ(q, q+1))
				}
				for q := 0; q < n; q++ {
					c.Append([]gate.Gate{gate.SX(q), gate.SY(q), gate.T(q)}[rng.Intn(3)])
				}
			}
			return c
		},
	}
}

// TestBuildPlanMatchesDenseRoute checks that choosing the route by class
// changes no decision of the planner. Every candidate the planner decomposes
// — each proposed group and each crossing gate on its own — has the dense
// route's rank and spectrum, so "block rank < product of member ranks" keeps
// and dissolves the same blocks; and every emitted cut equals the dense
// decomposition of its members after the same Tol, so cuts,
// blocks, ranks and path counts are the dense route's.
func TestBuildPlanMatchesDenseRoute(t *testing.T) {
	const n, cutPos = 8, 3
	p := Partition{CutPos: cutPos}
	diagonalCuts := 0
	for name, build := range planFamilies(n, cutPos) {
		for _, strategy := range []Strategy{StrategyNone, StrategyCascade, StrategyWindow} {
			for _, opts := range []Options{
				{Partition: p, Strategy: strategy},
				{Partition: p, Strategy: strategy, Tol: 0.2},
			} {
				for seed := int64(1); seed <= 3; seed++ {
					c := build(rand.New(rand.NewSource(seed)))
					groups, order, err := buildGroups(c, p, strategy, DefaultMaxBlockQubits)
					if err != nil {
						t.Fatal(err)
					}
					rc := c.Reorder(order)
					planned := make([]*gate.Gate, len(rc.Gates))
					for i := range rc.Gates {
						planned[i] = &rc.Gates[i]
					}
					newPos := make([]int, len(order))
					for np, oi := range order {
						newPos[oi] = np
					}
					candidates := make([][]int, 0, len(groups))
					for _, grp := range groups {
						members := make([]int, len(grp))
						for i, oi := range grp {
							members[i] = newPos[oi]
						}
						candidates = append(candidates, members)
					}
					for _, gi := range CrossingGateIndices(rc, p) {
						candidates = append(candidates, []int{gi})
					}
					plan, err := BuildPlan(c, opts)
					if err != nil {
						t.Fatal(err)
					}

					check := func(members []int) *CutPoint {
						cp, err := decomposeBlock(planned, opts, members)
						if err != nil {
							t.Fatal(err)
						}
						gates := make([]*gate.Gate, len(members))
						for i, m := range members {
							gates[i] = &rc.Gates[m]
						}
						dense := denseDecompose(t, gates, cp.LowerQubits, cp.UpperQubits, opts.Tol)
						if cp.Rank() != dense.Rank() {
							t.Fatalf("%s/%v seed %d %s: rank %d, dense route %d",
								name, strategy, seed, cp.Label, cp.Rank(), dense.Rank())
						}
						for m, term := range cp.Terms {
							if w := dense.Terms[m].Sigma; math.Abs(term.Sigma-w) > 1e-12*dense.SingularValues[0] {
								t.Fatalf("%s/%v seed %d %s: σ[%d] = %.17g, dense route %.17g", name, strategy, seed, cp.Label, m, term.Sigma, w)
							}
						}
						return cp
					}
					for _, members := range candidates {
						check(members)
					}
					paths := uint64(1)
					for i, cp := range plan.Cuts {
						ref := check(cp.GateIndices)
						if ref.Label != cp.Label || ref.Rank() != cp.Rank() {
							t.Fatalf("%s/%v seed %d cut %d: plan has %s rank %d, its members decompose to %s rank %d",
								name, strategy, seed, i, cp.Label, cp.Rank(), ref.Label, ref.Rank())
						}
						paths *= uint64(ref.Rank())
						if cp.Terms[0].Upper.IsDiagonal(0) {
							diagonalCuts++
						}
					}
					if got, _ := plan.NumPaths(); got != paths {
						t.Fatalf("%s/%v seed %d: %d paths, dense route %d", name, strategy, seed, got, paths)
					}
				}
			}
		}
	}
	if diagonalCuts == 0 {
		t.Fatal("no cut took the diagonal route: the test exercises nothing")
	}
}
