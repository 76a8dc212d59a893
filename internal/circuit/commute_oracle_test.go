package circuit_test

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
	"hsfsim/internal/graph"
	"hsfsim/internal/grcs"
	"hsfsim/internal/qaoa"
)

// commuteOracle is the commutator Commute used to compute for every
// overlapping pair: both operators embedded as heap matrices on the union of
// their supports, multiplied both ways.
func commuteOracle(a, b *gate.Gate) bool {
	if !a.SharesQubit(b) {
		return true
	}
	union := append([]int(nil), a.Qubits...)
	for _, q := range b.Qubits {
		if !a.Touches(q) {
			union = append(union, q)
		}
	}
	sort.Ints(union)
	ma, mb := circuit.EmbedOnQubits(a, union), circuit.EmbedOnQubits(b, union)
	return cmat.Commutator(ma, mb).FrobeniusNorm() <= 1e-10
}

// library is the gate package's classification-audit table: one instance of
// every constructor, on qubits 0…k-1.
func library() []gate.Gate {
	return []gate.Gate{
		gate.I(0), gate.X(0), gate.Y(0), gate.Z(0), gate.H(0), gate.S(0), gate.Sdg(0), gate.T(0), gate.Tdg(0),
		gate.SX(0), gate.SY(0), gate.SW(0), gate.RX(0.7, 0), gate.RY(0.7, 0), gate.RZ(0.7, 0), gate.P(0.7, 0),
		gate.U3(0.3, 0.4, 0.5, 0),
		gate.CNOT(0, 1), gate.CZ(0, 1), gate.CPhase(0.4, 0, 1), gate.SWAP(0, 1), gate.ISWAP(0, 1),
		gate.RZZ(0.4, 0, 1), gate.RXX(0.4, 0, 1), gate.RYY(0.4, 0, 1), gate.FSim(0.4, 0.2, 0, 1),
		gate.CRX(0.4, 0, 1), gate.CRY(0.4, 0, 1), gate.CRZ(0.4, 0, 1),
		gate.CCX(0, 1, 2), gate.CCZ(0, 1, 2),
	}
}

// placements returns every ordered k-tuple of distinct qubits below n.
func placements(k, n int) [][]int {
	if k == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, rest := range placements(k-1, n) {
	next:
		for q := 0; q < n; q++ {
			for _, r := range rest {
				if r == q {
					continue next
				}
			}
			out = append(out, append(append([]int(nil), rest...), q))
		}
	}
	return out
}

// TestCommuteMatchesOracle holds Commute against the embed-and-multiply
// commutator for every pair of library gates in every overlapping placement
// on at most four qubits — the unions it evaluates on stack arrays.
func TestCommuteMatchesOracle(t *testing.T) {
	lib := library()
	pairs, commuting := 0, 0
	for i := range lib {
		a := &lib[i]
		for j := range lib {
			for _, qs := range placements(lib[j].NumQubits(), 4) {
				b := lib[j].Remap(func(q int) int { return qs[q] })
				if !a.SharesQubit(&b) {
					continue
				}
				want := commuteOracle(a, &b)
				if got := circuit.Commute(a, &b); got != want {
					t.Errorf("Commute(%v, %v) = %v, commutator says %v", a, &b, got, want)
				}
				if got := circuit.Commute(&b, a); got != want {
					t.Errorf("Commute(%v, %v) = %v, commutator says %v", &b, a, got, want)
				}
				pairs++
				if want {
					commuting++
				}
			}
		}
	}
	if pairs < 5000 || commuting == 0 || commuting == pairs {
		t.Fatalf("%d placements, %d commuting: the table exercises nothing", pairs, commuting)
	}
}

// TestCommuteLargeUnions covers the heap fallback above four union qubits,
// with pairs the structural rule does not decide.
func TestCommuteLargeUnions(t *testing.T) {
	// A four-qubit gate: CCX on bits 0–2, X or H on bit 3.
	wide := func(top gate.Gate) gate.Gate {
		return gate.New("ccx⊗"+top.Name, cmat.Kron(top.Matrix, gate.CCX(0, 1, 2).Matrix), nil, 0, 1, 2, 3)
	}
	for _, tc := range []struct {
		a, b  gate.Gate
		union int
		want  bool
	}{
		{gate.CCX(0, 1, 2), gate.CCX(3, 4, 2), 5, true},  // two X targets
		{gate.CCX(0, 1, 2), gate.CCX(2, 3, 4), 5, false}, // target on a control
		{gate.CCX(0, 1, 2), gate.CCZ(2, 3, 4), 5, false},
		{wide(gate.X(0)), gate.CCX(4, 5, 3), 6, true},
		{wide(gate.H(0)), gate.CCX(4, 5, 3), 6, false},
	} {
		if got := commuteOracle(&tc.a, &tc.b); got != tc.want {
			t.Fatalf("oracle(%v, %v) = %v, want %v", &tc.a, &tc.b, got, tc.want)
		}
		if got := circuit.Commute(&tc.a, &tc.b); got != tc.want {
			t.Errorf("Commute(%v, %v) on %d qubits = %v, want %v", &tc.a, &tc.b, tc.union, got, tc.want)
		}
	}
}

// TestCommuteStructuralShortCircuit takes the matrices away from gates that
// are both diagonal on every shared qubit — the positive controls of the gate
// package's TestDiagonalOn, CNOTs sharing a control among them: the
// classification flags alone must decide, allocating nothing.
func TestCommuteStructuralShortCircuit(t *testing.T) {
	for _, pair := range [][2]gate.Gate{
		{gate.CNOT(0, 1), gate.CNOT(0, 2)},
		{gate.CNOT(0, 1), gate.RZZ(0.3, 0, 2)},
		{gate.CCX(0, 1, 2), gate.CRX(0.4, 1, 3)},
		{gate.CCX(0, 1, 2), gate.CCX(1, 0, 3)},
		{gate.RZZ(0.3, 0, 1), gate.CZ(1, 0)},
	} {
		a, b := pair[0], pair[1]
		if !commuteOracle(&a, &b) {
			t.Fatalf("%v and %v do not commute", &a, &b)
		}
		a.Matrix, b.Matrix = nil, nil
		if allocs := testing.AllocsPerRun(10, func() {
			if !circuit.Commute(&a, &b) {
				t.Fatalf("Commute(%v, %v) = false", &a, &b)
			}
		}); allocs != 0 {
			t.Errorf("Commute(%v, %v) allocates %v objects", &a, &b, allocs)
		}
	}
}

// TestCommuteStackPathDoesNotAllocate pins what makes BuildDAG cheap: a pair
// the structural rule cannot decide costs no heap matrix up to four qubits.
func TestCommuteStackPathDoesNotAllocate(t *testing.T) {
	rx, rzz := gate.RX(0.5, 1), gate.RZZ(0.5, 1, 2)
	ccx, fsim := gate.CCX(0, 1, 2), gate.FSim(0.4, 0.2, 2, 3)
	if allocs := testing.AllocsPerRun(10, func() {
		circuit.Commute(&rx, &rzz)
		circuit.Commute(&ccx, &fsim)
	}); allocs != 0 {
		t.Errorf("explicit commutators on 2 and 4 qubits allocate %v objects", allocs)
	}
}

// dagOracle is the all-pairs BuildDAG with the oracle's verdicts.
func dagOracle(c *circuit.Circuit) (succ [][]int) {
	n := len(c.Gates)
	succ = make([][]int, n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			if !commuteOracle(&c.Gates[i], &c.Gates[j]) {
				succ[i] = append(succ[i], j)
			}
		}
	}
	return succ
}

// sbmQAOA is the benchmark's q20-3 / q22-3 instance family.
func sbmQAOA(t *testing.T, half int, graphSeed int64) *circuit.Circuit {
	t.Helper()
	g, err := graph.TwoBlockModel(half, half, 0.8, 0.20, rand.New(rand.NewSource(graphSeed)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := qaoa.Build(g, qaoa.Params{Gammas: []float64{0.7}, Betas: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBuildDAGMatchesOracle compares the whole edge set on the planner's
// circuit families — QAOA layers, CNOT and CZ fans with gates hanging off the
// anchor and the fan targets, GRCS layers — on random circuits over the whole
// library, and on the benchmark's two QAOA instances.
func TestBuildDAGMatchesOracle(t *testing.T) {
	circuits := map[string]*circuit.Circuit{
		"q20-3": sbmQAOA(t, 10, 2003),
		"q22-3": sbmQAOA(t, 11, 2203),
	}
	lib := library()
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n, cutPos = 8, 3

		g, err := graph.ErdosRenyi(n, 0.4, rng)
		if err != nil {
			t.Fatal(err)
		}
		if circuits[fmt.Sprintf("qaoa/%d", seed)], err = qaoa.Build(g, qaoa.Params{
			Gammas: []float64{rng.Float64(), rng.Float64()}, Betas: []float64{rng.Float64(), rng.Float64()},
		}); err != nil {
			t.Fatal(err)
		}
		if circuits[fmt.Sprintf("grcs/%d", seed)], err = grcs.Generate(grcs.Options{Rows: 2, Cols: 4, Depth: 6, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		for _, family := range []struct {
			name string
			two  func(a, b int) gate.Gate
		}{{"cx-fans", gate.CNOT}, {"cz-fans", gate.CZ}} {
			c := circuit.New(n)
			for round := 0; round < 3; round++ {
				anchor := rng.Intn(cutPos + 1)
				for _, f := range rng.Perm(n - cutPos - 1)[:3] {
					fan := cutPos + 1 + f
					c.Append(family.two(anchor, fan), gate.X(fan), gate.T(fan), gate.RZ(rng.Float64(), anchor),
						gate.CNOT(anchor, (anchor+1)%(cutPos+1)))
				}
				c.Append(gate.RX(rng.Float64(), anchor))
			}
			circuits[fmt.Sprintf("%s/%d", family.name, seed)] = c
		}
		c := circuit.New(6)
		for i := 0; i < 60; i++ {
			g := lib[rng.Intn(len(lib))]
			qs := rng.Perm(6)
			c.Append(g.Remap(func(q int) int { return qs[q] }))
		}
		circuits[fmt.Sprintf("library/%d", seed)] = c
	}
	for name, c := range circuits {
		dag := circuit.BuildDAG(c)
		succ := dagOracle(c)
		if !reflect.DeepEqual(dag.Succ, succ) {
			t.Errorf("%s: BuildDAG edge set differs from the commutator oracle's", name)
		}
		edges := 0
		for _, s := range succ {
			edges += len(s)
		}
		if edges == 0 {
			t.Errorf("%s: no edges, the case exercises nothing", name)
		}
	}
}

// rotationsAt returns every library rotation with all its angles at a.
func rotationsAt(a float64) []gate.Gate {
	return []gate.Gate{
		gate.RX(a, 0), gate.RY(a, 0), gate.RZ(a, 0), gate.P(a, 0), gate.U3(a, a, a, 0),
		gate.RZZ(a, 0, 1), gate.RXX(a, 0, 1), gate.RYY(a, 0, 1), gate.CPhase(a, 0, 1),
		gate.CRX(a, 0, 1), gate.CRY(a, 0, 1), gate.CRZ(a, 0, 1), gate.FSim(a, a, 0, 1),
	}
}

// TestCommuteMatchesOracleAtSpecialAngles holds Commute against the oracle
// where rotations degenerate: at 0, π/2, π, 2π and 4π entries vanish or turn
// into ±1 (RX(0) is the identity, RZZ(2π) is −I, RX(π) a phase
// permutation), and 1e-9 to either side they do not quite. Every rotation at
// every such angle meets the library and the rotations at the same angle in
// every overlapping placement on four qubits.
func TestCommuteMatchesOracleAtSpecialAngles(t *testing.T) {
	pairs, commuting := 0, 0
	for _, base := range []float64{0, math.Pi / 2, math.Pi, 2 * math.Pi, 4 * math.Pi} {
		for _, a := range []float64{base - 1e-9, base, base + 1e-9} {
			rot := rotationsAt(a)
			others := append(library(), rot...)
			for i := range rot {
				x := &rot[i]
				for j := range others {
					for _, qs := range placements(others[j].NumQubits(), 4) {
						y := others[j].Remap(func(q int) int { return qs[q] })
						if !x.SharesQubit(&y) {
							continue
						}
						want := commuteOracle(x, &y)
						if got := circuit.Commute(x, &y); got != want {
							t.Errorf("Commute(%v, %v) at angle %v = %v, commutator says %v", x, &y, a, got, want)
						}
						if got := circuit.Commute(&y, x); got != want {
							t.Errorf("Commute(%v, %v) at angle %v = %v, commutator says %v", &y, x, a, got, want)
						}
						pairs++
						if want {
							commuting++
						}
					}
				}
			}
		}
	}
	if commuting == 0 || commuting == pairs {
		t.Fatalf("%d placements, %d commuting: the table exercises nothing", pairs, commuting)
	}
}

// TestCommuteRandomDiagonalsMatchOracle holds the closed form for a
// diagonal gate against the oracle with random three- and four-qubit
// diagonals, some entries repeated so that a qubit drops out of the
// diagonal, against every one-qubit library gate on each of the four qubits.
func TestCommuteRandomDiagonalsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	oneQubit := []gate.Gate{}
	for _, g := range library() {
		if g.NumQubits() == 1 {
			oneQubit = append(oneQubit, g)
		}
	}
	oneQubit = append(oneQubit, gate.RX(0, 0), gate.RX(math.Pi, 0), gate.RY(2*math.Pi, 0))
	pairs, commuting := 0, 0
	for it := 0; it < 200; it++ {
		k := 3 + it%2
		d := cmat.New(1<<k, 1<<k)
		free := rng.Intn(k + 1) // the diagonal ignores matrix bit free (none when free == k)
		for i := 0; i < 1<<k; i++ {
			if free < k && i>>free&1 == 1 {
				d.Data[i*(1<<k+1)] = d.Data[(i^1<<free)*(1<<k+1)]
				continue
			}
			d.Data[i*(1<<k+1)] = cmplx.Rect(1, 2*math.Pi*rng.Float64())
		}
		qs := rng.Perm(4)[:k]
		dg := gate.New("diag", d, nil, qs...)
		for i := range oneQubit {
			for q := 0; q < 4; q++ {
				u := oneQubit[i].Remap(func(int) int { return q })
				if !dg.SharesQubit(&u) {
					continue
				}
				want := commuteOracle(&dg, &u)
				if got := circuit.Commute(&dg, &u); got != want {
					t.Errorf("Commute(%v, %v) = %v, commutator says %v", &dg, &u, got, want)
				}
				if got := circuit.Commute(&u, &dg); got != want {
					t.Errorf("Commute(%v, %v) = %v, commutator says %v", &u, &dg, got, want)
				}
				pairs++
				if want {
					commuting++
				}
			}
		}
	}
	if commuting == 0 || commuting == pairs {
		t.Fatalf("%d pairs, %d commuting: the table exercises nothing", pairs, commuting)
	}
}
