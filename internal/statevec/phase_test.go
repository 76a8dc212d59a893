package statevec

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
	"hsfsim/internal/par"
)

// forEachArm runs fn under every kernel arm this process has and restores the
// installed one.
func forEachArm(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	orig := KernelISA()
	defer func() {
		if err := SelectKernelISA(orig); err != nil {
			t.Fatalf("restoring arm %q: %v", orig, err)
		}
	}()
	for _, isa := range KernelISAs() {
		t.Run(isa, func(t *testing.T) {
			if err := SelectKernelISA(isa); err != nil {
				t.Fatal(err)
			}
			fn(t)
		})
	}
}

func cloneGates(gs []gate.Gate) []gate.Gate {
	out := make([]gate.Gate, len(gs))
	for i := range gs {
		out[i] = gs[i].Clone()
	}
	return out
}

// checkCompiled compares the compiled segment on a random state with
// gate-by-gate Vector.ApplyAll and with the dense-matvec State oracle, both on
// unprepared clones in the original order.
func checkCompiled(t *testing.T, rng *rand.Rand, gs []gate.Gate, n, tileQ int) *CompiledSegment {
	t.Helper()
	s := randomState(rng, n)
	aos := s.Clone()
	aos.ApplyAll(cloneGates(gs))
	soa := FromComplex(s)
	soa.ApplyAll(cloneGates(gs))
	got := FromComplex(s)
	cs := compileSegment(gs, n, tileQ)
	cs.Apply(got)
	for i := range aos {
		a := got.Amplitude(i)
		if !(cmplx.Abs(a-aos[i]) <= parityTol) || !(cmplx.Abs(a-soa.Amplitude(i)) <= parityTol) { // NaN fails too
			t.Fatalf("n=%d tileQ=%d amplitude %d: compiled %v, State %v, ApplyAll %v", n, tileQ, i, a, aos[i], soa.Amplitude(i))
		}
	}
	return cs
}

// pick returns k distinct qubits of [lo,hi) in random order.
func pick(rng *rand.Rand, lo, hi, k int) []int {
	qs := rng.Perm(hi - lo)[:k]
	for i := range qs {
		qs[i] += lo
	}
	return qs
}

// randDiagonal draws one diagonal library gate on qs (1–3 qubits), in the
// operand order given.
func randDiagonal(rng *rand.Rand, qs []int) gate.Gate {
	th := rng.Float64()*6 - 3
	switch len(qs) {
	case 1:
		if rng.Intn(2) == 0 {
			return gate.RZ(th, qs[0])
		}
		return gate.P(th, qs[0])
	case 2:
		switch rng.Intn(5) {
		case 0:
			return gate.RZZ(th, qs[0], qs[1])
		case 1:
			return gate.CZ(qs[0], qs[1])
		case 2:
			return gate.CPhase(th, qs[0], qs[1])
		case 3:
			return gate.CRZ(th, qs[0], qs[1])
		}
		return randDiagGate(rng, 0, qs...) // what fusing a diagonal cluster gives
	}
	if rng.Intn(2) == 0 {
		return gate.CCZ(qs[0], qs[1], qs[2])
	}
	return randDiagGate(rng, 0, qs...)
}

// phaseGates reports how many gates the segment's phase steps hold.
func phaseGates(cs *CompiledSegment) (steps, gates int) {
	for i := 0; i < cs.NumSteps(); i++ {
		if kind, n := cs.Step(i); kind == StepPhase {
			steps++
			gates += n
		}
	}
	return steps, gates
}

// TestPhaseStepParity runs random diagonal runs on scattered labels — members
// entirely below the tile boundary, entirely at or above it, across it in both
// operand orders, and straddlers with two qubits below it, which must stay
// ordinary gates — under every kernel arm, at, just above and well above one
// tile.
func TestPhaseStepParity(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for tileQ := 3; tileQ <= 6; tileQ++ {
			for _, n := range []int{tileQ, tileQ + 1, tileQ + 3} {
				for rep := 0; rep < 4; rep++ {
					var gs []gate.Gate
					members, straddlers := 0, 0
					for len(gs) < 24 {
						nHigh := n - tileQ
						switch kind := rng.Intn(5); {
						case kind == 0: // below the boundary
							gs = append(gs, randDiagonal(rng, pick(rng, 0, tileQ, 1+rng.Intn(3))))
							members++
						case nHigh == 0:
						case kind == 1: // at or above it
							gs = append(gs, randDiagonal(rng, pick(rng, tileQ, n, 1+rng.Intn(min(3, nHigh)))))
							members++
						case kind == 2 || kind == 3: // across it: one qubit below
							qs := append(pick(rng, 0, tileQ, 1), pick(rng, tileQ, n, 1+rng.Intn(min(2, nHigh)))...)
							if kind == 3 {
								qs[0], qs[len(qs)-1] = qs[len(qs)-1], qs[0]
							}
							gs = append(gs, randDiagonal(rng, qs))
							members++
						default: // two below, one above
							qs := append(pick(rng, 0, tileQ, 2), pick(rng, tileQ, n, 1)...)
							rng.Shuffle(3, func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
							gs = append(gs, randDiagonal(rng, qs))
							straddlers++
						}
					}
					cs := checkCompiled(t, rng, gs, n, tileQ)
					steps, got := phaseGates(cs)
					switch {
					case n == tileQ && steps != 0:
						t.Fatalf("n=tileQ=%d: %d phase steps, want none", n, steps)
					case n > tileQ && (steps != 1 || got != members):
						t.Fatalf("n=%d tileQ=%d: %d phase steps holding %d gates, want 1 holding %d (%d straddlers outside)",
							n, tileQ, steps, got, members, straddlers)
					}
				}
			}
		}
	})
}

// TestPhaseStepProjectors: cut terms are not unitary. Projector diagonals in
// every position of a run, the cross position included, must give exact zeros
// — a table built by dividing out a factor would give NaN.
func TestPhaseStepProjectors(t *testing.T) {
	const tileQ, n = 4, 7
	diag := func(d ...complex128) *cmat.Matrix {
		m := cmat.New(len(d), len(d))
		for i, x := range d {
			m.Set(i, i, x)
		}
		return m
	}
	p0, p1 := diag(1, 0), diag(0, 1)
	gs := []gate.Gate{
		gate.RZZ(0.3, 1, 5), gate.RZZ(0.9, 2, 6), gate.CZ(0, 4),
		gate.New("cut-term", diag(1, 0, 0, 0.5i), nil, 3, 5), // low qubit first
		gate.New("cut-term", diag(0, 1, 2, 0), nil, 6, 1),    // high qubit first
		gate.New("cut-term", p0, nil, 2),
		gate.New("cut-term", p1, nil, 4),
		gate.New("cut-term", p1, nil, 0),
	}
	rng := rand.New(rand.NewSource(43))
	cs := checkCompiled(t, rng, gs, n, tileQ)
	if steps, got := phaseGates(cs); steps != 1 || got != len(gs) {
		t.Fatalf("%d phase steps holding %d gates, want 1 holding %d", steps, got, len(gs))
	}
	v := FromComplex(randomState(rng, n))
	cs.Apply(v)
	zeros := 0
	for i := range v.Re {
		if math.IsNaN(v.Re[i]) || math.IsInf(v.Re[i], 0) || math.IsNaN(v.Im[i]) || math.IsInf(v.Im[i], 0) {
			t.Fatalf("amplitude %d = %v", i, v.Amplitude(i))
		}
		if v.Amplitude(i) == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("projectors left no zero amplitude")
	}
}

// TestPhaseStepParallelBitIdentical: tiles are independent, so splitting them
// over the parallelism budget must not change a single bit (run it under
// -race: workers share the tables and borrow their own scratch).
func TestPhaseStepParallelBitIdentical(t *testing.T) {
	const tileQ, n = 5, 10
	rng := rand.New(rand.NewSource(44))
	var gs []gate.Gate
	for i := 0; i < 30; i++ {
		gs = append(gs, randDiagonal(rng, append(pick(rng, 0, tileQ, 1), pick(rng, tileQ, n, 1)...)))
	}
	gs = append(gs, gate.H(2), gate.CNOT(1, 8), gate.RZZ(0.4, 2, 9), gate.RZ(0.2, 8), gate.CZ(0, 6), gate.CZ(4, 5))
	cs := compileSegment(gs, n, tileQ)
	if steps, _ := phaseGates(cs); steps != 2 {
		t.Fatalf("%d phase steps, want 2", steps)
	}
	s := randomState(rng, n)
	seq, parl := FromComplex(s), FromComplex(s)
	withProcs(t, 4, func() {
		release := par.Reserve(4)
		cs.Apply(seq)
		release()
		if par.Inner() != 4 {
			t.Fatalf("Inner() = %d, want 4", par.Inner())
		}
		cs.Apply(parl)
	})
	for i := range seq.Re {
		if seq.Re[i] != parl.Re[i] || seq.Im[i] != parl.Im[i] {
			t.Fatalf("amplitude %d: sequential %v, parallel %v", i, seq.Amplitude(i), parl.Amplitude(i))
		}
	}
}

// libraryGate draws any gate of the library on random qubits of [0,n).
func libraryGate(rng *rand.Rand, n int) gate.Gate {
	th := rng.Float64()*6 - 3
	q := pick(rng, 0, n, min(3, n))
	switch rng.Intn(30) {
	case 0:
		return gate.X(q[0])
	case 1:
		return gate.Y(q[0])
	case 2:
		return gate.Z(q[0])
	case 3:
		return gate.H(q[0])
	case 4:
		return gate.S(q[0])
	case 5:
		return gate.T(q[0])
	case 6:
		return gate.SX(q[0])
	case 7:
		return gate.SY(q[0])
	case 8:
		return gate.SW(q[0])
	case 9:
		return gate.RX(th, q[0])
	case 10:
		return gate.RY(th, q[0])
	case 11:
		return gate.RZ(th, q[0])
	case 12:
		return gate.P(th, q[0])
	case 13:
		return gate.U3(th, th/2, -th, q[0])
	case 14:
		return gate.CNOT(q[0], q[1])
	case 15:
		return gate.CZ(q[0], q[1])
	case 16:
		return gate.CPhase(th, q[0], q[1])
	case 17:
		return gate.SWAP(q[0], q[1])
	case 18:
		return gate.ISWAP(q[0], q[1])
	case 19:
		return gate.RZZ(th, q[0], q[1])
	case 20:
		return gate.RXX(th, q[0], q[1])
	case 21:
		return gate.RYY(th, q[0], q[1])
	case 22:
		return gate.FSim(th, th/3, q[0], q[1])
	case 23:
		return gate.CRX(th, q[0], q[1])
	case 24:
		return gate.CRY(th, q[0], q[1])
	case 25:
		return gate.CRZ(th, q[0], q[1])
	case 26:
		return gate.CCX(q[0], q[1], q[2])
	case 27:
		return gate.CCZ(q[0], q[1], q[2])
	case 28:
		return gate.Sdg(q[0])
	}
	return gate.Tdg(q[0])
}

// TestGatherProperty: over random circuits from the whole gate library,
// diagonal-heavy so that runs form, the compiled segment equals the
// uncompiled gate list and holds every gate exactly once.
func TestGatherProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	sawPhase, sawPair := 0, 0
	for rep := 0; rep < 120; rep++ {
		n := 6 + rng.Intn(5)
		tileQ := 3 + rng.Intn(3)
		var gs []gate.Gate
		for len(gs) < 40 {
			if rng.Intn(3) == 0 {
				gs = append(gs, libraryGate(rng, n))
			} else {
				gs = append(gs, randDiagonal(rng, pick(rng, 0, n, 1+rng.Intn(2))))
			}
		}
		cs := checkCompiled(t, rng, gs, n, tileQ)
		// Gate structs are copied, matrices shared: count by matrix identity.
		seen := map[*cmat.Matrix]int{}
		for i := range cs.steps {
			for j := range cs.steps[i].gates {
				seen[cs.steps[i].gates[j].Matrix]++
			}
		}
		for i := range gs {
			if seen[gs[i].Matrix] != 1 {
				t.Fatalf("rep %d: gate %d (%v) appears %d times in the compiled segment", rep, i, gs[i], seen[gs[i].Matrix])
			}
		}
		if len(seen) != len(gs) {
			t.Fatalf("rep %d: compiled segment holds %d gates, circuit %d", rep, len(seen), len(gs))
		}
		steps, _ := phaseGates(cs)
		sawPhase += steps
		for i := range cs.steps {
			if cs.steps[i].pair != nil {
				sawPair++
			}
		}
	}
	if sawPhase < 100 || sawPair < 20 {
		t.Fatalf("only %d phase steps and %d pairs over the property run: the circuits do not exercise the gather and the pairing", sawPhase, sawPair)
	}
	t.Logf("%d phase steps, %d pairs", sawPhase, sawPair)
}

// TestGatherPins fixes what may and may not pass an open run, on a 6-qubit
// register with the boundary at 3: each case gives the compiled gate order and
// the phase-step sizes.
func TestGatherPins(t *testing.T) {
	const tileQ, n = 3, 6
	// Three members reaching the boundary, on qubits 0, 1, 3, 4.
	r := []gate.Gate{gate.RZZ(0.3, 0, 3), gate.RZZ(0.5, 1, 4), gate.RZZ(0.7, 0, 4)}
	// Three more that share qubits 3 and 4 with them.
	r2 := []gate.Gate{gate.RZZ(0.2, 2, 3), gate.CZ(2, 4), gate.CZ(2, 5)}
	h2, rx3 := gate.H(2), gate.RX(0.4, 3)
	cnot50, cnot32 := gate.CNOT(5, 0), gate.CNOT(3, 2) // control first
	rz5, rz0, h5, x2 := gate.RZ(0.1, 5), gate.RZ(0.1, 0), gate.H(5), gate.X(2)
	ccz, cz25, p1 := gate.CCZ(0, 1, 4), gate.CZ(2, 5), gate.P(0.2, 1)
	for _, tc := range []struct {
		name      string
		in, order []gate.Gate
		phases    []int
	}{
		{"a disjoint non-diagonal gate moves in front of the run",
			[]gate.Gate{r[0], r[1], r[2], h2, r2[0]}, []gate.Gate{h2, r[0], r[1], r[2], r2[0]}, []int{4}},
		{"RX between two RZZ layers on a shared qubit keeps two runs",
			[]gate.Gate{r[0], r[1], r[2], rx3, r2[0], r2[1], r2[2]}, []gate.Gate{r[0], r[1], r[2], rx3, r2[0], r2[1], r2[2]}, []int{3, 3}},
		{"RZ on a CNOT control joins the run in front of it",
			[]gate.Gate{r[0], r[1], r[2], cnot50, rz5}, []gate.Gate{r[0], r[1], r[2], rz5, cnot50}, []int{4}},
		{"RZ on a CNOT target does not",
			[]gate.Gate{r[0], r[1], r[2], cnot50, rz0}, []gate.Gate{r[0], r[1], r[2], cnot50, rz0}, []int{3}},
		{"H on a CNOT control does not hop",
			[]gate.Gate{r[0], r[1], r[2], cnot50, h5}, []gate.Gate{r[0], r[1], r[2], cnot50, h5}, []int{3}},
		{"X on a CNOT target does not hop",
			[]gate.Gate{r[0], r[1], r[2], rx3, cnot32, x2}, []gate.Gate{r[0], r[1], r[2], rx3, cnot32, x2}, []int{3}},
		{"two members reaching the boundary are not worth a pass; those below it go first",
			[]gate.Gate{r[0], rz0, r[1], p1}, []gate.Gate{rz0, p1, r[0], r[1]}, nil},
		{"a straddler stays out of the run and blocks nothing",
			[]gate.Gate{r[0], r[1], r[2], ccz, cz25}, []gate.Gate{ccz, r[0], r[1], r[2], cz25}, []int{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := checkCompiled(t, rand.New(rand.NewSource(46)), cloneGates(tc.in), n, tileQ)
			var order []string
			var phases []int
			for i := range cs.steps {
				for j := range cs.steps[i].gates {
					order = append(order, cs.steps[i].gates[j].String())
				}
				if cs.steps[i].kind == StepPhase {
					phases = append(phases, len(cs.steps[i].gates))
				}
			}
			var want []string
			for i := range tc.order {
				want = append(want, tc.order[i].String())
			}
			if !slices.Equal(order, want) {
				t.Errorf("compiled order %v, want %v", order, want)
			}
			if !slices.Equal(phases, tc.phases) {
				t.Errorf("phase steps %v, want %v", phases, tc.phases)
			}
		})
	}
}

// TestPairHighPins fixes which 1-qubit gates above the tile boundary pair
// into one pass, on a 6-qubit register with the boundary at 3: each case
// gives the compiled gate order and the number of paired steps.
func TestPairHighPins(t *testing.T) {
	const tileQ, n = 3, 6
	rx3, h3, h4, h5 := gate.RX(0.4, 3), gate.H(3), gate.H(4), gate.H(5)
	rx2, rz4, cnot21, cnot41 := gate.RX(0.6, 2), gate.RZ(0.2, 4), gate.CNOT(2, 1), gate.CNOT(4, 1)
	r := []gate.Gate{gate.RZZ(0.3, 0, 3), gate.RZZ(0.5, 1, 4), gate.RZZ(0.7, 0, 4)}
	for _, tc := range []struct {
		name      string
		in, order []gate.Gate
		pairs     int
	}{
		{"adjacent gates on two high qubits pair", []gate.Gate{rx3, h4}, []gate.Gate{rx3, h4}, 1},
		{"the second moves past a gate that does not touch it",
			[]gate.Gate{rx3, cnot21, h4}, []gate.Gate{rx3, h4, cnot21}, 1},
		{"an entangler on the second qubit blocks it", []gate.Gate{rx3, cnot41, h4}, []gate.Gate{rx3, cnot41, h4}, 0},
		{"a diagonal gate on the second qubit blocks it", []gate.Gate{rx3, rz4, h4}, []gate.Gate{rx3, rz4, h4}, 0},
		{"two gates on one qubit do not pair", []gate.Gate{rx3, h3}, []gate.Gate{rx3, h3}, 0},
		{"a gate below the boundary does not pair", []gate.Gate{rx2, rx3}, []gate.Gate{rx2, rx3}, 0},
		{"a blocked gate is skipped for the next one", []gate.Gate{rx3, cnot41, h4, h5}, []gate.Gate{rx3, h5, cnot41, h4}, 1},
		{"pairs do not reach across a phase run", []gate.Gate{rx3, r[0], r[1], r[2], h4}, []gate.Gate{rx3, r[0], r[1], r[2], h4}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := checkCompiled(t, rand.New(rand.NewSource(48)), cloneGates(tc.in), n, tileQ)
			var order []string
			pairs := 0
			for i := range cs.steps {
				for j := range cs.steps[i].gates {
					order = append(order, cs.steps[i].gates[j].String())
				}
				if cs.steps[i].pair != nil {
					pairs++
				}
			}
			var want []string
			for i := range tc.order {
				want = append(want, tc.order[i].String())
			}
			if !slices.Equal(order, want) || pairs != tc.pairs {
				t.Errorf("compiled order %v with %d pairs, want %v with %d", order, pairs, want, tc.pairs)
			}
		})
	}
}

// TestPhaseStepWritesProduct: compiled from a product state — components
// zero, one or random, so the written tiles hold exact zeros — a segment
// whose first step is a phase step writes the state there, and equals the
// product state with the gates applied one by one; one whose first step is
// not keeps the product-state write. Under every kernel arm, at, just above
// and well above one tile.
func TestPhaseStepWritesProduct(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(49))
		writes := 0
		for rep := 0; rep < 24; rep++ {
			tileQ := 3 + rng.Intn(3)
			n := tileQ + []int{0, 1, 3}[rep%3]
			qs := make([][2]complex128, n)
			for q := range qs {
				switch rng.Intn(4) {
				case 0:
					qs[q] = [2]complex128{1, 0}
				case 1:
					qs[q] = [2]complex128{0, 1}
				default:
					u := randUnitary(rng, 2)
					qs[q] = [2]complex128{u.Data[0], u.Data[2]}
				}
			}
			var gs []gate.Gate
			for i := 0; rep%2 == 0 && n > tileQ && i < 6; i++ { // a phase run first
				gs = append(gs, randDiagonal(rng, append(pick(rng, 0, tileQ, 1), pick(rng, tileQ, n, 1)...)))
			}
			if rep%2 == 1 {
				gs = append(gs, libraryGate(rng, n)) // the first step is rarely a phase step
			}
			for len(gs) < 30 {
				if rng.Intn(4) == 0 {
					gs = append(gs, libraryGate(rng, n))
				} else {
					gs = append(gs, randDiagonal(rng, pick(rng, 0, n, 1+rng.Intn(2))))
				}
			}
			want := NewProductVector(qs)
			want.ApplyAll(cloneGates(gs))
			cs := compileProduct(qs, gs, tileQ)
			got := cs.NewState()
			cs.Apply(got)
			if d := MaxAbsDiffVec(got, want); !(d <= parityTol) {
				t.Fatalf("rep %d n=%d tileQ=%d: %g from the gate-by-gate state", rep, n, tileQ, d)
			}
			if kind, _ := cs.Step(0); cs.writes != (kind == StepPhase) {
				t.Fatalf("rep %d: first step %v, writes %v", rep, kind, cs.writes)
			}
			if cs.writes {
				writes++
			}
		}
		if writes < 6 {
			t.Fatalf("only %d writing phase steps: the circuits do not exercise them", writes)
		}
	})
}

// TestProductVector checks the doubling write against gates applied to
// |0…0⟩, below, at and above one tile, with zero components.
func TestProductVector(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{0, 1, 5, DefaultTileQubits, DefaultTileQubits + 2} {
		qs := make([][2]complex128, n)
		want := NewState(n)
		for q := range qs {
			qs[q] = [2]complex128{1, 0}
			switch rng.Intn(4) {
			case 0: // idle
			case 1:
				qs[q] = [2]complex128{0, 1}
				x := gate.X(q)
				want.ApplyGate(&x)
			default:
				u := gate.New("u", randUnitary(rng, 2), nil, q)
				qs[q] = [2]complex128{u.Matrix.Data[0], u.Matrix.Data[2]}
				want.ApplyGate(&u)
			}
		}
		got := NewProductVector(qs)
		for i := range want {
			if cmplx.Abs(got.Amplitude(i)-want[i]) > parityTol {
				t.Fatalf("n=%d amplitude %d: got %v want %v", n, i, got.Amplitude(i), want[i])
			}
		}
	}
}
