package gate

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hsfsim/internal/cmat"
)

// TestClassificationAudit walks every library constructor and asserts the
// kernel classification lattice: the dispatch class (Class) plus the raw
// flags it derives from. A gate may satisfy several structures at once — CZ
// is simultaneously diagonal, controlled on both bits, and a
// phase-permutation — so the table pins the flags, not just the winner.
func TestClassificationAudit(t *testing.T) {
	type want struct {
		class    Kind
		controls int  // expected Controls bitmask
		perm     bool // Perm != nil
		pure     bool // Perm != nil && PermPhase == nil
	}
	cases := []struct {
		g Gate
		w want
	}{
		// Single-qubit.
		{I(0), want{class: KindDiagonal, controls: 1, perm: true, pure: true}},
		{X(0), want{class: KindPermutation, perm: true, pure: true}},
		{Y(0), want{class: KindPhasePermutation, perm: true}},
		{Z(0), want{class: KindDiagonal, controls: 1, perm: true}},
		{H(0), want{class: KindDense}},
		{S(0), want{class: KindDiagonal, controls: 1, perm: true}},
		{Sdg(0), want{class: KindDiagonal, controls: 1, perm: true}},
		{T(0), want{class: KindDiagonal, controls: 1, perm: true}},
		{Tdg(0), want{class: KindDiagonal, controls: 1, perm: true}},
		{SX(0), want{class: KindDense}},
		{SY(0), want{class: KindDense}},
		{SW(0), want{class: KindDense}},
		{RX(0.7, 0), want{class: KindDense}},
		{RY(0.7, 0), want{class: KindDense}},
		{RZ(0.7, 0), want{class: KindDiagonal, perm: true}}, // no identity entry: not a control
		{P(0.7, 0), want{class: KindDiagonal, controls: 1, perm: true}},
		{U3(0.3, 0.4, 0.5, 0), want{class: KindDense}},
		// Two-qubit.
		{CNOT(0, 1), want{class: KindPermutation, controls: 1, perm: true, pure: true}},
		{CZ(0, 1), want{class: KindDiagonal, controls: 3, perm: true}},
		{CPhase(0.4, 0, 1), want{class: KindDiagonal, controls: 3, perm: true}},
		{SWAP(0, 1), want{class: KindPermutation, perm: true, pure: true}},
		{ISWAP(0, 1), want{class: KindPhasePermutation, perm: true}},
		{RZZ(0.4, 0, 1), want{class: KindDiagonal, perm: true}},
		{RXX(0.4, 0, 1), want{class: KindDense}},
		{RYY(0.4, 0, 1), want{class: KindDense}},
		{FSim(0.4, 0.2, 0, 1), want{class: KindDense}},
		{CRX(0.4, 0, 1), want{class: KindControlled, controls: 1}},
		{CRY(0.4, 0, 1), want{class: KindControlled, controls: 1}},
		{CRZ(0.4, 0, 1), want{class: KindDiagonal, controls: 1, perm: true}},
		// Three-qubit.
		{CCX(0, 1, 2), want{class: KindPermutation, controls: 3, perm: true, pure: true}},
		{CCZ(0, 1, 2), want{class: KindDiagonal, controls: 7, perm: true}},
	}
	for _, c := range cases {
		g := c.g
		if got := g.Class(); got != c.w.class {
			t.Errorf("%s: class %v, want %v", g.Name, got, c.w.class)
		}
		if g.Controls != c.w.controls {
			t.Errorf("%s: controls %04b, want %04b", g.Name, g.Controls, c.w.controls)
		}
		if (g.Perm != nil) != c.w.perm {
			t.Errorf("%s: perm presence %v, want %v", g.Name, g.Perm != nil, c.w.perm)
		}
		if c.w.perm && (g.PermPhase == nil) != c.w.pure {
			t.Errorf("%s: pure-permutation %v, want %v", g.Name, g.PermPhase == nil, c.w.pure)
		}
	}
}

// TestPermConsistency checks that the recorded permutation reproduces the
// matrix exactly: column c has its single nonzero at row Perm[c] with value
// PermPhase[c] (1 when PermPhase is nil).
func TestPermConsistency(t *testing.T) {
	for _, g := range []Gate{X(0), Y(0), Z(0), CNOT(0, 1), SWAP(0, 1), ISWAP(0, 1), CCX(0, 1, 2), CZ(0, 1)} {
		if g.Perm == nil {
			t.Fatalf("%s: expected permutation structure", g.Name)
		}
		dim := g.Matrix.Rows
		for c := 0; c < dim; c++ {
			ph := complex128(1)
			if g.PermPhase != nil {
				ph = g.PermPhase[c]
			}
			for r := 0; r < dim; r++ {
				want := complex128(0)
				if r == g.Perm[c] {
					want = ph
				}
				if cmplx.Abs(g.Matrix.At(r, c)-want) > 1e-14 {
					t.Fatalf("%s: entry (%d,%d) = %v, want %v", g.Name, r, c, g.Matrix.At(r, c), want)
				}
			}
		}
	}
}

// TestRemapPreservesClassification: the flags live in matrix-index space, so
// relabeling qubits must carry them over verbatim.
func TestRemapPreservesClassification(t *testing.T) {
	for _, g := range []Gate{CNOT(2, 5), CRX(0.3, 1, 4), CCZ(0, 3, 6), ISWAP(2, 7)} {
		r := g.Remap(func(q int) int { return q + 10 })
		if r.Class() != g.Class() || r.Controls != g.Controls || (r.Perm == nil) != (g.Perm == nil) {
			t.Errorf("%s: remap changed classification (%v→%v)", g.Name, g.Class(), r.Class())
		}
	}
}

// TestDaggerRecomputesClassification: the adjoint of a permutation is the
// inverse permutation with conjugated phases; diagonality and controls are
// preserved; and a dense gate stays dense.
func TestDaggerRecomputesClassification(t *testing.T) {
	g := ISWAP(0, 1)
	d := g.Dagger()
	if d.Class() != KindPhasePermutation {
		t.Fatalf("iswap†: class %v", d.Class())
	}
	for c := 0; c < 4; c++ {
		if d.Perm[g.Perm[c]] != c {
			t.Fatalf("iswap†: permutation not inverted")
		}
	}
	if d.PermPhase[g.Perm[0]] != cmplx.Conj(g.PermPhase[0]) {
		t.Fatalf("iswap†: phases not conjugated")
	}
	crx := CRX(0.9, 0, 1)
	dcrx := crx.Dagger()
	if dcrx.Class() != KindControlled || dcrx.Controls != 1 {
		t.Fatalf("crx†: class %v controls %b", dcrx.Class(), dcrx.Controls)
	}
	hg := H(0)
	if h := hg.Dagger(); h.Class() != KindDense {
		t.Fatalf("h†: class %v", h.Class())
	}
	sg := S(0)
	if s := sg.Dagger(); s.Class() != KindDiagonal || s.Controls != 1 {
		t.Fatalf("s†: class %v", s.Class())
	}
}

// TestReclassifyAfterMatrixMutation: mutating the matrix in place and
// reclassifying must refresh every flag and drop the kernel cache.
func TestReclassifyAfterMatrixMutation(t *testing.T) {
	g := Z(0) // diagonal
	g.SetKernelCache("stale")
	g.Matrix = cmat.FromSlice(2, 2, []complex128{0, 1, 1, 0}) // now X
	g.Reclassify()
	if g.Class() != KindPermutation || g.Diagonal || g.PermPhase != nil {
		t.Fatalf("reclassify: class %v diagonal %v", g.Class(), g.Diagonal)
	}
	if g.KernelCache() != nil {
		t.Fatal("reclassify kept a stale kernel cache")
	}
}

// TestClassificationRejectsNearMisses: matrices one entry away from a
// structure must fall back to the safe class.
func TestClassificationRejectsNearMisses(t *testing.T) {
	// A "controlled" matrix whose control-0 row couples into the control-1
	// block: columns look like identity but rows do not.
	m := cmat.Identity(4)
	m.Set(0, 3, 0.5)
	g := New("bad-ctrl", m, nil, 0, 1)
	if g.Controls&1 != 0 {
		t.Fatal("bit 0 flagged as control despite row coupling")
	}
	// Two nonzeros in one column: not a permutation.
	m2 := cmat.New(2, 2)
	m2.Set(0, 0, 1)
	m2.Set(1, 0, 1e-3)
	m2.Set(1, 1, 1)
	g2 := New("bad-perm", m2, nil, 0)
	if g2.Perm != nil {
		t.Fatal("near-diagonal matrix classified as permutation")
	}
	// A zero column: not a permutation either (projector).
	m3 := cmat.New(2, 2)
	m3.Set(0, 0, 1)
	g3 := New("proj", m3, nil, 0)
	if g3.Perm != nil {
		t.Fatal("projector classified as permutation")
	}
	if !g3.Diagonal {
		t.Fatal("projector should still be diagonal")
	}
}

// TestDiagonalOn checks the per-qubit commutation flag against its meaning:
// a gate diagonal on matrix bit b commutes with Z on that qubit, and one that
// is not does not.
func TestDiagonalOn(t *testing.T) {
	cases := []struct {
		g    Gate
		want []bool // per matrix bit
	}{
		{RZZ(0.3, 0, 1), []bool{true, true}},
		{CNOT(0, 1), []bool{true, false}}, // control, target
		{CRX(0.4, 1, 0), []bool{true, false}},
		{CCX(0, 1, 2), []bool{true, true, false}},
		{H(0), []bool{false}},
		{SWAP(0, 1), []bool{false, false}},
	}
	for _, tc := range cases {
		for b, want := range tc.want {
			if got := tc.g.DiagonalOn(b); got != want {
				t.Errorf("%s: DiagonalOn(%d) = %v, want %v", tc.g.Name, b, got, want)
			}
			// Z on matrix bit b as a full-size diagonal.
			dim := tc.g.Matrix.Rows
			z := cmat.Identity(dim)
			for i := 0; i < dim; i++ {
				if i>>b&1 == 1 {
					z.Set(i, i, -1)
				}
			}
			commutes := cmat.Commutator(tc.g.Matrix, z).FrobeniusNorm() < 1e-12
			if commutes != want {
				t.Errorf("%s: commutes with Z on bit %d = %v, flag says %v", tc.g.Name, b, commutes, want)
			}
		}
	}
}

// TestClassifyNearTolMatchesAbsRule sweeps matrix entries around classifyTol
// — magnitudes from a quarter to four times it, in every direction, and the
// exact zeros and ones between them — and holds Reclassify's flags to the
// rule they come from, cmplx.Abs(z) > classifyTol for every entry, which
// the classification now decides from the components and calls Hypot only
// in the band where those leave it open.
func TestClassifyNearTolMatchesAbsRule(t *testing.T) {
	abs := func(z complex128) bool { return cmplx.Abs(z) > classifyTol }
	refControls := func(m *cmat.Matrix) int {
		mask := 0
		for bit := 1; bit < m.Rows; bit <<= 1 {
			ok := true
			for r := 0; r < m.Rows; r++ {
				for c := 0; c < m.Cols; c++ {
					want := complex128(0)
					if r == c {
						want = 1
					}
					if (r&bit == 0 || c&bit == 0) && abs(m.At(r, c)-want) {
						ok = false
					}
				}
			}
			if ok {
				mask |= bit
			}
		}
		return mask
	}
	refPerm := func(m *cmat.Matrix) (perm []int, pure bool) {
		used := make([]bool, m.Rows)
		pure = true
		for c := 0; c < m.Cols; c++ {
			found := -1
			for r := 0; r < m.Rows; r++ {
				if abs(m.At(r, c)) {
					if found >= 0 {
						return nil, false
					}
					found = r
				}
			}
			if found < 0 || used[found] {
				return nil, false
			}
			used[found] = true
			perm = append(perm, found)
			pure = pure && m.At(found, c) == 1
		}
		return perm, pure
	}
	rng := rand.New(rand.NewSource(61))
	near := func() complex128 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return 1
		}
		r := classifyTol * math.Exp2(4*rng.Float64()-2) // tol/4 … 4·tol
		if rng.Intn(3) == 0 {
			r = classifyTol * (1 + 1e-3*(2*rng.Float64()-1)) // at the tolerance
		}
		switch rng.Intn(3) {
		case 0:
			return complex(r, 0)
		case 1:
			return complex(0, -r)
		}
		return cmplx.Rect(r, 2*math.Pi*rng.Float64())
	}
	for it := 0; it < 20000; it++ {
		n := 2 << rng.Intn(2)
		m := cmat.Identity(n)
		if rng.Intn(2) == 0 { // a permutation's support
			p := rng.Perm(n)
			m = cmat.New(n, n)
			for c, r := range p {
				m.Set(r, c, 1)
			}
		}
		for range 1 + rng.Intn(3) {
			m.Set(rng.Intn(n), rng.Intn(n), near())
		}
		if rng.Intn(4) == 0 {
			d := rng.Intn(n)
			m.Set(d, d, 1+near())
		}
		g := Gate{Matrix: m}
		g.Reclassify()
		diag := true
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				diag = diag && (r == c || !abs(m.At(r, c)))
			}
		}
		perm, pure := refPerm(m)
		if g.Diagonal != diag || g.Controls != refControls(m) ||
			!slices.Equal(g.Perm, perm) || (g.Perm != nil && (g.PermPhase == nil) != pure) {
			t.Fatalf("matrix %v: flags diag=%v controls=%b perm=%v phase=%v, the Abs rule gives diag=%v controls=%b perm=%v pure=%v",
				m.Data, g.Diagonal, g.Controls, g.Perm, g.PermPhase, diag, refControls(m), perm, pure)
		}
	}
}

// specialAngles are the rotation angles where entries of the library
// matrices vanish or turn into exact ±1 — 0, π/2, π, 2π, 4π — each also
// 1e-9 to either side, plus one generic angle.
func specialAngles() []float64 {
	out := []float64{0.7}
	for _, a := range []float64{0, math.Pi / 2, math.Pi, 2 * math.Pi, 4 * math.Pi} {
		out = append(out, a, a-1e-9, a+1e-9)
	}
	return out
}

// scanned returns the flags the three full matrix scans compute.
func scanned(m *cmat.Matrix) Gate {
	g := Gate{Matrix: m, Diagonal: checkDiagonal(m), Controls: checkControls(m)}
	g.Perm, g.PermPhase = checkPermutation(m)
	return g
}

// sameFlags reports whether two gates carry equal classification flags.
func sameFlags(a, b *Gate) bool {
	return a.Diagonal == b.Diagonal && a.Controls == b.Controls &&
		reflect.DeepEqual(a.Perm, b.Perm) && reflect.DeepEqual(a.PermPhase, b.PermPhase)
}

// TestStructuredClassificationMatchesScans holds every library constructor,
// at a generic angle and at every special angle, to the flags the full scans
// compute from its matrix, and so does Reclassify of the same matrix: the
// constructors read only the entries their structure lets vanish, and
// Reclassify reads a diagonal matrix's diagonal alone. A few matrices no
// constructor makes hold classify to the scans on its own.
func TestStructuredClassificationMatchesScans(t *testing.T) {
	gates := []Gate{I(0), X(0), Y(0), Z(0), H(0), S(0), Sdg(0), T(0), Tdg(0), SX(0), SY(0), SW(0),
		CNOT(0, 1), CZ(0, 1), SWAP(0, 1), ISWAP(0, 1), CCX(0, 1, 2), CCZ(0, 1, 2)}
	angles := specialAngles()
	for _, a := range angles {
		gates = append(gates, RX(a, 0), RY(a, 0), RZ(a, 0), P(a, 0),
			CPhase(a, 0, 1), RZZ(a, 0, 1), RXX(a, 0, 1), RYY(a, 0, 1), CRX(a, 0, 1), CRY(a, 0, 1), CRZ(a, 0, 1))
		for _, b := range angles {
			gates = append(gates, FSim(a, b, 0, 1))
			for _, c := range angles {
				gates = append(gates, U3(a, b, c, 0))
			}
		}
	}
	classes := map[Kind]int{}
	for i := range gates {
		g := &gates[i]
		want := scanned(g.Matrix)
		if !sameFlags(g, &want) {
			t.Errorf("%v: constructor flags diag=%v perm=%v phase=%v controls=%b, the scans give diag=%v perm=%v phase=%v controls=%b",
				g, g.Diagonal, g.Perm, g.PermPhase, g.Controls, want.Diagonal, want.Perm, want.PermPhase, want.Controls)
		}
		r := Gate{Matrix: g.Matrix}
		r.Reclassify()
		if !sameFlags(&r, &want) {
			t.Errorf("%v: Reclassify disagrees with the scans", g)
		}
		classes[g.Class()]++
	}
	// classify's contract beyond the library's patterns: two columns whose
	// one nonzero lands on the same row, an empty column, a triangle.
	for _, m := range [][]complex128{{1, 1, 0, 0}, {0, 1, 0, 1}, {1, 0.5, 0, 1}, {0, 1, 1, 0}} {
		g := Gate{Matrix: cmat.FromSlice(2, 2, m)}
		g.classify([][2]int{{0, 1}, {1, 0}})
		if want := scanned(g.Matrix); !sameFlags(&g, &want) {
			t.Errorf("%v: classify gives diag=%v perm=%v phase=%v controls=%b, the scans give diag=%v perm=%v phase=%v controls=%b",
				m, g.Diagonal, g.Perm, g.PermPhase, g.Controls, want.Diagonal, want.Perm, want.PermPhase, want.Controls)
		}
	}
	// The special angles must reach every class, or they exercise nothing.
	for k := KindDense; k <= KindControlled; k++ {
		if classes[k] == 0 {
			t.Errorf("no library gate at the special angles classifies as %v", k)
		}
	}
}
