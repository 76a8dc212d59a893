package statevec

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
)

// Gate generators for the kernel parity suites (this file and
// soa_parity_test.go): one builder per structure class a kernel arm
// specializes on.

// parityTol is the agreement bound between every Vector kernel and the
// dense-matvec oracle State.ApplyGate.
const parityTol = 1e-12

func randPhase(rng *rand.Rand) complex128 {
	return cmplx.Exp(complex(0, rng.Float64()*2*math.Pi))
}

// randDiagGate builds a diagonal gate on qs whose entries are 1 wherever the
// matrix index does not satisfy ctrl, and random phases where it does — so
// classification recovers at least the requested control mask.
func randDiagGate(rng *rand.Rand, ctrl int, qs ...int) gate.Gate {
	kdim := 1 << len(qs)
	m := cmat.New(kdim, kdim)
	for t := 0; t < kdim; t++ {
		if t&ctrl == ctrl {
			m.Set(t, t, randPhase(rng))
		} else {
			m.Set(t, t, 1)
		}
	}
	return gate.New(fmt.Sprintf("diag-c%d", ctrl), m, nil, qs...)
}

// randPermGate builds a (phase-)permutation gate from a uniform random
// permutation of the matrix indices.
func randPermGate(rng *rand.Rand, phased bool, qs ...int) gate.Gate {
	kdim := 1 << len(qs)
	perm := rng.Perm(kdim)
	m := cmat.New(kdim, kdim)
	for c := 0; c < kdim; c++ {
		if phased {
			m.Set(perm[c], c, randPhase(rng))
		} else {
			m.Set(perm[c], c, 1)
		}
	}
	return gate.New("perm", m, nil, qs...)
}

// randCtrlGate embeds a random dense unitary on the non-control bits,
// identity everywhere the control mask is unsatisfied (CRX-like).
func randCtrlGate(rng *rand.Rand, ctrl int, qs ...int) gate.Gate {
	k := len(qs)
	kdim := 1 << k
	var freeBits []int
	for b := 0; b < k; b++ {
		if ctrl&(1<<b) == 0 {
			freeBits = append(freeBits, b)
		}
	}
	fdim := 1 << len(freeBits)
	u := randUnitary(rng, fdim)
	m := cmat.Identity(kdim)
	spread := func(x int) int {
		t := ctrl
		for j, b := range freeBits {
			t |= ((x >> j) & 1) << b
		}
		return t
	}
	for r := 0; r < fdim; r++ {
		for c := 0; c < fdim; c++ {
			m.Set(spread(r), spread(c), u.At(r, c))
		}
	}
	return gate.New(fmt.Sprintf("ctrl-c%d", ctrl), m, nil, qs...)
}

// randSparseGate builds a block-sparse unitary: a random 2×2 unitary on bit 0
// multiplexed by the remaining bits (a different block per setting), which is
// neither diagonal, a permutation, nor controlled, but has only 2·kdim
// nonzeros.
func randSparseGate(rng *rand.Rand, qs ...int) gate.Gate {
	kdim := 1 << len(qs)
	m := cmat.New(kdim, kdim)
	for base := 0; base < kdim; base += 2 {
		u := randUnitary(rng, 2)
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				m.Set(base+r, base+c, u.At(r, c))
			}
		}
	}
	return gate.New("sparse", m, nil, qs...)
}

// The suites below run on the selected arm: random placements of each kernel
// class against the oracle, the class and plan kind each structure lands in,
// and the entry points other than ApplyGate. soa_parity_test.go sweeps its
// parity tables on every arm.

// TestKernel1Parity sweeps every single-qubit kernel class against the
// oracle on random states and random qubit placements, asserting the class
// each builder lands in.
func TestKernel1Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 8
	for iter := 0; iter < 40; iter++ {
		q := rng.Intn(n)
		builders := []struct {
			name string
			mk   func() gate.Gate
			want gate.Kind
		}{
			{"phase", func() gate.Gate { return gate.P(rng.Float64()*6, q) }, gate.KindDiagonal},
			{"diag", func() gate.Gate { return gate.RZ(rng.Float64()*6, q) }, gate.KindDiagonal},
			{"flip", func() gate.Gate { return gate.X(q) }, gate.KindPermutation},
			{"phaseflip", func() gate.Gate {
				m := cmat.New(2, 2)
				m.Set(1, 0, randPhase(rng))
				m.Set(0, 1, randPhase(rng))
				return gate.New("pp", m, nil, q)
			}, gate.KindPhasePermutation},
			{"dense", func() gate.Gate { return gate.New("u", randUnitary(rng, 2), nil, q) }, gate.KindDense},
		}
		for _, b := range builders {
			g := b.mk()
			if got := g.Class(); got != b.want {
				t.Fatalf("%s: class %v, want %v", b.name, got, b.want)
			}
			checkSoAParity(t, rng, &g, n)
		}
	}
}

// TestKernel2Parity sweeps every two-qubit kernel arm: controlled diagonals
// for each control mask, simple and generic (phase-)permutations, the
// controlled 2×2 matvec on either control bit, and the dense fallback.
func TestKernel2Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 8
	for iter := 0; iter < 40; iter++ {
		perm := rng.Perm(n)
		q0, q1 := perm[0], perm[1]
		gates := []gate.Gate{
			randDiagGate(rng, 0, q0, q1),
			randDiagGate(rng, 1, q0, q1),
			randDiagGate(rng, 2, q0, q1),
			randDiagGate(rng, 3, q0, q1),
			gate.CNOT(q0, q1),
			gate.SWAP(q0, q1),
			gate.ISWAP(q0, q1),
			randPermGate(rng, false, q0, q1),
			randPermGate(rng, true, q0, q1),
			randCtrlGate(rng, 1, q0, q1),
			randCtrlGate(rng, 2, q0, q1),
			gate.New("u4", randUnitary(rng, 4), nil, q0, q1),
		}
		for i := range gates {
			checkSoAParity(t, rng, &gates[i], n)
		}
	}
}

// TestKernelKParity sweeps the k-qubit plan kinds at k=3 and k=4, asserting
// both that the plan builder picks the intended kernel and that the kernel
// matches the oracle, on the fly and with the plan prepared.
func TestKernelKParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 9
	for _, k := range []int{3, 4} {
		for iter := 0; iter < 15; iter++ {
			perm := rng.Perm(n)
			qs := append([]int(nil), perm[:k]...)
			kdim := 1 << k
			cases := []struct {
				g    gate.Gate
				kind planKind
			}{
				{randDiagGate(rng, 0, qs...), planDiag},
				{randDiagGate(rng, 1<<rng.Intn(k), qs...), planDiag},
				{randDiagGate(rng, kdim-1, qs...), planDiag}, // CCZ-like: every bit a control
				{randPermGate(rng, false, qs...), planPerm},
				{randPermGate(rng, true, qs...), planPerm},
				{randCtrlGate(rng, 1, qs...), planCtrl},
				{randCtrlGate(rng, (kdim-1)&^2, qs...), planCtrl},
				{randSparseGate(rng, qs...), planSparse},
				{gate.New("dense", randUnitary(rng, kdim), nil, qs...), planDense},
			}
			for i := range cases {
				c := &cases[i]
				plan := buildKernelPlan(&c.g)
				if plan.kind != c.kind {
					t.Fatalf("k=%d %s: plan kind %d, want %d", k, c.g.Name, plan.kind, c.kind)
				}
				checkSoAParity(t, rng, &c.g, n)
				// Again with the plan prepared, exercising the cached path.
				PrepareGate(&c.g)
				checkSoAParity(t, rng, &c.g, n)
			}
		}
	}
}

// TestKernelParityParallel runs a kernel zoo on a state large enough to
// cross parallelThreshold with every gate left unprepared, so each k-qubit
// plan is built on the fly and then shared by the chunked parallelRange
// workers (TestSoAParityParallel covers the prepared gates).
func TestKernelParityParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("large state")
	}
	rng := rand.New(rand.NewSource(15))
	const n = 16
	gates := []gate.Gate{
		gate.P(0.8, 13),
		gate.X(2),
		gate.New("pp", func() *cmat.Matrix {
			m := cmat.New(2, 2)
			m.Set(1, 0, randPhase(rng))
			m.Set(0, 1, randPhase(rng))
			return m
		}(), nil, 9),
		gate.CZ(3, 14),
		gate.CNOT(15, 0),
		gate.ISWAP(5, 11),
		randCtrlGate(rng, 2, 1, 12),
		gate.CCX(4, 10, 15),
		gate.CCZ(0, 7, 13),
		randCtrlGate(rng, 1, 2, 8, 14),
		randSparseGate(rng, 3, 9, 15),
		gate.New("dense3", randUnitary(rng, 8), nil, 6, 1, 11),
	}
	s := randomState(rng, n)
	want := s.Clone()
	want.ApplyAll(gates)
	v := FromComplex(s)
	v.ApplyAll(gates)
	for i := range want {
		if cmplx.Abs(v.Amplitude(i)-want[i]) > parityTol {
			t.Fatalf("amplitude %d: got %v want %v", i, v.Amplitude(i), want[i])
		}
	}
}

// TestApplyInlineMatchesApplyGate checks the segment-sweep entry point
// (shared scratch, no parallel split) against the standard dispatcher. Below
// parallelThreshold both run the same kernels over the same ranges, so the
// results must be bit-identical, with caller scratch and with the pool
// fallback.
func TestApplyInlineMatchesApplyGate(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const n = 8
	gates := []gate.Gate{
		gate.H(0),
		gate.CNOT(0, 5),
		gate.CCX(1, 3, 6),
		randSparseGate(rng, 2, 4, 7),
		gate.New("dense3", randUnitary(rng, 8), nil, 0, 2, 5),
	}
	PrepareGates(gates)
	s := randomState(rng, n)
	want := FromComplex(s)
	want.ApplyAll(gates)
	got := FromComplex(s)
	_, scratch := getScratch(16)
	for i := range gates {
		got.applyInline(&gates[i], scratch)
	}
	// Also the fallback: nil scratch borrows from the pool internally.
	got2 := FromComplex(s)
	for i := range gates {
		got2.applyInline(&gates[i], nil)
	}
	if d := MaxAbsDiffVec(got, want); d != 0 {
		t.Fatalf("inline differs from dispatch: max diff %g", d)
	}
	if d := MaxAbsDiffVec(got2, want); d != 0 {
		t.Fatalf("pooled inline differs from dispatch: max diff %g", d)
	}
}

// TestPreparedKernelZeroAllocs: once a gate is prepared, applying it through
// the segment-sweep entry point with caller scratch must not allocate for
// any kernel kind — this is what keeps the compiled sweep's per-tile gate
// replay allocation-free. No pool is involved, so the guard holds under the
// race detector too.
func TestPreparedKernelZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 10
	gates := []gate.Gate{
		gate.P(0.3, 4),
		gate.X(1),
		gate.CZ(2, 8),
		gate.CNOT(0, 9),
		gate.CRX(0.5, 3, 7),
		randDiagGate(rng, 0, 1, 4, 6),
		gate.CCZ(0, 4, 9),
		gate.CCX(1, 5, 8),
		randCtrlGate(rng, 1, 2, 6, 9),
		randSparseGate(rng, 0, 3, 7),
		gate.New("dense3", randUnitary(rng, 8), nil, 2, 5, 8),
	}
	PrepareGates(gates)
	v := FromComplex(randomState(rng, n))
	_, scratch := getScratch(16)
	for i := range gates {
		g := &gates[i]
		allocs := testing.AllocsPerRun(20, func() { v.applyInline(g, scratch) })
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", g.Name, allocs)
		}
	}
}

// TestNamedGateKernels pins the library gates with a structured kernel arm
// — controlled diagonals, controlled rotations, (phase-)permutations — on
// every kernel arm against the oracle, crossing several placements.
func TestNamedGateKernels(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		const n = 7
		for iter := 0; iter < 20; iter++ {
			p := rng.Perm(n)
			gates := []gate.Gate{
				gate.CZ(p[0], p[1]),
				gate.RZZ(0.7, p[0], p[1]),
				gate.CCZ(p[0], p[1], p[2]),
				gate.CCX(p[0], p[1], p[2]),
				gate.CRX(1.1, p[0], p[1]),
				gate.CRY(0.4, p[0], p[1]),
				gate.CRZ(0.9, p[0], p[1]),
				gate.ISWAP(p[0], p[1]),
				gate.Y(p[3]),
			}
			for i := range gates {
				checkSoAParity(t, rng, &gates[i], n)
			}
		}
	})
}
