package schmidt

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
)

// diagonalOf returns the diagonal of a square matrix.
func diagonalOf(m *cmat.Matrix) []complex128 {
	d := make([]complex128, m.Rows)
	for i := range d {
		d[i] = m.At(i, i)
	}
	return d
}

// cascadeSpectrum returns the two singular values of a closed-form cascade
// P0 ⊗ F0 + P1 ⊗ F1 with diagonal unitary fan factors on k qubits. P0 and P1
// are orthonormal, so the spectrum is that of the two columns (f0, f1) of
// diagonals: σ±² = 2^k ± |g| with g = ⟨f0, f1⟩. The small one is evaluated as
// ‖e^{iφ}f0 − f1‖²/2 (φ = arg g), which does not cancel as |g| → 2^k.
func cascadeSpectrum(d *Decomposition, anchorUpper bool) (hi, lo float64) {
	f0, f1 := d.Terms[0].Upper, d.Terms[1].Upper
	if anchorUpper {
		f0, f1 = d.Terms[0].Lower, d.Terms[1].Lower
	}
	var g complex128
	for i := 0; i < f0.Rows; i++ {
		g += cmplx.Conj(f0.At(i, i)) * f1.At(i, i)
	}
	n := float64(f0.Rows)
	if g == 0 {
		return math.Sqrt(n), math.Sqrt(n)
	}
	phase := g / complex(cmplx.Abs(g), 0)
	var diff float64
	for i := 0; i < f0.Rows; i++ {
		e := phase*f0.At(i, i) - f1.At(i, i)
		diff += real(e)*real(e) + imag(e)*imag(e)
	}
	return math.Sqrt(n + cmplx.Abs(g)), math.Sqrt(diff / 2)
}

// TestDiagonalRouteMatchesClosedFormCascades holds both SVD routes against
// the analytic cascades (paper Sec. IV-D; Ufrecht et al.) for 1–7 fan qubits
// with the anchor on either side: singular values within 1e-12 of the closed
// form relative to σ_max, nothing else above that, and the closed form's rank
// at DefaultTol — including angles a hair off the rank-1 points 0 and π, where
// σ₂/σ₁ ≈ θ√k/2 sits a factor of five above the threshold, and the exact
// degeneracies (rank 1, or σ₁ = σ₂).
func TestDiagonalRouteMatchesClosedFormCascades(t *testing.T) {
	angles := []float64{0.7, 1e-3, 1e-6, 1e-9, math.Pi - 1e-9, 0, math.Pi / 2, math.Pi}
	for k := 1; k <= 7; k++ {
		for _, anchorUpper := range []bool{true, false} {
			nLower, nUpper, anchor, fan0 := k, 1, k, 0
			if !anchorUpper {
				nLower, nUpper, anchor, fan0 = 1, k, 0, 1
			}
			type family struct {
				name   string
				gates  func(thetas []float64) []gate.Gate
				closed func(thetas []float64) *Decomposition
			}
			fans := func(mk func(theta float64, fan int) gate.Gate) func([]float64) []gate.Gate {
				return func(thetas []float64) []gate.Gate {
					gs := make([]gate.Gate, len(thetas))
					for i, th := range thetas {
						gs[i] = mk(th, fan0+i)
					}
					return gs
				}
			}
			families := []family{
				{"rzz", fans(func(th float64, fan int) gate.Gate { return gate.RZZ(th, anchor, fan) }),
					func(th []float64) *Decomposition { return RZZCascade(th, anchorUpper) }},
				{"cp", fans(func(th float64, fan int) gate.Gate { return gate.CPhase(th, anchor, fan) }),
					func(th []float64) *Decomposition { return CPhaseCascade(th, anchorUpper) }},
				{"cz", fans(func(_ float64, fan int) gate.Gate { return gate.CZ(anchor, fan) }),
					func(th []float64) *Decomposition { return CZCascade(len(th), anchorUpper) }},
			}
			for _, f := range families {
				var cases [][]float64
				for _, a := range angles {
					thetas := make([]float64, k)
					for i := range thetas {
						thetas[i] = a
					}
					cases = append(cases, thetas)
				}
				mixed := make([]float64, k)
				for i := range mixed {
					mixed[i] = angles[i%len(angles)] // one ordinary angle among near-degenerate ones
				}
				cases = append(cases, mixed)
				if f.name == "cz" {
					cases = cases[:1]
				}
				for _, thetas := range cases {
					name := fmt.Sprintf("%s k=%d anchorUpper=%v θ₀=%g", f.name, k, anchorUpper, thetas[0])
					hi, lo := cascadeSpectrum(f.closed(thetas), anchorUpper)
					wantRank := 1
					if lo > DefaultTol*hi {
						wantRank = 2
					}
					op := opOnQubits(k+1, f.gates(thetas)...)
					dense, err := Decompose(op, nLower, nUpper, 0)
					if err != nil {
						t.Fatalf("%s: dense: %v", name, err)
					}
					diag, err := DecomposeDiagonal(diagonalOf(op), nLower, nUpper, 0)
					if err != nil {
						t.Fatalf("%s: diagonal: %v", name, err)
					}
					for route, d := range map[string]*Decomposition{"dense": dense, "diagonal": diag} {
						if d.Rank() != wantRank {
							t.Errorf("%s: %s route rank %d, closed form %d (σ %g, %g)", name, route, d.Rank(), wantRank, hi, lo)
						}
						for i, s := range d.SingularValues {
							want := 0.0
							if i < 2 {
								want = []float64{hi, lo}[i]
							}
							if math.Abs(s-want) > 1e-12*hi {
								t.Errorf("%s: %s route σ[%d] = %.17g, closed form %.17g", name, route, i, s, want)
							}
						}
					}
					if e := diag.ReconstructionError(op); e > 1e-12 {
						t.Errorf("%s: diagonal route reconstruction error %g", name, e)
					}
				}
			}
		}
	}
}

// TestDecomposeDiagonalErrors mirrors TestDecomposeErrors.
func TestDecomposeDiagonalErrors(t *testing.T) {
	if _, err := DecomposeDiagonal(make([]complex128, 3), 1, 1, 0); err == nil {
		t.Error("wrong length accepted")
	}
	if _, err := DecomposeDiagonal(make([]complex128, 2), 0, 1, 0); err == nil {
		t.Error("trivial bipartition accepted")
	}
}
