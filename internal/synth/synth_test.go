package synth

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
)

// randomU2 builds a Haar-ish random single-qubit unitary.
func randomU2(rng *rand.Rand) *cmat.Matrix {
	// U = e^{iα} Rz(β)Ry(γ)Rz(δ) with random angles covers U(2).
	z := ZYZ{
		Alpha: rng.Float64()*2*math.Pi - math.Pi,
		Beta:  rng.Float64()*4*math.Pi - 2*math.Pi,
		Gamma: rng.Float64() * math.Pi,
		Delta: rng.Float64()*4*math.Pi - 2*math.Pi,
	}
	return z.Matrix()
}

func TestZYZReconstructsLibraryGates(t *testing.T) {
	for _, g := range []gate.Gate{
		gate.I(0), gate.X(0), gate.Y(0), gate.Z(0), gate.H(0), gate.S(0),
		gate.T(0), gate.SX(0), gate.SY(0), gate.SW(0),
		gate.RX(0.7, 0), gate.RY(-1.1, 0), gate.RZ(2.2, 0), gate.P(0.4, 0),
		gate.U3(0.3, 1.2, -0.5, 0),
	} {
		z, err := ZYZDecompose(g.Matrix)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if !cmat.EqualTol(z.Matrix(), g.Matrix, 1e-9) {
			t.Errorf("%s: ZYZ reconstruction failed", g.Name)
		}
	}
}

func TestZYZPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := randomU2(rng)
		z, err := ZYZDecompose(u)
		if err != nil {
			return false
		}
		return cmat.EqualTol(z.Matrix(), u, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestZYZRejectsNonUnitary(t *testing.T) {
	if _, err := ZYZDecompose(cmat.FromSlice(2, 2, []complex128{1, 1, 1, 1})); err == nil {
		t.Fatal("non-unitary accepted")
	}
	if _, err := ZYZDecompose(cmat.Identity(4)); err == nil {
		t.Fatal("wrong size accepted")
	}
}

func TestZYZGatesWithPhaseExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		u := randomU2(rng)
		z, err := ZYZDecompose(u)
		if err != nil {
			t.Fatal(err)
		}
		c := circuit.New(1)
		c.Append(z.GatesWithPhase(0)...)
		if !cmat.EqualTol(c.Unitary(), u, 1e-9) {
			t.Fatalf("trial %d: phase-exact gate sequence wrong", trial)
		}
	}
}
