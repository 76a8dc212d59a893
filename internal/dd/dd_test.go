package dd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"hsfsim/internal/circuit"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
)

func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		switch rng.Intn(7) {
		case 0:
			c.Append(gate.H(a))
		case 1:
			c.Append(gate.T(a))
		case 2:
			c.Append(gate.RX(rng.Float64()*3, a))
		case 3:
			c.Append(gate.CNOT(a, b))
		case 4:
			c.Append(gate.CZ(a, b))
		case 5:
			c.Append(gate.RZZ(rng.Float64(), a, b))
		default:
			c.Append(gate.SWAP(a, b))
		}
	}
	return c
}

func TestBasisStateConstruction(t *testing.T) {
	d := New(4, 0b1010)
	if cmplx.Abs(d.Amplitude(0b1010)-1) > 1e-12 {
		t.Fatal("basis amplitude != 1")
	}
	if cmplx.Abs(d.Amplitude(0b1011)) > 1e-12 {
		t.Fatal("other amplitude != 0")
	}
	if math.Abs(d.Norm()-1) > 1e-12 {
		t.Fatal("norm != 1")
	}
	// A basis state needs exactly one node per level.
	if n := d.NumNodes(); n != 4 {
		t.Fatalf("basis state nodes = %d, want 4", n)
	}
}

func TestBellState(t *testing.T) {
	d := New(2, 0)
	h := gate.H(0)
	cx := gate.CNOT(0, 1)
	if err := d.ApplyGate(&h); err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyGate(&cx); err != nil {
		t.Fatal(err)
	}
	want := complex(math.Sqrt2/2, 0)
	if cmplx.Abs(d.Amplitude(0)-want) > 1e-10 || cmplx.Abs(d.Amplitude(3)-want) > 1e-10 {
		t.Fatalf("Bell amplitudes %v %v", d.Amplitude(0), d.Amplitude(3))
	}
	if cmplx.Abs(d.Amplitude(1)) > 1e-12 || cmplx.Abs(d.Amplitude(2)) > 1e-12 {
		t.Fatal("Bell cross terms nonzero")
	}
}

func TestGHZCompression(t *testing.T) {
	// The defining DD property (refs [13]-[15]): a GHZ state on n qubits
	// needs O(n) nodes, not O(2^n) amplitudes.
	n := 16
	d := New(n, 0)
	h := gate.H(0)
	if err := d.ApplyGate(&h); err != nil {
		t.Fatal(err)
	}
	for q := 1; q < n; q++ {
		cx := gate.CNOT(q-1, q)
		if err := d.ApplyGate(&cx); err != nil {
			t.Fatal(err)
		}
	}
	if nodes := d.NumNodes(); nodes > 2*n {
		t.Fatalf("GHZ-%d uses %d nodes, want O(n)", n, nodes)
	}
	want := complex(math.Sqrt2/2, 0)
	if cmplx.Abs(d.Amplitude(0)-want) > 1e-9 || cmplx.Abs(d.Amplitude((1<<uint(n))-1)-want) > 1e-9 {
		t.Fatal("GHZ amplitudes wrong")
	}
	if math.Abs(d.Norm()-1) > 1e-9 {
		t.Fatalf("GHZ norm %g", d.Norm())
	}
}

func TestProductStateCompression(t *testing.T) {
	n := 12
	d := New(n, 0)
	for q := 0; q < n; q++ {
		h := gate.H(q)
		if err := d.ApplyGate(&h); err != nil {
			t.Fatal(err)
		}
	}
	// |+>^n shares one node per level.
	if nodes := d.NumNodes(); nodes != n {
		t.Fatalf("|+>^%d uses %d nodes, want %d", n, nodes, n)
	}
}

func TestMatchesStatevectorRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(5)
		c := randomCircuit(rng, n, 6+rng.Intn(14))
		ref := statevec.NewState(n)
		ref.ApplyAll(c.Gates)
		d := New(n, 0)
		if err := d.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		if diff := statevec.MaxAbsDiff(d.ToStatevector(), ref); diff > 1e-8 {
			t.Fatalf("trial %d: DD diverges by %g", trial, diff)
		}
	}
}

// TestAddKeepsCancellationResidues runs square-root-gate layers (SX, SY, T
// between CZ layers, as in the GRCS circuits), where sums that are exactly zero
// leave rounding residues of 1e-17 as edge weights. Adding a normal edge to
// such a residue used to take the ratio large/tiny, which no longer fits the
// cache key's quantization, so unrelated additions shared a cache entry and
// one circuit in seven came out wrong by 0.1 and more.
func TestAddKeepsCancellationResidues(t *testing.T) {
	for seed := int64(31); seed <= 40; seed++ {
		for _, n := range []int{4, 5} {
			rng := rand.New(rand.NewSource(seed))
			c := circuit.New(n)
			for q := 0; q < n; q++ {
				c.Append(gate.H(q))
			}
			for depth := 0; depth < 4; depth++ {
				for q := depth % 2; q+1 < n; q += 2 {
					c.Append(gate.CZ(q, q+1))
				}
				for q := 0; q < n; q++ {
					c.Append([]func(int) gate.Gate{gate.SX, gate.SY, gate.T}[rng.Intn(3)](q))
				}
			}
			ref := statevec.NewState(n)
			ref.ApplyAll(c.Gates)
			d := New(n, 0)
			if err := d.ApplyCircuit(c); err != nil {
				t.Fatal(err)
			}
			if diff := statevec.MaxAbsDiff(d.ToStatevector(), ref); diff > 1e-8 {
				t.Fatalf("seed %d, %d qubits: DD diverges by %g", seed, n, diff)
			}
		}
	}
}

func TestThreeQubitGate(t *testing.T) {
	// The outer-product expansion handles arbitrary arity: Toffoli.
	c := circuit.New(3)
	c.Append(gate.H(0), gate.H(1), gate.CCX(0, 1, 2))
	ref := statevec.NewState(3)
	ref.ApplyAll(c.Gates)
	d := New(3, 0)
	if err := d.ApplyCircuit(c); err != nil {
		t.Fatal(err)
	}
	if diff := statevec.MaxAbsDiff(d.ToStatevector(), ref); diff > 1e-9 {
		t.Fatalf("CCX diverges by %g", diff)
	}
}

func TestNormPreservedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		c := randomCircuit(rng, n, 12)
		d := New(n, 0)
		if err := d.ApplyCircuit(c); err != nil {
			return false
		}
		return math.Abs(d.Norm()-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyErrors(t *testing.T) {
	d := New(2, 0)
	g := gate.H(5)
	if err := d.ApplyGate(&g); err == nil {
		t.Fatal("out-of-range qubit accepted")
	}
	c := circuit.New(3)
	if err := d.ApplyCircuit(c); err == nil {
		t.Fatal("qubit mismatch accepted")
	}
}

func TestNodeSharingAcrossBranches(t *testing.T) {
	// Two identical uncorrelated halves: the lower half's structure is
	// shared under both upper branches.
	n := 8
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(gate.H(q))
	}
	c.Append(gate.RZZ(0.4, 0, 1), gate.RZZ(0.4, 4, 5))
	d := New(n, 0)
	if err := d.ApplyCircuit(c); err != nil {
		t.Fatal(err)
	}
	ref := statevec.NewState(n)
	ref.ApplyAll(c.Gates)
	if diff := statevec.MaxAbsDiff(d.ToStatevector(), ref); diff > 1e-9 {
		t.Fatalf("diverges by %g", diff)
	}
	if nodes := d.NumNodes(); nodes >= 1<<n {
		t.Fatalf("no compression: %d nodes", nodes)
	}
}

func TestAmplitudeMatchesExpansionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		c := randomCircuit(rng, n, 8)
		d := New(n, 0)
		if err := d.ApplyCircuit(c); err != nil {
			return false
		}
		dense := d.ToStatevector()
		for x := 0; x < len(dense); x++ {
			if cmplx.Abs(dense[x]-d.Amplitude(uint64(x))) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDDGHZ20(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := New(20, 0)
		h := gate.H(0)
		if err := d.ApplyGate(&h); err != nil {
			b.Fatal(err)
		}
		for q := 1; q < 20; q++ {
			cx := gate.CNOT(q-1, q)
			if err := d.ApplyGate(&cx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDDRandom10(b *testing.B) {
	rng := rand.New(rand.NewSource(111))
	c := randomCircuit(rng, 10, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(10, 0)
		if err := d.ApplyCircuit(c); err != nil {
			b.Fatal(err)
		}
	}
}
