package hsf

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/gate"
	"hsfsim/internal/qasm"
)

func fpCircuit() *circuit.Circuit {
	c := circuit.New(4)
	c.Append(gate.H(0), gate.H(1), gate.H(2), gate.H(3))
	c.Append(gate.RZZ(0.7, 1, 2), gate.CNOT(0, 1), gate.RX(0.3, 3))
	c.Append(gate.CPhase(1.1, 2, 3))
	return c
}

func TestCircuitFingerprintStable(t *testing.T) {
	a, b := fpCircuit(), fpCircuit()
	if CircuitFingerprint(a) != CircuitFingerprint(b) {
		t.Fatal("identical circuits built twice hash apart")
	}
	if CircuitFingerprint(a) != CircuitFingerprint(a.Clone()) {
		t.Fatal("Clone changed the fingerprint")
	}
}

// TestCircuitFingerprintNearMiss pins that near-identical circuits — one
// gate's angle nudged, two qubits relabeled, two commuting gates swapped, a
// wider register — get distinct cache keys. A collision here would batch
// jobs whose amplitudes differ.
func TestCircuitFingerprintNearMiss(t *testing.T) {
	base := CircuitFingerprint(fpCircuit())

	angle := fpCircuit()
	angle.Gates[4] = gate.RZZ(0.7000001, 1, 2)
	if CircuitFingerprint(angle) == base {
		t.Error("one-ulp-ish angle change collided")
	}

	// Relabel qubits 1<->2 everywhere: same gate multiset, different wiring.
	relabel := circuit.New(4)
	swap := func(q int) int {
		switch q {
		case 1:
			return 2
		case 2:
			return 1
		}
		return q
	}
	for i := range fpCircuit().Gates {
		g := fpCircuit().Gates[i]
		qs := make([]int, len(g.Qubits))
		for j, q := range g.Qubits {
			qs[j] = swap(q)
		}
		g.Qubits = qs
		relabel.Append(g)
	}
	if CircuitFingerprint(relabel) == base {
		t.Error("qubit relabeling collided")
	}

	// Swap two gates that act on disjoint qubits; equivalent circuit, but a
	// fingerprint is a cache key over the written order, not a canonical form.
	reorder := fpCircuit()
	reorder.Gates[0], reorder.Gates[3] = reorder.Gates[3], reorder.Gates[0]
	if CircuitFingerprint(reorder) == base {
		t.Error("gate reorder collided")
	}

	wider := circuit.New(5)
	wider.Gates = fpCircuit().Gates
	if CircuitFingerprint(wider) == base {
		t.Error("register width change collided")
	}

	dropped := fpCircuit()
	dropped.Gates = dropped.Gates[:len(dropped.Gates)-1]
	if CircuitFingerprint(dropped) == base {
		t.Error("dropped gate collided")
	}
}

func TestFingerprintOptionsSeparatesFields(t *testing.T) {
	cfp := CircuitFingerprint(fpCircuit())
	a := FingerprintOptions(cfp, 2, 7, 1)
	b := FingerprintOptions(cfp, 2, 8, 1)
	c := FingerprintOptions(cfp, 2, 7)
	if a == b || a == c || b == c {
		t.Fatalf("option field changes must change the key: %x %x %x", a, b, c)
	}
	if FingerprintOptions(cfp, 2, 7, 1) != a {
		t.Fatal("FingerprintOptions not deterministic")
	}
}

// randRoundTripCircuit draws a circuit from the QASM-exact gate set: every
// gate here is written symbolically (name + 17-significant-digit params) and
// parsed back through the same constructor, so encode/decode must preserve
// the fingerprint bit-for-bit.
func randRoundTripCircuit(rng *rand.Rand) *circuit.Circuit {
	n := 2 + rng.Intn(5)
	c := circuit.New(n)
	gates := rng.Intn(30)
	for i := 0; i < gates; i++ {
		q := rng.Intn(n)
		r := (q + 1 + rng.Intn(n-1)) % n
		theta := (rng.Float64() - 0.5) * 4 * math.Pi
		switch rng.Intn(12) {
		case 0:
			c.Append(gate.H(q))
		case 1:
			c.Append(gate.X(q))
		case 2:
			c.Append(gate.T(q))
		case 3:
			c.Append(gate.SX(q))
		case 4:
			c.Append(gate.RX(theta, q))
		case 5:
			c.Append(gate.RZ(theta, q))
		case 6:
			c.Append(gate.U3(theta, rng.Float64(), -rng.Float64(), q))
		case 7:
			c.Append(gate.CNOT(q, r))
		case 8:
			c.Append(gate.CZ(q, r))
		case 9:
			c.Append(gate.RZZ(theta, q, r))
		case 10:
			c.Append(gate.CPhase(theta, q, r))
		case 11:
			c.Append(gate.SWAP(q, r))
		}
	}
	return c
}

func roundTripFingerprint(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	want := CircuitFingerprint(c)
	var buf bytes.Buffer
	if err := qasm.Write(&buf, c); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := qasm.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if fp := CircuitFingerprint(got); fp != want {
		t.Fatalf("fingerprint drifted across qasm round trip: %x != %x\n%s", fp, want, buf.String())
	}
	// Second trip: the parsed circuit must also re-encode stably, or a job
	// stored as QASM and resubmitted would miss its own cached plan.
	var buf2 bytes.Buffer
	if err := qasm.Write(&buf2, got); err != nil {
		t.Fatalf("re-write: %v", err)
	}
	again, err := qasm.Parse(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if fp := CircuitFingerprint(again); fp != want {
		t.Fatalf("fingerprint drifted on second round trip: %x != %x", fp, want)
	}
}

// FuzzFingerprintQASMRoundTrip pins fingerprint stability across qasm
// encode/decode: the seed drives a deterministic random circuit, and both
// directions of the trip must preserve the hash. `go test` runs the corpus;
// `go test -fuzz=FuzzFingerprintQASMRoundTrip` explores further.
func FuzzFingerprintQASMRoundTrip(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		roundTripFingerprint(t, randRoundTripCircuit(rand.New(rand.NewSource(seed))))
	})
}

func TestFingerprintQASMRoundTripSweep(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		roundTripFingerprint(t, randRoundTripCircuit(rand.New(rand.NewSource(seed))))
	}
}

// TestFNVMatchesHashFNV holds the in-place FNV-1a behind CircuitFingerprint,
// FingerprintOptions and PlanHash to hash/fnv's New64a on the same bytes:
// strings, little-endian words and float bits in any mix, so every stored
// fingerprint and checkpoint plan hash stays what it was.
func TestFNVMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for range 200 {
		h, ref := fnvOffset, fnv.New64a()
		for range rng.Intn(20) {
			var buf [8]byte
			switch rng.Intn(3) {
			case 0:
				s := string([]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), 0}[:rng.Intn(4)])
				h = h.str(s)
				ref.Write([]byte(s))
			case 1:
				v := rng.Uint64()
				h = h.u64(v)
				binary.LittleEndian.PutUint64(buf[:], v)
				ref.Write(buf[:])
			default:
				v := rng.NormFloat64()
				h = h.f64(v)
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				ref.Write(buf[:])
			}
		}
		if uint64(h) != ref.Sum64() {
			t.Fatalf("fnv64a %#x, hash/fnv %#x", uint64(h), ref.Sum64())
		}
	}
}
