package qasm

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
)

func roundTrip(t *testing.T, c *circuit.Circuit) *circuit.Circuit {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	out, err := Parse(&buf)
	if err != nil {
		t.Fatalf("parse failed: %v\nqasm:\n%s", err, buf.String())
	}
	return out
}

func TestRoundTripAllSupportedGates(t *testing.T) {
	c := circuit.New(4)
	c.Append(
		gate.I(0), gate.X(0), gate.Y(1), gate.Z(2), gate.H(3),
		gate.S(0), gate.Sdg(1), gate.T(2), gate.Tdg(3), gate.SX(0), gate.SY(1),
		gate.RX(0.7, 0), gate.RY(-1.2, 1), gate.RZ(2.5, 2), gate.P(0.9, 3),
		gate.U3(0.3, 1.4, -0.6, 0),
		gate.CNOT(0, 1), gate.CZ(1, 2), gate.CPhase(0.4, 2, 3),
		gate.SWAP(0, 2), gate.ISWAP(1, 3),
		gate.RZZ(0.8, 0, 3), gate.RXX(0.2, 1, 2), gate.RYY(-0.5, 0, 1),
		gate.CRX(0.6, 0, 1), gate.CRY(-0.2, 1, 2), gate.CRZ(1.1, 2, 3),
		gate.CCX(0, 1, 2), gate.CCZ(1, 2, 3),
	)
	out := roundTrip(t, c)
	if out.NumQubits != 4 {
		t.Fatalf("qubits = %d", out.NumQubits)
	}
	if !cmat.EqualTol(c.Unitary(), out.Unitary(), 1e-9) {
		t.Fatal("round trip changed the circuit unitary")
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 8; trial++ {
		c := circuit.New(3)
		for i := 0; i < 12; i++ {
			switch rng.Intn(5) {
			case 0:
				c.Append(gate.H(rng.Intn(3)))
			case 1:
				c.Append(gate.RZ(rng.NormFloat64()*3, rng.Intn(3)))
			case 2:
				c.Append(gate.RZZ(rng.NormFloat64(), 0, 1+rng.Intn(2)))
			case 3:
				c.Append(gate.CNOT(rng.Intn(3), (rng.Intn(2)+1+rng.Intn(3))%3))
			default:
				c.Append(gate.U3(rng.Float64(), rng.Float64(), rng.Float64(), rng.Intn(3)))
			}
		}
		// Deduplicate invalid CNOTs (same control/target) defensively.
		valid := circuit.New(3)
		for i := range c.Gates {
			g := c.Gates[i]
			if g.Validate() == nil {
				valid.Append(g)
			}
		}
		out := roundTrip(t, valid)
		if !cmat.EqualTol(valid.Unitary(), out.Unitary(), 1e-9) {
			t.Fatalf("trial %d: unitary mismatch", trial)
		}
	}
}

func TestParsePiExpressions(t *testing.T) {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
rx(pi) q[0];
rz(pi/2) q[1];
ry(-pi/4) q[0];
p(2*pi) q[1];
rzz(0.5*pi) q[0],q[1];
`
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 5 {
		t.Fatalf("gates = %d", len(c.Gates))
	}
	if math.Abs(c.Gates[0].Params[0]-math.Pi) > 1e-15 {
		t.Fatalf("rx angle = %g", c.Gates[0].Params[0])
	}
	if math.Abs(c.Gates[2].Params[0]+math.Pi/4) > 1e-15 {
		t.Fatalf("ry angle = %g", c.Gates[2].Params[0])
	}
	if math.Abs(c.Gates[4].Params[0]-math.Pi/2) > 1e-15 {
		t.Fatalf("rzz angle = %g", c.Gates[4].Params[0])
	}
}

func TestParseCommentsAndBarriers(t *testing.T) {
	src := `// a comment
OPENQASM 2.0;
qreg q[1]; // trailing comment
h q[0];
barrier q;
creg c[1];
`
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1 || c.Gates[0].Name != "h" {
		t.Fatalf("gates = %v", c.Gates)
	}
}

// TestParseLongLines pins the scanner's line cap: the buffer starts small and
// grows on demand, so a line far beyond the initial 4 KiB still parses, and
// one beyond the 1 MiB cap is an error rather than a silent truncation.
func TestParseLongLines(t *testing.T) {
	const stmt = "h q[0]; "
	n := 300_000 / len(stmt)
	c, err := Parse(strings.NewReader("qreg q[1];\n" + strings.Repeat(stmt, n) + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != n {
		t.Fatalf("parsed %d gates from one long line, want %d", len(c.Gates), n)
	}
	over := "qreg q[1];\n" + strings.Repeat(stmt, (1<<20)/len(stmt)+1) + "\n"
	if _, err := Parse(strings.NewReader(over)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over the cap: err = %v, want bufio.ErrTooLong", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"h q[0];",                        // gate before qreg
		"qreg q[0];",                     // zero size
		"qreg q[2];\nqreg r[2];",         // duplicate qreg
		"qreg q[2];\nmystery q[0];",      // unknown gate
		"qreg q[2];\nrx q[0];",           // missing parameter
		"qreg q[2];\ncx q[0];",           // missing qubit
		"qreg q[2];\nrx(nonsense) q[0];", // bad angle
		"qreg q[2];\nh q0;",              // bad qubit ref
		"",                               // empty input
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestWriteSWViaZYZ(t *testing.T) {
	// sw has no qelib1 primitive; the writer expands it exactly via ZYZ.
	c := circuit.New(1)
	c.Append(gate.SW(0))
	out := roundTrip(t, c)
	if !cmat.EqualTol(c.Unitary(), out.Unitary(), 1e-9) {
		t.Fatal("sw round trip changed the unitary")
	}
}

func TestWriteRejectsUnsupportedMultiQubit(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.New("fused", cmat.Identity(4), nil, 0, 1))
	var buf bytes.Buffer
	if err := Write(&buf, c); err == nil {
		t.Fatal("dense 2q gate should be rejected by the writer")
	}
}

func TestSYDecompositionExact(t *testing.T) {
	// The writer emits sdg/sx/s for sy; verify S·SX·S† = SY exactly.
	s := gate.S(0).Matrix
	sx := gate.SX(0).Matrix
	sdg := gate.Sdg(0).Matrix
	got := cmat.Mul(cmat.Mul(s, sx), sdg)
	if !cmat.EqualTol(got, gate.SY(0).Matrix, 1e-12) {
		t.Fatal("S·SX·S† != SY")
	}
}

// TestParseEmptyStatementsReserveLittle: Parse sizes the gate list from the
// statements after the qreg, at most one gate per six bytes, so a body of
// empty statements — which a server parses from outside — reserves no more
// than the gates the same bytes could hold. One gate per ';' would reserve
// ≈ 150 bytes per input byte here.
func TestParseEmptyStatementsReserveLittle(t *testing.T) {
	src := "qreg q[1];\n" + strings.Repeat(strings.Repeat(";", 1023)+"\n", 1024)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := Parse(strings.NewReader(src))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 0 {
		t.Fatalf("%d gates from empty statements", len(c.Gates))
	}
	if perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(src)); perByte > 32 {
		t.Errorf("parsing %d bytes of empty statements allocated %.1f bytes per input byte, want ≤ 32", len(src), perByte)
	}
}
