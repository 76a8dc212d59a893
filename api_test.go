package hsfsim_test

import (
	"errors"
	"testing"

	"hsfsim"
)

// TestGateReExportsMatchLibrary exercises every public gate constructor and
// checks basic invariants (unitarity, qubit wiring) so the public API stays
// in lock-step with the internal gate library.
func TestGateReExportsMatchLibrary(t *testing.T) {
	gates := []hsfsim.Gate{
		hsfsim.I(0), hsfsim.X(1), hsfsim.Y(2), hsfsim.Z(0), hsfsim.H(1),
		hsfsim.S(2), hsfsim.Sdg(0), hsfsim.T(1), hsfsim.Tdg(2),
		hsfsim.SX(0), hsfsim.SY(1), hsfsim.SW(2),
		hsfsim.RX(0.4, 0), hsfsim.RY(-0.8, 1), hsfsim.RZ(1.2, 2),
		hsfsim.P(0.6, 0), hsfsim.U3(0.1, 0.2, 0.3, 1),
		hsfsim.CNOT(0, 1), hsfsim.CZ(1, 2), hsfsim.CPhase(0.5, 0, 2),
		hsfsim.SWAP(0, 1), hsfsim.ISWAP(1, 2),
		hsfsim.RZZ(0.7, 0, 1), hsfsim.RXX(0.3, 1, 2), hsfsim.RYY(0.9, 0, 2),
		hsfsim.FSim(0.2, 0.4, 0, 1),
		hsfsim.CRX(0.3, 0, 1), hsfsim.CRY(0.5, 1, 2), hsfsim.CRZ(-0.7, 0, 2),
		hsfsim.CCX(0, 1, 2), hsfsim.CCZ(0, 1, 2),
	}
	for _, g := range gates {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		if !g.IsUnitary(1e-10) {
			t.Errorf("%s: not unitary", g.Name)
		}
	}
	// All of them fit a 3-qubit circuit.
	c := hsfsim.NewCircuit(3)
	c.Append(gates...)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.Schrodinger})
	if err != nil {
		t.Fatal(err)
	}
	var norm float64
	for _, a := range res.Amplitudes {
		norm += real(a)*real(a) + imag(a)*imag(a)
	}
	if norm < 0.999999 || norm > 1.000001 {
		t.Fatalf("norm = %g", norm)
	}
}

func TestAnalyze(t *testing.T) {
	c := hsfsim.NewCircuit(6)
	c.Append(
		hsfsim.RZZ(0.3, 2, 3), hsfsim.RZZ(0.4, 2, 4), hsfsim.RZZ(0.5, 2, 5),
	)
	s, err := hsfsim.Analyze(c, 2, hsfsim.BlockCascade, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPaths != 2 || s.NumBlocks != 1 || s.NumCuts != 1 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if len(s.Cuts) != 1 || s.Cuts[0].Rank != 2 || !s.Cuts[0].Block {
		t.Fatalf("cut summary wrong: %+v", s.Cuts)
	}
	if _, err := hsfsim.Analyze(c, 9, hsfsim.BlockCascade, 0); err == nil {
		t.Fatal("invalid cut accepted")
	}
}

func TestMethodStrings(t *testing.T) {
	cases := map[hsfsim.Method]string{
		hsfsim.Schrodinger: "schrodinger",
		hsfsim.StandardHSF: "standard-hsf",
		hsfsim.JointHSF:    "joint-hsf",
		hsfsim.Method(99):  "unknown",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

// TestParseNames: the wire and CLI names map onto methods and strategies,
// the empty name means joint and cascade, and unknown names are
// ErrUnsupported.
func TestParseNames(t *testing.T) {
	methods := map[string]hsfsim.Method{
		"schrodinger": hsfsim.Schrodinger,
		"standard":    hsfsim.StandardHSF,
		"joint":       hsfsim.JointHSF,
		"":            hsfsim.JointHSF,
	}
	for name, want := range methods {
		if got, err := hsfsim.ParseMethod(name); err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	strategies := map[string]hsfsim.BlockStrategy{
		"cascade": hsfsim.BlockCascade,
		"window":  hsfsim.BlockWindow,
		"":        hsfsim.BlockCascade,
	}
	for name, want := range strategies {
		if got, err := hsfsim.ParseBlockStrategy(name); err != nil || got != want {
			t.Errorf("ParseBlockStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := hsfsim.ParseMethod("joint-hsf"); !errors.Is(err, hsfsim.ErrUnsupported) {
		t.Errorf("ParseMethod(joint-hsf): %v, want ErrUnsupported", err)
	}
	if _, err := hsfsim.ParseBlockStrategy("standard"); !errors.Is(err, hsfsim.ErrUnsupported) {
		t.Errorf("ParseBlockStrategy(standard): %v, want ErrUnsupported", err)
	}
}

func TestSchrodingerQubitGuard(t *testing.T) {
	c := hsfsim.NewCircuit(31)
	c.Append(hsfsim.H(0))
	if _, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.Schrodinger}); err == nil {
		t.Fatal("31-qubit Schrödinger run should be rejected by the memory guard")
	}
}

func TestFusionDisabledOnSchrodinger(t *testing.T) {
	c := hsfsim.NewCircuit(4)
	c.Append(hsfsim.H(0), hsfsim.CNOT(0, 1), hsfsim.T(1), hsfsim.CNOT(1, 2), hsfsim.CNOT(2, 3))
	on, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.Schrodinger})
	if err != nil {
		t.Fatal(err)
	}
	off, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.Schrodinger, FusionMaxQubits: -1})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(on.Amplitudes, off.Amplitudes); d > 1e-10 {
		t.Fatalf("fusion changed Schrödinger output by %g", d)
	}
}
