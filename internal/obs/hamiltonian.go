package obs

import (
	"fmt"
	"strings"

	"hsfsim/internal/graph"
)

// Term is one weighted Pauli string of a Hamiltonian.
type Term struct {
	Coefficient float64
	Op          String
}

// Hamiltonian is a real-weighted sum of Pauli strings, H = Σ c_i P_i.
type Hamiltonian struct {
	NumQubits int
	Terms     []Term
}

// NewHamiltonian returns an empty Hamiltonian on n qubits.
func NewHamiltonian(n int) *Hamiltonian {
	return &Hamiltonian{NumQubits: n}
}

// Add appends a term given as a Pauli string literal like "IZZI".
func (h *Hamiltonian) Add(coefficient float64, pauli string) error {
	p, err := ParseString(pauli)
	if err != nil {
		return err
	}
	if len(p.Ops) != h.NumQubits {
		return fmt.Errorf("obs: term %q has %d qubits, Hamiltonian has %d", pauli, len(p.Ops), h.NumQubits)
	}
	h.Terms = append(h.Terms, Term{Coefficient: coefficient, Op: p})
	return nil
}

// Expectation computes <ψ|H|ψ> for a full statevector.
func (h *Hamiltonian) Expectation(amps []complex128) (float64, error) {
	var e float64
	for _, t := range h.Terms {
		v, err := Expectation(amps, t.Op)
		if err != nil {
			return 0, err
		}
		e += t.Coefficient * v
	}
	return e, nil
}

// IsDiagonal reports whether every term is I/Z-only, in which case the
// energy is computable from probabilities (and hence from the paper's
// partial-amplitude windows).
func (h *Hamiltonian) IsDiagonal() bool {
	for _, t := range h.Terms {
		if !t.Op.IsDiagonal() {
			return false
		}
	}
	return true
}

// DiagonalExpectation computes <H> from basis-state probabilities for
// diagonal Hamiltonians.
func (h *Hamiltonian) DiagonalExpectation(probs []float64) (float64, error) {
	if !h.IsDiagonal() {
		return 0, fmt.Errorf("obs: Hamiltonian has off-diagonal terms")
	}
	var e float64
	for _, t := range h.Terms {
		v, err := DiagonalExpectation(probs, t.Op)
		if err != nil {
			return 0, err
		}
		e += t.Coefficient * v
	}
	return e, nil
}

// String renders the Hamiltonian like "+1.00·ZZI -0.50·IXI".
func (h *Hamiltonian) String() string {
	var parts []string
	for _, t := range h.Terms {
		parts = append(parts, fmt.Sprintf("%+.2f·%s", t.Coefficient, t.Op.String()))
	}
	return strings.Join(parts, " ")
}

// TransverseIsing builds H = J Σ Z_iZ_{i+1} + hx Σ X_i on an n-site open
// chain (periodic adds the wrap bond) — the model of the many-body study's
// Trotter circuits.
func TransverseIsing(n int, j, hx float64, periodic bool) (*Hamiltonian, error) {
	if n < 2 {
		return nil, fmt.Errorf("obs: chain needs ≥ 2 sites")
	}
	h := NewHamiltonian(n)
	addZZ := func(a, b int) {
		ops := make([]Pauli, n)
		for i := range ops {
			ops[i] = I
		}
		ops[a], ops[b] = Z, Z
		h.Terms = append(h.Terms, Term{Coefficient: j, Op: String{Ops: ops}})
	}
	for i := 0; i+1 < n; i++ {
		addZZ(i, i+1)
	}
	if periodic && n > 2 {
		addZZ(0, n-1)
	}
	for q := 0; q < n; q++ {
		ops := make([]Pauli, n)
		for i := range ops {
			ops[i] = I
		}
		ops[q] = X
		h.Terms = append(h.Terms, Term{Coefficient: hx, Op: String{Ops: ops}})
	}
	return h, nil
}

// MaxCutHamiltonian builds the cost Hamiltonian C = Σ w_uv (1 - Z_uZ_v)/2
// whose expectation is the expected cut value; the constant part is
// returned separately so the operator stays a pure Pauli sum.
func MaxCutHamiltonian(g *graph.Graph) (*Hamiltonian, float64) {
	h := NewHamiltonian(g.N)
	var constant float64
	for _, e := range g.Edges {
		constant += e.W / 2
		ops := make([]Pauli, g.N)
		for i := range ops {
			ops[i] = I
		}
		ops[e.U], ops[e.V] = Z, Z
		h.Terms = append(h.Terms, Term{Coefficient: -e.W / 2, Op: String{Ops: ops}})
	}
	return h, constant
}
