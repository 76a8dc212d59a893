// Package circuit provides the quantum circuit intermediate representation:
// an ordered gate list over a fixed qubit register, plus the structural
// analyses needed by the HSF cut planner — pairwise commutation checks and a
// dependency DAG that decides when gates may be reordered to make joint-cut
// blocks contiguous.
package circuit

import (
	"fmt"
	"slices"

	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
)

// Circuit is an ordered list of gates acting on NumQubits qubits.
type Circuit struct {
	NumQubits int
	Gates     []gate.Gate
}

// New returns an empty circuit on n qubits.
func New(n int) *Circuit {
	if n <= 0 {
		panic(fmt.Sprintf("circuit: non-positive qubit count %d", n))
	}
	return &Circuit{NumQubits: n}
}

// Append adds gates to the end of the circuit.
func (c *Circuit) Append(gs ...gate.Gate) {
	c.Gates = append(c.Gates, gs...)
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := New(c.NumQubits)
	out.Gates = make([]gate.Gate, len(c.Gates))
	for i := range c.Gates {
		out.Gates[i] = c.Gates[i].Clone()
	}
	return out
}

// Validate checks that every gate is self-consistent and fits the register.
func (c *Circuit) Validate() error {
	for i := range c.Gates {
		g := &c.Gates[i]
		if err := g.Validate(); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
		if g.MaxQubit() >= c.NumQubits {
			return fmt.Errorf("gate %d (%s): qubit out of range for %d-qubit circuit", i, g.Name, c.NumQubits)
		}
	}
	return nil
}

// NumTwoQubitGates counts gates acting on two or more qubits.
func (c *Circuit) NumTwoQubitGates() int {
	n := 0
	for i := range c.Gates {
		if c.Gates[i].NumQubits() >= 2 {
			n++
		}
	}
	return n
}

// Depth returns the circuit depth: the length of the longest chain of gates
// sharing qubits, computed by per-qubit layering.
func (c *Circuit) Depth() int {
	layer := make([]int, c.NumQubits)
	depth := 0
	for i := range c.Gates {
		g := &c.Gates[i]
		l := 0
		for _, q := range g.Qubits {
			if layer[q] > l {
				l = layer[q]
			}
		}
		l++
		for _, q := range g.Qubits {
			layer[q] = l
		}
		if l > depth {
			depth = l
		}
	}
	return depth
}

// GateCountByName returns a histogram of gate names, useful for reporting
// instance specifications (Table II).
func (c *Circuit) GateCountByName() map[string]int {
	h := make(map[string]int)
	for i := range c.Gates {
		h[c.Gates[i].Name]++
	}
	return h
}

// Unitary computes the full 2^n × 2^n circuit unitary by applying every gate
// to an identity matrix. Exponential in NumQubits; intended for verification
// on small circuits and for building joint-cut block matrices on a block's
// touched qubits.
func (c *Circuit) Unitary() *cmat.Matrix {
	dim := 1 << c.NumQubits
	u := cmat.Identity(dim)
	for i := range c.Gates {
		u = applyGateToMatrix(&c.Gates[i], u, c.NumQubits)
	}
	return u
}

// applyGateToMatrix left-multiplies the embedded gate onto u: u <- G·u, by
// applying the gate to each column of u viewed as a statevector.
func applyGateToMatrix(g *gate.Gate, u *cmat.Matrix, n int) *cmat.Matrix {
	dim := u.Rows
	out := cmat.New(dim, u.Cols)
	buf := make([]complex128, dim+1<<len(g.Qubits)) // a column, then the gather scratch
	col, in := buf[:dim], buf[dim:]
	sorted := slices.Clone(g.Qubits)
	slices.Sort(sorted)
	for j := 0; j < u.Cols; j++ {
		for i := 0; i < dim; i++ {
			col[i] = u.Data[i*u.Cols+j]
		}
		applyGateToVector(g, col, in, sorted)
		for i := 0; i < dim; i++ {
			out.Data[i*u.Cols+j] = col[i]
		}
	}
	return out
}

// applyGateToVector applies g in place to a state over n qubits where
// len(state) = 2^n, gathering each group of 2^k amplitudes into in; sorted
// is g's qubits in ascending order. This is a compact reference
// implementation; the performance-tuned version lives in package statevec.
func applyGateToVector(g *gate.Gate, state, in []complex128, sorted []int) {
	k := g.NumQubits()
	kdim := 1 << k
	outer := len(state) >> k
	for o := 0; o < outer; o++ {
		base := expandIndex(o, sorted)
		for t := 0; t < kdim; t++ {
			in[t] = state[base|spreadBits(t, g.Qubits)]
		}
		for t := 0; t < kdim; t++ {
			var s complex128
			row := g.Matrix.Data[t*kdim : (t+1)*kdim]
			for u, iv := range in[:kdim] {
				s += row[u] * iv
			}
			state[base|spreadBits(t, g.Qubits)] = s
		}
	}
}

// spreadBits distributes bit k of t to position qubits[k].
func spreadBits(t int, qubits []int) int {
	out := 0
	for k, q := range qubits {
		out |= ((t >> k) & 1) << q
	}
	return out
}

// expandIndex inserts zero bits at each position in sorted (ascending),
// mapping a compact index over the non-target bits to a full index with
// zeros at the target positions.
func expandIndex(o int, sorted []int) int {
	for _, p := range sorted {
		low := o & ((1 << p) - 1)
		o = (o>>p)<<(p+1) | low
	}
	return o
}

// Inverse returns the circuit implementing the adjoint unitary: gates in
// reverse order with each matrix conjugate-transposed.
func (c *Circuit) Inverse() *Circuit {
	out := New(c.NumQubits)
	out.Gates = make([]gate.Gate, len(c.Gates))
	for i := range c.Gates {
		g := c.Gates[len(c.Gates)-1-i].Dagger()
		if g.Name != "" {
			g.Name = g.Name + "†"
		}
		out.Gates[i] = g
	}
	return out
}

// String renders the circuit one gate per line.
func (c *Circuit) String() string {
	s := fmt.Sprintf("circuit(%d qubits, %d gates)\n", c.NumQubits, len(c.Gates))
	for i := range c.Gates {
		s += "  " + c.Gates[i].String() + "\n"
	}
	return s
}
