package hsf

import (
	"math/bits"
	"slices"

	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
)

// cone says where the dense walker drops each partition's output-fixed
// qubits. A request for the first m amplitudes reads ⌈m/2^nLower⌉ rows of a
// leaf's upper half, so every upper qubit from ⌈log2 rows⌉ up is read only at
// 0; when m < 2^nLower, so is every lower qubit from ⌈log2 m⌉ up. Such a qubit
// is projected onto |0⟩ right after the last scheduled item touching it,
// which halves the partition state for every path below that point.
// drops[side][pos] lists, ascending, the side's local qubits whose last item
// sits at schedule position pos: segment s at 2s, cut l at 2l+1.
type cone struct {
	n     [2]int
	drops [2][][]int
}

// newCone places the drops from the per-qubit last positions schedule
// returns. A qubit nothing touches is last touched by segment 0.
func newCone(lastAny []int, m, nLower, nUpper, cuts int) cone {
	free := [2]int{min(bits.Len(uint(m-1)), nLower), bits.Len(uint(leafRows(m, nLower) - 1))}
	c := cone{n: [2]int{nLower, nUpper}}
	for side, off := range [2]int{0, nLower} {
		c.drops[side] = make([][]int, 2*cuts+1)
		for q := free[side]; q < c.n[side]; q++ {
			pos := lastAny[off+q]
			c.drops[side][pos] = append(c.drops[side][pos], q)
		}
	}
	return c
}

// qubits returns how many qubits side holds after schedule position pos
// (before segment s: pos = 2s-1).
func (c *cone) qubits(side cut.Side, pos int) int {
	n := c.n[side]
	for _, d := range c.drops[side][:pos+1] {
		n -= len(d)
	}
	return n
}

// project applies the cone to one side of the engine's scheduled gate lists.
// A qubit dropped at the end of a segment whose last gate on it acts on it
// alone loses that gate: its row 0 joins the projection. Every later gate and
// cut term is relabelled to the surviving qubits, in their order.
func (e *engine) project(side cut.Side, c *cone) {
	lab := make([]int, c.n[side]) // local qubit → current label, -1 once dropped
	for q := range lab {
		lab[q] = q
	}
	// relabel gives each gate fresh labels and drops any kernel plan built
	// for the old ones; the matrix, shared with the plan, is left as it is.
	relabel := func(gs []gate.Gate) {
		for i := range gs {
			qs := make([]int, len(gs[i].Qubits))
			for b, q := range gs[i].Qubits {
				qs[b] = lab[q]
			}
			gs[i].Qubits = qs
			gs[i].SetKernelCache(nil)
		}
	}
	// drop builds the projection of the qubits d onto rows and retires them.
	drop := func(d []int, rows [][2]complex128) *statevec.Projection {
		labels := make([]int, len(d))
		for i, q := range d {
			labels[i], lab[q] = lab[q], -1
		}
		next := 0
		for q, l := range lab {
			if l >= 0 {
				lab[q], next = next, next+1
			}
		}
		return statevec.NewProjection(labels, rows)
	}
	moved := false // some qubit is dropped: labels are no longer local ones
	for s := range e.segs {
		seg := &e.segs[s]
		gs := seg.gates[side]
		if moved {
			relabel(gs)
		}
		if d := c.drops[side][2*s]; len(d) > 0 {
			rows := plainRows(len(d))
			for i, q := range d {
				for j := len(gs) - 1; j >= 0; j-- {
					if !gs[j].Touches(lab[q]) {
						continue
					}
					if len(gs[j].Qubits) == 1 {
						u := gs[j].Matrix.Data
						rows[i] = [2]complex128{u[0], u[1]}
						gs = slices.Delete(gs, j, j+1)
					}
					break
				}
			}
			seg.proj[side], moved = drop(d, rows), true
		}
		seg.gates[side] = gs
		if s == len(e.cuts) {
			break
		}
		cc := &e.cuts[s]
		if moved {
			relabel(cc.terms[side])
		}
		if d := c.drops[side][2*s+1]; len(d) > 0 {
			cc.proj[side], moved = drop(d, plainRows(len(d))), true
		}
	}
}

// plainRows returns n rows (1, 0): plain slices onto |0⟩.
func plainRows(n int) [][2]complex128 {
	rows := make([][2]complex128, n)
	for i := range rows {
		rows[i] = [2]complex128{1, 0}
	}
	return rows
}
