package circuit

import (
	"slices"
	"sort"

	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
)

// commuteTol is the tolerance for the explicit commutator check.
const commuteTol = 1e-10

// maxStackUnion is the largest union support whose commutator Commute
// evaluates on fixed-size stack arrays; every pair of library gates fits.
const maxStackUnion = 4

// Commute reports whether two gates commute as operators on the full
// register. Three increasingly expensive checks are used:
//  1. disjoint qubit supports always commute;
//  2. two gates that both act diagonally on every qubit they share
//     (gate.DiagonalOn: the matrix is diagonal or the qubit is a control) are
//     block-diagonal over those qubits with blocks on disjoint supports, so
//     they commute — the one structural rule of the tree, which the engine's
//     segment scheduler applies per qubit frontier;
//  3. otherwise the commutator of the two operators embedded on the union of
//     their supports is computed explicitly.
func Commute(a, b *gate.Gate) bool {
	shared, structural := false, true
	for ba, q := range a.Qubits {
		if bb := slices.Index(b.Qubits, q); bb >= 0 {
			shared = true
			structural = structural && a.DiagonalOn(ba) && b.DiagonalOn(bb)
		}
	}
	if !shared || structural {
		return true
	}
	var buf [2 * maxStackUnion]int
	union := unionQubits(buf[:0], a, b)
	if len(union) > maxStackUnion {
		return cmat.Commutator(embedOnQubits(a, union), embedOnQubits(b, union)).FrobeniusNorm() <= commuteTol
	}
	const maxDim = 1 << maxStackUnion
	var ma, mb [maxDim * maxDim]complex128
	dim := 1 << len(union)
	embedInto(ma[:dim*dim], a, union)
	embedInto(mb[:dim*dim], b, union)
	var norm2 float64
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			var c complex128
			for k := 0; k < dim; k++ {
				c += ma[i*dim+k]*mb[k*dim+j] - mb[i*dim+k]*ma[k*dim+j]
			}
			norm2 += real(c)*real(c) + imag(c)*imag(c)
		}
	}
	return norm2 <= commuteTol*commuteTol
}

// embedInto writes g ⊗ identity on the register of the given sorted qubits
// (qubits[k] is bit k) into the zeroed row-major dst.
func embedInto(dst []complex128, g *gate.Gate, qubits []int) {
	var bit [maxStackUnion]int // register bit of each matrix bit of g
	mask := 0
	for k, q := range g.Qubits {
		bit[k] = slices.Index(qubits, q)
		mask |= 1 << bit[k]
	}
	k := len(g.Qubits)
	dim := 1 << len(qubits)
	for r := 0; r < dim; r++ {
		for lc := 0; lc < 1<<k; lc++ {
			lr, c := 0, r&^mask
			for b := 0; b < k; b++ {
				lr |= (r >> bit[b] & 1) << b
				c |= (lc >> b & 1) << bit[b]
			}
			dst[r*dim+c] = g.Matrix.Data[lr<<k|lc]
		}
	}
}

// unionQubits appends the sorted union of the supports of a and b to dst.
func unionQubits(dst []int, a, b *gate.Gate) []int {
	union := append(dst, a.Qubits...)
	for _, q := range b.Qubits {
		if !a.Touches(q) {
			union = append(union, q)
		}
	}
	sort.Ints(union)
	return union
}

// embedOnQubits returns the matrix of g embedded on the register formed by
// the given (sorted) qubit list: qubits[k] becomes bit k of the embedded
// index. Every qubit of g must appear in qubits.
func embedOnQubits(g *gate.Gate, qubits []int) *cmat.Matrix {
	pos := make(map[int]int, len(qubits))
	for k, q := range qubits {
		pos[q] = k
	}
	local := g.Remap(func(q int) int { return pos[q] })
	dim := 1 << len(qubits)
	u := cmat.Identity(dim)
	return applyGateToMatrix(&local, u, len(qubits))
}

// EmbedOnQubits is the exported form of embedOnQubits, which the fusion pass
// multiplies cluster members with.
func EmbedOnQubits(g *gate.Gate, qubits []int) *cmat.Matrix {
	return embedOnQubits(g, qubits)
}

// DependencyDAG captures the ordering constraints of a circuit: an edge
// i -> j (i < j) means gate i must run before gate j because they share a
// qubit and do not commute. Reorderings that respect the DAG leave the
// circuit unitary unchanged.
type DependencyDAG struct {
	N    int
	Succ [][]int // Succ[i]: gates that must come after i
	Pred [][]int // Pred[j]: gates that must come before j
}

// BuildDAG computes the dependency DAG of c. Transitive edges are included
// only between gates with overlapping supports (which is sufficient: any
// dependency chain is preserved by composition of these edges).
func BuildDAG(c *Circuit) *DependencyDAG {
	n := len(c.Gates)
	d := &DependencyDAG{N: n, Succ: make([][]int, n), Pred: make([][]int, n)}
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			if Commute(&c.Gates[i], &c.Gates[j]) {
				continue
			}
			d.Succ[i] = append(d.Succ[i], j)
			d.Pred[j] = append(d.Pred[j], i)
		}
	}
	return d
}

// ContractAndOrder treats each group in groups as a super-node that must be
// scheduled contiguously (members in original relative order) and returns a
// topological order of all gate indices, or ok=false if the contraction
// creates a cycle (i.e. the grouping is invalid under the commutation
// constraints). Gates not in any group are singleton nodes. Ties are broken
// by smallest original index, giving a deterministic, stable order.
func (d *DependencyDAG) ContractAndOrder(groups [][]int) (order []int, ok bool) {
	// node id per gate: groups get ids 0..len(groups)-1, singletons follow.
	nodeOf := make([]int, d.N)
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	for gi, grp := range groups {
		for _, idx := range grp {
			if nodeOf[idx] != -1 {
				return nil, false // overlapping groups
			}
			nodeOf[idx] = gi
		}
	}
	numNodes := len(groups)
	members := make([][]int, len(groups))
	for gi, grp := range groups {
		members[gi] = append([]int(nil), grp...)
		sort.Ints(members[gi])
	}
	for i := 0; i < d.N; i++ {
		if nodeOf[i] == -1 {
			nodeOf[i] = numNodes
			members = append(members, []int{i})
			numNodes++
		}
	}

	// Contracted edges.
	succ := make([]map[int]bool, numNodes)
	indeg := make([]int, numNodes)
	for i := range succ {
		succ[i] = make(map[int]bool)
	}
	for i := 0; i < d.N; i++ {
		for _, j := range d.Succ[i] {
			a, b := nodeOf[i], nodeOf[j]
			if a == b {
				continue
			}
			if !succ[a][b] {
				succ[a][b] = true
				indeg[b]++
			}
		}
	}

	// Kahn's algorithm with smallest-first-member tie-break.
	firstIdx := make([]int, numNodes)
	for v := 0; v < numNodes; v++ {
		firstIdx[v] = members[v][0]
	}
	var ready []int
	for v := 0; v < numNodes; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order = make([]int, 0, d.N)
	for len(ready) > 0 {
		// Pick the ready node with the smallest first member.
		best := 0
		for i := 1; i < len(ready); i++ {
			if firstIdx[ready[i]] < firstIdx[ready[best]] {
				best = i
			}
		}
		v := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, members[v]...)
		for w := range succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if len(order) != d.N {
		return nil, false // cycle: grouping invalid
	}
	return order, true
}

// Reorder returns a new circuit with gates in the given index order.
func (c *Circuit) Reorder(order []int) *Circuit {
	out := New(c.NumQubits)
	out.Gates = make([]gate.Gate, len(order))
	for newI, oldI := range order {
		out.Gates[newI] = c.Gates[oldI]
	}
	return out
}
