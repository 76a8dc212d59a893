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
// register. Four increasingly expensive checks are used:
//  1. disjoint qubit supports always commute;
//  2. two gates that both act diagonally on every qubit they share
//     (gate.DiagonalOn: the matrix is diagonal or the qubit is a control) are
//     block-diagonal over those qubits with blocks on disjoint supports, so
//     they commute — the one structural rule of the tree, which the engine's
//     segment scheduler applies per qubit frontier;
//  3. when one of them is diagonal, the commutator's norm has a closed form
//     in its diagonal and the other's entries (diagCommutatorNorm2);
//  4. otherwise the commutator of the two operators embedded on the union of
//     their supports is computed explicitly.
func Commute(a, b *gate.Gate) bool {
	shared, structural := 0, true
	for ba, q := range a.Qubits {
		if bb := slices.Index(b.Qubits, q); bb >= 0 {
			shared++
			structural = structural && a.DiagonalOn(ba) && b.DiagonalOn(bb)
		}
	}
	if shared == 0 || structural {
		return true
	}
	if len(a.Qubits)+len(b.Qubits)-shared > maxStackUnion {
		var buf [2 * maxStackUnion]int
		union := unionQubits(buf[:0], a, b)
		return cmat.Commutator(embedOnQubits(a, union), embedOnQubits(b, union)).FrobeniusNorm() <= commuteTol
	}
	if a.Diagonal {
		return diagCommutatorNorm2(a, b, shared) <= commuteTol*commuteTol
	}
	if b.Diagonal {
		return diagCommutatorNorm2(b, a, shared) <= commuteTol*commuteTol
	}
	var buf [2 * maxStackUnion]int
	union := unionQubits(buf[:0], a, b)
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

// diagCommutatorNorm2 returns ‖[D, U]‖²_F for a diagonal d and any u that
// share the given number of qubits, on a union of at most maxStackUnion
// qubits, without forming a product. Entry (x, y) of the commutator on the
// union is (d_x − d_y)·U_xy, and U_xy is zero unless x and y agree off u's
// support. So with i, j running over u's matrix indices and ρ over the
// qubits d touches beyond u's support,
//
//	‖[D, U]‖² = Σ_ρ Σ_{i≠j} |d(i, ρ) − d(j, ρ)|² · |u_ij|²,
//
// where d(i, ρ) is d's diagonal entry at the index i and ρ set on its
// qubits: 2^|ρ|·4^k terms where the explicit commutator costs 8^|union|.
func diagCommutatorNorm2(d, u *gate.Gate, shared int) float64 {
	// dIdx[i] | rest[ρ] is d's matrix index for u's index i and the bits ρ.
	var dIdxBuf, restBuf [1 << maxStackUnion]int
	dm, um := d.Matrix, u.Matrix
	stride, du := dm.Rows+1, um.Rows
	dIdx, rest := dIdxBuf[:du], restBuf[:1<<(len(d.Qubits)-shared)]
	nRest := 0
	for b, q := range d.Qubits {
		if k := slices.Index(u.Qubits, q); k >= 0 {
			for i := range dIdx {
				dIdx[i] |= (i >> k & 1) << b
			}
			continue
		}
		for r := range rest { // bit nRest of ρ is d's bit b
			rest[r] |= (r >> nRest & 1) << b
		}
		nRest++
	}
	var norm2 float64
	for _, r := range rest {
		for i, ui := range dIdx {
			di := dm.Data[(ui|r)*stride]
			for j, uj := range dIdx {
				v := um.Data[i*du+j]
				if i == j || v == 0 {
					continue
				}
				dd := di - dm.Data[(uj|r)*stride]
				norm2 += (real(dd)*real(dd) + imag(dd)*imag(dd)) * (real(v)*real(v) + imag(v)*imag(v))
			}
		}
	}
	return norm2
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
	local := gate.Gate{Qubits: make([]int, len(g.Qubits)), Matrix: g.Matrix}
	for b, q := range g.Qubits {
		local.Qubits[b] = slices.Index(qubits, q)
	}
	return applyGateToMatrix(&local, cmat.Identity(1<<len(qubits)), len(qubits))
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
	Succ [][]int // Succ[i]: gates that must come after i, ascending

	mark []uint8 // Contractible's scratch, one entry per gate
}

// BuildDAG computes the dependency DAG of c. Disjoint gates always commute,
// so only pairs sharing a qubit are checked: gate i against the later gates
// in each of its qubits' lists, a pair sharing two qubits once. Transitive
// edges are included only between gates with overlapping supports (which is
// sufficient: any dependency chain is preserved by composition of these
// edges). The Succ lists share one array.
func BuildDAG(c *Circuit) *DependencyDAG {
	n, nq := len(c.Gates), c.NumQubits
	// on[start[q]:start[q+1]] lists the gates on qubit q in circuit order.
	start := make([]int, nq+1)
	for i := range c.Gates {
		for _, q := range c.Gates[i].Qubits {
			start[q+1]++
		}
	}
	for q := range nq {
		start[q+1] += start[q]
	}
	on, fill := make([]int, start[nq]), slices.Clone(start[:nq])
	for i := range c.Gates {
		for _, q := range c.Gates[i].Qubits {
			on[fill[q]] = i
			fill[q]++
		}
	}
	d := &DependencyDAG{N: n, Succ: make([][]int, n)}
	succ := make([]int, 0, 2*len(on))
	seen := make([]int, n) // seen[j] = i+1 once the pair (i, j) is checked
	for i := range c.Gates {
		g, from := &c.Gates[i], len(succ)
		for _, q := range g.Qubits {
			list := on[start[q]:start[q+1]]
			at, _ := slices.BinarySearch(list, i)
			for _, j := range list[at+1:] {
				if seen[j] == i+1 {
					continue
				}
				seen[j] = i + 1
				if !Commute(g, &c.Gates[j]) {
					succ = append(succ, j)
				}
			}
		}
		if len(succ) > from {
			slices.Sort(succ[from:])
			d.Succ[i] = succ[from:]
		}
	}
	// Point every list into the final array: appends may have moved it.
	at := 0
	for i, s := range d.Succ {
		if len(s) > 0 {
			d.Succ[i] = succ[at : at+len(s) : at+len(s)]
			at += len(s)
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
	// Node ids: groups get 0..len(groups)-1, singletons follow in gate
	// order. Node v's members are members[first[v]:first[v+1]], ascending.
	nodeOf := make([]int, d.N)
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	grouped := 0
	for gi, grp := range groups {
		for _, idx := range grp {
			if nodeOf[idx] != -1 {
				return nil, false // overlapping groups
			}
			nodeOf[idx] = gi
		}
		grouped += len(grp)
	}
	numNodes := len(groups) + d.N - grouped
	members := make([]int, 0, d.N)
	first := make([]int, numNodes+1)
	for gi, grp := range groups {
		members = append(members, grp...)
		slices.Sort(members[first[gi]:])
		first[gi+1] = len(members)
	}
	for i, v := 0, len(groups); i < d.N; i++ {
		if nodeOf[i] == -1 {
			nodeOf[i] = v
			members = append(members, i)
			v++
			first[v] = len(members)
		}
	}

	// Contracted edges: succ[edge[v]:edge[v+1]] leave node v, each once
	// (stamp[w] = v+1 once v → w is recorded).
	edges := 0
	for _, s := range d.Succ {
		edges += len(s)
	}
	succ := make([]int, 0, edges)
	edge, indeg, stamp := make([]int, numNodes+1), make([]int, numNodes), make([]int, numNodes)
	for v := range numNodes {
		for _, i := range members[first[v]:first[v+1]] {
			for _, j := range d.Succ[i] {
				if w := nodeOf[j]; w != v && stamp[w] != v+1 {
					stamp[w] = v + 1
					succ = append(succ, w)
					indeg[w]++
				}
			}
		}
		edge[v+1] = len(succ)
	}

	// Kahn's algorithm with smallest-first-member tie-break: ready is a
	// binary min-heap of the ready nodes' first members, which name them
	// (nodeOf).
	ready := minHeap(stamp[:0]) // every stamp is read for the last time above
	for v := range numNodes {
		if indeg[v] == 0 {
			ready.push(members[first[v]])
		}
	}
	order = make([]int, 0, d.N)
	for len(ready) > 0 {
		v := nodeOf[ready.pop()]
		order = append(order, members[first[v]:first[v+1]]...)
		for _, w := range succ[edge[v]:edge[v+1]] {
			if indeg[w]--; indeg[w] == 0 {
				ready.push(members[first[w]])
			}
		}
	}
	if len(order) != d.N {
		return nil, false // cycle: grouping invalid
	}
	return order, true
}

// minHeap is a binary min-heap of ints.
type minHeap []int

func (h *minHeap) push(x int) {
	*h = append(*h, x)
	for i, n := len(*h)-1, *h; i > 0 && n[(i-1)/2] > n[i]; i = (i - 1) / 2 {
		n[(i-1)/2], n[i] = n[i], n[(i-1)/2]
	}
}

func (h *minHeap) pop() int {
	n := *h
	x, last := n[0], len(n)-1
	n[0], n = n[last], n[:last]
	for i := 0; ; {
		m := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(n) && n[c] < n[m] {
				m = c
			}
		}
		if m == i {
			break
		}
		n[i], n[m] = n[m], n[i]
		i = m
	}
	*h = n
	return x
}

// Contractible reports whether group can run as one contiguous block:
// exactly when ContractAndOrder([][]int{group}) succeeds. That fails when a
// member repeats, or when some gate outside the group that a member reaches
// reaches a member in turn. Edges run forward, so every such gate lies in
// [min group, max group], and one ascending scan of that range finds it
// without contracting anything. The scan's marks live on the DAG: it
// allocates only on the first call and is not safe for concurrent use.
func (d *DependencyDAG) Contractible(group []int) bool {
	if len(group) == 0 {
		return true
	}
	const (
		member  = 1
		reached = 2 // a non-member some member reaches
	)
	if d.mark == nil {
		d.mark = make([]uint8, d.N)
	}
	lo, hi := slices.Min(group), slices.Max(group)
	mark := d.mark[lo : hi+1]
	clear(mark)
	for _, i := range group {
		if mark[i-lo] == member {
			return false
		}
		mark[i-lo] = member
	}
	for i := lo; i <= hi; i++ {
		from := mark[i-lo]
		if from == 0 {
			continue
		}
		for _, j := range d.Succ[i] {
			if j > hi {
				break
			}
			switch mark[j-lo] {
			case 0:
				mark[j-lo] = reached
			case member:
				if from == reached {
					return false
				}
			}
		}
	}
	return true
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
