// Package fuse implements qsim-style greedy gate fusion: adjacent gates are
// merged into clusters of at most MaxQubits qubits, replacing many small
// matrix applications by fewer, larger ones. The paper's Table I notes that
// the preprocessing time of both the Schrödinger baseline and the HSF runs
// includes gate fusion; this package is used by both code paths.
package fuse

import (
	"sort"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
)

// DefaultMaxQubits is the default fusion cluster size. Two-qubit clusters
// absorb single-qubit gates into the 2-qubit span kernels. A larger cluster is
// a dense k≥3 block on the general gather/scatter kernel, and every diagonal
// gate it swallows is one the Schrödinger sweep's phase step would have
// applied for free (statevec.CompileSegment): on the q18-1 Schrödinger
// baseline, one core, BenchmarkFusionBudget* reads 6.7 ms unfused, 6.0 ms at
// budget 2, 14.4 ms at 3 and 25.1 ms at 4. qsim's AVX kernels favour larger
// clusters; this implementation does not.
const DefaultMaxQubits = 2

// cluster is an open fusion group under construction.
type cluster struct {
	qubits []int       // sorted
	gates  []gate.Gate // original order
}

func (c *cluster) absorb(g gate.Gate) {
	seen := make(map[int]bool, len(c.qubits))
	for _, q := range c.qubits {
		seen[q] = true
	}
	for _, q := range g.Qubits {
		if !seen[q] {
			c.qubits = append(c.qubits, q)
			seen[q] = true
		}
	}
	sort.Ints(c.qubits)
	c.gates = append(c.gates, g)
}

// emit builds the fused gate for the cluster. Single-gate clusters pass
// through unchanged to keep names and diagonal flags intact.
func (c *cluster) emit() gate.Gate {
	if len(c.gates) == 1 {
		return c.gates[0]
	}
	// Multiply the member gates on the cluster's qubit space.
	dim := 1 << len(c.qubits)
	u := cmat.Identity(dim)
	pos := make(map[int]int, len(c.qubits))
	for k, q := range c.qubits {
		pos[q] = k
	}
	for i := range c.gates {
		local := c.gates[i].Remap(func(q int) int { return pos[q] })
		u = cmat.Mul(circuit.EmbedOnQubits(&local, localRange(len(c.qubits))), u)
	}
	return gate.New("fused", u, nil, append([]int(nil), c.qubits...)...)
}

func localRange(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// Fuse rewrites the gate list of c into fused clusters of at most maxQubits
// qubits. The circuit unitary is preserved exactly: gates are only merged
// with neighbours on their own qubits, never reordered.
func Fuse(gates []gate.Gate, maxQubits int) []gate.Gate {
	if maxQubits < 1 {
		maxQubits = DefaultMaxQubits
	}
	var out []gate.Gate
	// active[q] is the open cluster currently owning qubit q.
	active := make(map[int]*cluster)

	closeCluster := func(cl *cluster) {
		out = append(out, cl.emit())
		for _, q := range cl.qubits {
			if active[q] == cl {
				delete(active, q)
			}
		}
	}

	for i := range gates {
		g := gates[i]
		// Find the distinct open clusters touching g's qubits.
		var touched []*cluster
		seen := make(map[*cluster]bool)
		for _, q := range g.Qubits {
			if cl, ok := active[q]; ok && !seen[cl] {
				seen[cl] = true
				touched = append(touched, cl)
			}
		}
		// Compute the union size if all touched clusters and g merge.
		union := make(map[int]bool)
		for _, q := range g.Qubits {
			union[q] = true
		}
		for _, cl := range touched {
			for _, q := range cl.qubits {
				union[q] = true
			}
		}
		if len(union) <= maxQubits {
			// Merge everything into the first touched cluster (or a new one).
			var target *cluster
			if len(touched) > 0 {
				target = touched[0]
				for _, cl := range touched[1:] {
					// Merging preserves order: all member gates of cl come
					// after target's only if... both are open and disjoint;
					// their gates act on disjoint qubits so interleaving is
					// irrelevant. Concatenate in original order.
					target.gates = append(target.gates, cl.gates...)
					for _, q := range cl.qubits {
						if active[q] == cl {
							active[q] = target
						}
					}
					target.qubits = append(target.qubits, cl.qubits...)
				}
				if len(touched) > 1 {
					sort.Ints(target.qubits)
					target.qubits = dedupSorted(target.qubits)
				}
			} else {
				target = &cluster{}
			}
			target.absorb(g)
			for _, q := range target.qubits {
				active[q] = target
			}
			continue
		}
		// Cannot merge: close the touched clusters and start fresh with g.
		for _, cl := range touched {
			closeCluster(cl)
		}
		if g.NumQubits() <= maxQubits {
			cl := &cluster{}
			cl.absorb(g)
			for _, q := range cl.qubits {
				active[q] = cl
			}
		} else {
			// Gate larger than the fusion budget passes through unchanged.
			out = append(out, g)
		}
	}
	// Close remaining clusters in order of their first gate's position to
	// keep the output deterministic. Open clusters are pairwise independent,
	// so any order is correct.
	var rest []*cluster
	seen := make(map[*cluster]bool)
	for _, cl := range active {
		if !seen[cl] {
			seen[cl] = true
			rest = append(rest, cl)
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		return rest[i].qubits[0] < rest[j].qubits[0]
	})
	for _, cl := range rest {
		out = append(out, cl.emit())
	}
	return out
}

func dedupSorted(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// FuseCircuit applies Fuse to a circuit, returning a new circuit.
func FuseCircuit(c *circuit.Circuit, maxQubits int) *circuit.Circuit {
	out := circuit.New(c.NumQubits)
	out.Gates = Fuse(c.Gates, maxQubits)
	return out
}
