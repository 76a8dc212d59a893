// Package fuse implements qsim-style greedy gate fusion: adjacent gates are
// merged into clusters of at most MaxQubits qubits, replacing many small
// matrix applications by fewer, larger ones. The paper's Table I notes that
// the preprocessing time of both the Schrödinger baseline and the HSF runs
// includes gate fusion; this package is used by both code paths.
package fuse

import (
	"slices"

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

// cluster is an open fusion group under construction. Its first few qubits
// and members live in the cluster itself.
type cluster struct {
	qubits  []int // sorted
	members []int // indices into the gate list, in order
	qbuf    [4]int
	mbuf    [4]int
}

func newCluster() *cluster {
	cl := &cluster{}
	cl.qubits, cl.members = cl.qbuf[:0], cl.mbuf[:0]
	return cl
}

// absorb adds gates[i] to the cluster.
func (c *cluster) absorb(gates []gate.Gate, i int) {
	for _, q := range gates[i].Qubits {
		if !slices.Contains(c.qubits, q) {
			c.qubits = append(c.qubits, q)
		}
	}
	slices.Sort(c.qubits)
	c.members = append(c.members, i)
}

// emit builds the fused gate for the cluster. Single-gate clusters pass
// through unchanged to keep names and diagonal flags intact.
func (c *cluster) emit(gates []gate.Gate) gate.Gate {
	if len(c.members) == 1 {
		return gates[c.members[0]]
	}
	// Multiply the member gates on the cluster's qubit space.
	u := cmat.Identity(1 << len(c.qubits))
	for _, i := range c.members {
		u = cmat.Mul(circuit.EmbedOnQubits(&gates[i], c.qubits), u)
	}
	return gate.New("fused", u, nil, slices.Clone(c.qubits)...)
}

// Fuse rewrites the gate list of c into fused clusters of at most maxQubits
// qubits. The circuit unitary is preserved exactly: gates are only merged
// with neighbours on their own qubits, never reordered.
func Fuse(gates []gate.Gate, maxQubits int) []gate.Gate {
	if maxQubits < 1 {
		maxQubits = DefaultMaxQubits
	}
	out := make([]gate.Gate, 0, len(gates))
	// active[q] is the open cluster currently owning qubit q. Open clusters
	// own disjoint qubit sets.
	nq := 0
	for i := range gates {
		nq = max(nq, gates[i].MaxQubit()+1)
	}
	active := make([]*cluster, nq)

	closeCluster := func(cl *cluster) {
		out = append(out, cl.emit(gates))
		for _, q := range cl.qubits {
			if active[q] == cl {
				active[q] = nil
			}
		}
	}

	var touchedBuf [4]*cluster
	for i := range gates {
		g := &gates[i]
		// Find the distinct open clusters touching g's qubits. They are
		// disjoint and hold every qubit of g that is owned, so the union
		// of g and all of them counts each qubit once.
		touched, union := touchedBuf[:0], 0
		for _, q := range g.Qubits {
			switch cl := active[q]; {
			case cl == nil:
				union++
			case !slices.Contains(touched, cl):
				touched = append(touched, cl)
				union += len(cl.qubits)
			}
		}
		if union <= maxQubits {
			// Merge everything into the first touched cluster (or a new one).
			var target *cluster
			if len(touched) > 0 {
				target = touched[0]
				for _, cl := range touched[1:] {
					// The clusters act on disjoint qubits, so interleaving
					// their gates is irrelevant: concatenate in order.
					target.members = append(target.members, cl.members...)
					for _, q := range cl.qubits {
						if active[q] == cl {
							active[q] = target
						}
					}
					target.qubits = append(target.qubits, cl.qubits...)
				}
				if len(touched) > 1 {
					slices.Sort(target.qubits)
					target.qubits = slices.Compact(target.qubits)
				}
			} else {
				target = newCluster()
			}
			target.absorb(gates, i)
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
			cl := newCluster()
			cl.absorb(gates, i)
			for _, q := range cl.qubits {
				active[q] = cl
			}
		} else {
			// Gate larger than the fusion budget passes through unchanged.
			out = append(out, *g)
		}
	}
	// Close remaining clusters in order of their lowest qubit to keep the
	// output deterministic: a cluster is first met at its lowest qubit. Open
	// clusters are pairwise independent, so any order is correct.
	for q, cl := range active {
		if cl != nil && cl.qubits[0] == q {
			closeCluster(cl)
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
