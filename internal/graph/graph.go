// Package graph provides the problem-graph substrate for the QAOA
// evaluation: weighted undirected graphs, the stochastic block model used by
// the paper's Table II instances (networkx' stochastic_block_model
// equivalent), and MaxCut utilities including the QUBO reduction the paper
// cites as motivation.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
)

// Edge is an undirected weighted edge with U < V.
type Edge struct {
	U, V int
	W    float64
}

// Graph is a weighted undirected graph on vertices 0..N-1.
type Graph struct {
	N     int
	Edges []Edge
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{N: n}
}

// AddEdge inserts an undirected edge; endpoints are normalized to U < V.
// Self-loops are rejected.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u < 0 || v < 0 || u >= g.N || v >= g.N {
		return fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", u, v, g.N)
	}
	if u > v {
		u, v = v, u
	}
	g.Edges = append(g.Edges, Edge{U: u, V: v, W: w})
	return nil
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Degree returns the per-vertex degree histogram.
func (g *Graph) Degree() []int {
	d := make([]int, g.N)
	for _, e := range g.Edges {
		d[e.U]++
		d[e.V]++
	}
	return d
}

// SortEdges orders edges lexicographically for deterministic circuits.
func (g *Graph) SortEdges() {
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i].U != g.Edges[j].U {
			return g.Edges[i].U < g.Edges[j].U
		}
		return g.Edges[i].V < g.Edges[j].V
	})
}

// StochasticBlockModel samples a graph with len(sizes) vertex blocks;
// vertices in block i and block j are connected independently with
// probability p[i][j] (p must be symmetric). Vertices are numbered block by
// block: block 0 holds vertices 0..sizes[0]-1 and so on, matching networkx'
// stochastic_block_model used for the paper's Table II instances. All edges
// get weight 1.
func StochasticBlockModel(sizes []int, p [][]float64, rng *rand.Rand) (*Graph, error) {
	k := len(sizes)
	if len(p) != k {
		return nil, fmt.Errorf("graph: probability matrix is %dx?, want %dx%d", len(p), k, k)
	}
	n := 0
	offset := make([]int, k)
	for i, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("graph: negative block size %d", s)
		}
		if len(p[i]) != k {
			return nil, fmt.Errorf("graph: probability row %d has %d entries, want %d", i, len(p[i]), k)
		}
		offset[i] = n
		n += s
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if p[i][j] < 0 || p[i][j] > 1 {
				return nil, fmt.Errorf("graph: probability p[%d][%d]=%g out of [0,1]", i, j, p[i][j])
			}
			if p[i][j] != p[j][i] {
				return nil, fmt.Errorf("graph: probability matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	g := New(n)
	for bi := 0; bi < k; bi++ {
		for bj := bi; bj < k; bj++ {
			prob := p[bi][bj]
			if prob == 0 {
				continue
			}
			for u := offset[bi]; u < offset[bi]+sizes[bi]; u++ {
				vStart := offset[bj]
				if bi == bj {
					vStart = u + 1
				}
				for v := vStart; v < offset[bj]+sizes[bj]; v++ {
					if rng.Float64() < prob {
						g.Edges = append(g.Edges, Edge{U: u, V: v, W: 1})
					}
				}
			}
		}
	}
	g.SortEdges()
	return g, nil
}

// TwoBlockModel is the paper's instance generator: two blocks with intra-
// and inter-partition probabilities (Table II's p_intra / p_inter).
func TwoBlockModel(sizeA, sizeB int, pIntra, pInter float64, rng *rand.Rand) (*Graph, error) {
	return StochasticBlockModel(
		[]int{sizeA, sizeB},
		[][]float64{{pIntra, pInter}, {pInter, pIntra}},
		rng,
	)
}

// ErdosRenyi samples G(n, p) with unit edge weights.
func ErdosRenyi(n int, p float64, rng *rand.Rand) (*Graph, error) {
	return StochasticBlockModel([]int{n}, [][]float64{{p}}, rng)
}

// RandomizeWeights assigns each edge an independent uniform weight in
// [lo, hi), turning an unweighted instance into a weighted MaxCut problem
// (the paper notes any QUBO reduces to *weighted* MaxCut).
func (g *Graph) RandomizeWeights(lo, hi float64, rng *rand.Rand) error {
	if hi < lo {
		return fmt.Errorf("graph: weight range [%g, %g) is empty", lo, hi)
	}
	for i := range g.Edges {
		g.Edges[i].W = lo + rng.Float64()*(hi-lo)
	}
	return nil
}

// WriteDOT renders the graph in Graphviz DOT format; vertices up to cutPos
// are grouped in one cluster and the rest in another, visualizing the
// partition the HSF cut uses. Pass cutPos < 0 to skip clustering.
func (g *Graph) WriteDOT(w io.Writer, cutPos int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph G {")
	if cutPos >= 0 && cutPos < g.N-1 {
		fmt.Fprintln(bw, "  subgraph cluster_lower {\n    label=\"lower partition\";")
		for v := 0; v <= cutPos; v++ {
			fmt.Fprintf(bw, "    %d;\n", v)
		}
		fmt.Fprintln(bw, "  }")
		fmt.Fprintln(bw, "  subgraph cluster_upper {\n    label=\"upper partition\";")
		for v := cutPos + 1; v < g.N; v++ {
			fmt.Fprintf(bw, "    %d;\n", v)
		}
		fmt.Fprintln(bw, "  }")
	}
	for _, e := range g.Edges {
		attr := ""
		if cutPos >= 0 && e.U <= cutPos && e.V > cutPos {
			attr = " [color=red]"
		}
		if e.W != 1 {
			if attr == "" {
				attr = fmt.Sprintf(" [label=\"%g\"]", e.W)
			} else {
				attr = fmt.Sprintf(" [color=red,label=\"%g\"]", e.W)
			}
		}
		fmt.Fprintf(bw, "  %d -- %d%s;\n", e.U, e.V, attr)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// CrossingEdges counts edges with one endpoint ≤ cutPos and one above —
// these become the crossing RZZ gates of the QAOA problem layer.
func (g *Graph) CrossingEdges(cutPos int) int {
	n := 0
	for _, e := range g.Edges {
		if e.U <= cutPos && e.V > cutPos {
			n++
		}
	}
	return n
}
