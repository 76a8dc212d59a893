// Package dd implements a decision-diagram statevector backend in the style
// of the QMDD packages from the EDA community that the paper's background
// surveys (refs [9]-[15], including the authors' decision-diagram-based HSF
// predecessor). Statevectors are stored as quasi-reduced, edge-weighted
// binary decision diagrams with a unique table for node sharing; structured
// states (GHZ, stabilizer-like, product states) compress from 2^n amplitudes
// to O(n) nodes.
//
// The package runs whole circuits only. It is the simulator's independent
// oracle: its gate application shares no code with the dense kernels or the
// HSF walker, so a result both agree on was not shaped by a bug in either.
//
// Gates of any arity are applied uniformly through the outer-product
// expansion U = Σ_{t,u} M[t,u]·|t><u| on the touched qubits: each (t,u) term
// selects the u-branches and re-embeds them at t, and the weighted terms are
// summed with the DD add operation.
package dd

import (
	"fmt"
	"math"
	"math/cmplx"

	"hsfsim/internal/circuit"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
)

// node is a DD vertex at a qubit level; children live one level below.
// level -1 is the terminal.
type node struct {
	level int
	e     [2]edge
	id    uint64
}

// edge is a weighted pointer to a node.
type edge struct {
	w complex128
	n *node
}

func (e edge) isZero() bool { return e.w == 0 }

// DD is a decision-diagram statevector on N qubits. The zero value is not
// usable; construct with New.
type DD struct {
	N        int
	root     edge
	terminal *node
	unique   map[nodeKey]*node
	nextID   uint64
}

// nodeKey canonicalizes a node for the unique table. Edge weights are
// quantized; a missed match only reduces sharing, never correctness.
type nodeKey struct {
	level              int
	id0, id1           uint64
	w0r, w0i, w1r, w1i int64
}

const weightQuantum = 1e-10

func quantize(w complex128) (int64, int64) {
	return int64(math.Round(real(w) / weightQuantum)), int64(math.Round(imag(w) / weightQuantum))
}

// New returns the basis state |x> on n qubits as a DD.
func New(n int, x uint64) *DD {
	if n <= 0 || n > 62 {
		panic(fmt.Sprintf("dd: invalid qubit count %d", n))
	}
	d := &DD{N: n, unique: make(map[nodeKey]*node)}
	d.terminal = &node{level: -1}
	e := edge{w: 1, n: d.terminal}
	for level := 0; level < n; level++ {
		bit := int((x >> uint(level)) & 1)
		var children [2]edge
		children[bit] = e
		children[1-bit] = d.zeroEdge(level - 1)
		e = d.makeNode(level, children[0], children[1])
	}
	d.root = e
	return d
}

// zeroEdge returns the canonical zero edge (any terminal works: weight 0).
func (d *DD) zeroEdge(int) edge { return edge{w: 0, n: d.terminal} }

// makeNode normalizes and deduplicates a node with the given children.
func (d *DD) makeNode(level int, e0, e1 edge) edge {
	if e0.isZero() && e1.isZero() {
		return edge{w: 0, n: d.terminal}
	}
	// Normalize by the larger-magnitude child weight (ties: child 0), so
	// structurally equal subtrees share nodes.
	var norm complex128
	if cmplx.Abs(e0.w) >= cmplx.Abs(e1.w) {
		norm = e0.w
	} else {
		norm = e1.w
	}
	e0.w /= norm
	e1.w /= norm
	if e0.isZero() {
		e0.n = d.terminal
	}
	if e1.isZero() {
		e1.n = d.terminal
	}
	w0r, w0i := quantize(e0.w)
	w1r, w1i := quantize(e1.w)
	key := nodeKey{level: level, id0: e0.n.id, id1: e1.n.id, w0r: w0r, w0i: w0i, w1r: w1r, w1i: w1i}
	if n, ok := d.unique[key]; ok {
		return edge{w: norm, n: n}
	}
	d.nextID++
	n := &node{level: level, e: [2]edge{e0, e1}, id: d.nextID}
	d.unique[key] = n
	return edge{w: norm, n: n}
}

// addKey caches vector additions.
type addKey struct {
	a, b   uint64
	wr, wi int64 // quantized ratio b.w/a.w
}

// add computes a + b for two edges at the same level.
func (d *DD) add(a, b edge, cache map[addKey]edge) edge {
	if a.isZero() {
		return b
	}
	if b.isZero() {
		return a
	}
	if a.n.level == -1 {
		return edge{w: a.w + b.w, n: d.terminal}
	}
	// Factor out the larger weight so the cache keys on a ratio of at most 1:
	// against a rounding residue of an exact cancellation the inverse ratio
	// overflows the key's quantization, and every such sum of the two nodes
	// would share one cache entry.
	if cmplx.Abs(b.w) > cmplx.Abs(a.w) {
		a, b = b, a
	}
	ratio := b.w / a.w
	rr, ri := quantize(ratio)
	key := addKey{a: a.n.id, b: b.n.id, wr: rr, wi: ri}
	if r, ok := cache[key]; ok {
		return edge{w: r.w * a.w, n: r.n}
	}
	level := a.n.level
	e0 := d.add(
		edge{w: a.n.e[0].w, n: a.n.e[0].n},
		edge{w: ratio * b.n.e[0].w, n: b.n.e[0].n},
		cache,
	)
	e1 := d.add(
		edge{w: a.n.e[1].w, n: a.n.e[1].n},
		edge{w: ratio * b.n.e[1].w, n: b.n.e[1].n},
		cache,
	)
	res := d.makeNode(level, e0, e1)
	cache[key] = res
	return edge{w: res.w * a.w, n: res.n}
}

// selectEmbed returns the DD term |t-pattern><u-pattern| ψ for the touched
// qubits: descending the diagram, at a touched level the u-child is selected
// and re-attached at position t; untouched levels recurse on both children.
// qubitBit maps a level to its index in the gate's qubit list (-1 if
// untouched).
func (d *DD) selectEmbed(e edge, qubitBit []int, t, u int, cache map[uint64]edge) edge {
	if e.isZero() {
		return e
	}
	if e.n.level == -1 {
		return e
	}
	if r, ok := cache[e.n.id]; ok {
		return edge{w: r.w * e.w, n: r.n}
	}
	level := e.n.level
	var res edge
	if k := qubitBit[level]; k >= 0 {
		uBit := (u >> k) & 1
		tBit := (t >> k) & 1
		sub := d.selectEmbed(e.n.e[uBit], qubitBit, t, u, cache)
		var children [2]edge
		children[tBit] = sub
		children[1-tBit] = d.zeroEdge(level - 1)
		res = d.makeNode(level, children[0], children[1])
	} else {
		e0 := d.selectEmbed(e.n.e[0], qubitBit, t, u, cache)
		e1 := d.selectEmbed(e.n.e[1], qubitBit, t, u, cache)
		res = d.makeNode(level, e0, e1)
	}
	cache[e.n.id] = res
	return edge{w: res.w * e.w, n: res.n}
}

// ApplyGate applies a gate of any arity via the outer-product expansion.
func (d *DD) ApplyGate(g *gate.Gate) error {
	for _, q := range g.Qubits {
		if q < 0 || q >= d.N {
			return fmt.Errorf("dd: qubit %d out of range", q)
		}
	}
	k := g.NumQubits()
	dim := 1 << k
	qubitBit := make([]int, d.N)
	for i := range qubitBit {
		qubitBit[i] = -1
	}
	for bit, q := range g.Qubits {
		qubitBit[q] = bit
	}
	result := d.zeroEdge(d.N - 1)
	addCache := make(map[addKey]edge)
	for t := 0; t < dim; t++ {
		for u := 0; u < dim; u++ {
			m := g.Matrix.At(t, u)
			if m == 0 {
				continue
			}
			term := d.selectEmbed(d.root, qubitBit, t, u, make(map[uint64]edge))
			term.w *= m
			result = d.add(result, term, addCache)
		}
	}
	d.root = result
	return nil
}

// ApplyCircuit applies every gate of the circuit.
func (d *DD) ApplyCircuit(c *circuit.Circuit) error {
	if c.NumQubits != d.N {
		return fmt.Errorf("dd: circuit has %d qubits, state has %d", c.NumQubits, d.N)
	}
	for i := range c.Gates {
		if err := d.ApplyGate(&c.Gates[i]); err != nil {
			return fmt.Errorf("dd: gate %d: %w", i, err)
		}
	}
	return nil
}

// Amplitude returns <x|ψ>.
func (d *DD) Amplitude(x uint64) complex128 {
	e := d.root
	w := e.w
	n := e.n
	for n.level >= 0 {
		bit := (x >> uint(n.level)) & 1
		c := n.e[bit]
		w *= c.w
		if w == 0 {
			return 0
		}
		n = c.n
	}
	return w
}

// Norm returns sqrt(<ψ|ψ>) via a cached recursive contraction.
func (d *DD) Norm() float64 {
	cache := make(map[uint64]float64)
	var rec func(n *node) float64
	rec = func(n *node) float64 {
		if n.level == -1 {
			return 1
		}
		if v, ok := cache[n.id]; ok {
			return v
		}
		var s float64
		for _, c := range n.e {
			if c.isZero() {
				continue
			}
			aw := real(c.w)*real(c.w) + imag(c.w)*imag(c.w)
			s += aw * rec(c.n)
		}
		cache[n.id] = s
		return s
	}
	if d.root.isZero() {
		return 0
	}
	aw := real(d.root.w)*real(d.root.w) + imag(d.root.w)*imag(d.root.w)
	return math.Sqrt(aw * rec(d.root.n))
}

// NumNodes counts the distinct nodes reachable from the root (excluding the
// terminal) — the DD's memory footprint measure used by refs [13]-[15].
func (d *DD) NumNodes() int {
	seen := make(map[uint64]bool)
	var rec func(n *node)
	rec = func(n *node) {
		if n.level == -1 || seen[n.id] {
			return
		}
		seen[n.id] = true
		for _, c := range n.e {
			if !c.isZero() {
				rec(c.n)
			}
		}
	}
	if !d.root.isZero() {
		rec(d.root.n)
	}
	return len(seen)
}

// ToStatevector expands the DD to a dense statevector (exponential in N;
// for verification on small systems).
func (d *DD) ToStatevector() statevec.State {
	out := make(statevec.State, 1<<d.N)
	var rec func(e edge, level int, prefix uint64)
	rec = func(e edge, level int, prefix uint64) {
		if e.isZero() {
			return
		}
		if level < 0 {
			out[prefix] = e.w
			return
		}
		n := e.n
		rec(edge{w: e.w * n.e[0].w, n: n.e[0].n}, level-1, prefix)
		rec(edge{w: e.w * n.e[1].w, n: n.e[1].n}, level-1, prefix|1<<uint(level))
	}
	rec(d.root, d.N-1, 0)
	return out
}
