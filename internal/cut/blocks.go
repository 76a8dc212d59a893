package cut

import (
	"slices"
	"sort"

	"hsfsim/internal/circuit"
)

// Strategy selects how crossing gates are grouped into joint-cut blocks.
type Strategy int

// Grouping strategies.
const (
	// StrategyNone performs state-of-the-art standard cutting: every
	// crossing gate is cut separately.
	StrategyNone Strategy = iota
	// StrategyCascade reassembles cascades: crossing two-qubit gates sharing
	// a single anchor qubit on one side of the cut are grouped (the paper's
	// brute-force grouping used for the QAOA evaluation, cf. Fig. 6).
	StrategyCascade
	// StrategyWindow grows fusion-style windows around crossing gates,
	// absorbing local gates on the window's qubits, bounded by
	// MaxBlockQubits. Suited to supremacy-style circuits and the Fig. 3
	// example, where consecutive crossing gates share boundary qubits.
	StrategyWindow
)

func (s Strategy) String() string {
	switch s {
	case StrategyNone:
		return "standard"
	case StrategyCascade:
		return "cascade"
	case StrategyWindow:
		return "window"
	default:
		return "unknown"
	}
}

// DefaultMaxBlockQubits caps the number of qubits a joint-cut block may
// touch. Paper Sec. IV-C: blocks must stay small relative to the circuit or
// the O(D³) Schmidt preprocessing dominates the saved simulation time.
const DefaultMaxBlockQubits = 8

// groupCascades implements StrategyCascade. It returns groups of crossing
// gate indices (each of size ≥ 2) such that all gates in a group are
// two-qubit gates sharing one anchor qubit, with at most maxBlockQubits
// touched qubits per group. The remaining crossing gates stay separate.
//
// The search is the paper's brute-force reassembly: every qubit is scored by
// how many still-ungrouped crossing gates it anchors; the best anchor is
// collected into a block, and the scan repeats until no anchor holds two or
// more gates.
func groupCascades(c *circuit.Circuit, p Partition, crossing []int, maxBlockQubits int) [][]int {
	grouped := make([]bool, len(c.Gates))
	count := make([][]int, c.NumQubits) // anchor qubit -> gate indices, ascending
	var groups [][]int
	for {
		// Score anchors over ungrouped two-qubit crossing gates.
		for q := range count {
			count[q] = count[q][:0]
		}
		for _, gi := range crossing {
			if grouped[gi] {
				continue
			}
			g := &c.Gates[gi]
			if g.NumQubits() != 2 {
				continue
			}
			for _, q := range g.Qubits {
				count[q] = append(count[q], gi)
			}
		}
		// The most gates, the lowest qubit among equals.
		bestAnchor, bestN := -1, 1
		for q, gis := range count {
			if len(gis) > bestN {
				bestAnchor, bestN = q, len(gis)
			}
		}
		if bestAnchor == -1 {
			return groups
		}
		gis := count[bestAnchor]
		// Chunk to respect the block qubit budget: anchor + fan qubits. Two
		// gates may share a fan qubit, so count distinct qubits as we go.
		var cur []int
		qubits := []int{bestAnchor}
		flush := func() {
			if len(cur) >= 2 {
				groups = append(groups, cur)
			}
			for _, gi := range cur {
				grouped[gi] = true
			}
			cur = nil
			qubits = append(qubits[:0], bestAnchor)
		}
		for _, gi := range gis {
			g := &c.Gates[gi]
			added := 0
			for _, q := range g.Qubits {
				if !slices.Contains(qubits, q) {
					added++
				}
			}
			if len(qubits)+added > maxBlockQubits {
				flush()
			}
			for _, q := range g.Qubits {
				if !slices.Contains(qubits, q) {
					qubits = append(qubits, q)
				}
			}
			cur = append(cur, gi)
		}
		flush()
	}
}

// window is an open grouping cluster for StrategyWindow.
type window struct {
	qubits   []int // distinct, in the order the window took them
	members  []int // gate indices in circuit order
	crossing int   // crossing members among them
}

// groupWindows implements StrategyWindow with fusion-style active clusters:
// a crossing gate opens or extends a window; local gates are absorbed while
// the window's touched-qubit budget holds, letting blocks span e.g. two
// entangling layers with single-qubit gates in between (the supremacy-style
// use case of paper Sec. V). Windows holding ≥ 2 crossing gates become
// groups; the rest dissolve.
func groupWindows(c *circuit.Circuit, p Partition, maxBlockQubits int) [][]int {
	var groups [][]int
	// active[q] is the open window owning qubit q. Open windows own
	// disjoint qubit sets.
	active := make([]*window, c.NumQubits)

	closeWindow := func(w *window) {
		if w.crossing >= 2 {
			groups = append(groups, w.members)
		}
		for _, q := range w.qubits {
			if active[q] == w {
				active[q] = nil
			}
		}
	}

	var touchedBuf [4]*window
	for gi := range c.Gates {
		g := &c.Gates[gi]
		// Distinct windows touching g, and the size of the union of g and
		// all of them: they are disjoint and hold every owned qubit of g.
		touched, union := touchedBuf[:0], 0
		for _, q := range g.Qubits {
			switch w := active[q]; {
			case w == nil:
				union++
			case !slices.Contains(touched, w):
				touched = append(touched, w)
				union += len(w.qubits)
			}
		}
		crossing := p.Crosses(g)
		if !crossing && len(touched) == 0 {
			continue // purely local gate away from any window
		}
		if union <= maxBlockQubits {
			var target *window
			if len(touched) > 0 {
				target = touched[0]
				for _, w := range touched[1:] {
					target.members = append(target.members, w.members...)
					target.crossing += w.crossing
					for _, q := range w.qubits {
						active[q] = target
					}
					target.qubits = append(target.qubits, w.qubits...)
				}
			} else {
				target = &window{}
			}
			target.members = append(target.members, gi)
			if crossing {
				target.crossing++
			}
			for _, q := range g.Qubits {
				if active[q] != target {
					target.qubits = append(target.qubits, q)
					active[q] = target
				}
			}
			sort.Ints(target.members)
			continue
		}
		// Budget exceeded: close the touched windows; a crossing gate opens
		// a fresh window of its own.
		for _, w := range touched {
			closeWindow(w)
		}
		if crossing && g.NumQubits() <= maxBlockQubits {
			w := &window{qubits: slices.Clone(g.Qubits), members: []int{gi}, crossing: 1}
			for _, q := range g.Qubits {
				active[q] = w
			}
		}
	}
	// Close the rest deterministically (by first member).
	var rest []*window
	for _, w := range active {
		if w != nil && !slices.Contains(rest, w) {
			rest = append(rest, w)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].members[0] < rest[j].members[0] })
	for _, w := range rest {
		closeWindow(w)
	}
	return groups
}

// splitGroupValid splits a group whose contraction is cyclic into maximal
// valid prefixes: members are added greedily while the running subgroup stays
// contractible. Subgroups of size 1 dissolve.
func splitGroupValid(dag *circuit.DependencyDAG, group []int) [][]int {
	var out [][]int
	var cur []int
	for _, m := range group {
		if cur = append(cur, m); dag.Contractible(cur) {
			continue
		}
		if cur = cur[:len(cur)-1]; len(cur) >= 2 {
			out = append(out, cur)
		}
		cur = []int{m}
	}
	if len(cur) >= 2 {
		out = append(out, cur)
	}
	return out
}

// buildGroups dispatches on the strategy and filters the proposed groups
// through the commutation DAG: an individually-invalid group is split into
// maximal valid subgroups; remaining inter-group conflicts drop the largest
// offender. It returns the surviving groups and the gate order that makes
// every group contiguous.
func buildGroups(c *circuit.Circuit, p Partition, strategy Strategy, maxBlockQubits int) (groups [][]int, order []int, err error) {
	switch strategy {
	case StrategyNone:
		groups = nil
	case StrategyCascade:
		groups = groupCascades(c, p, CrossingGateIndices(c, p), maxBlockQubits)
	case StrategyWindow:
		groups = groupWindows(c, p, maxBlockQubits)
	}

	return resolveGroups(circuit.BuildDAG(c), groups)
}

// resolveGroups validates proposed groups against the dependency DAG: an
// individually-invalid group is split into maximal valid subgroups, and
// remaining inter-group conflicts drop the largest offender until the joint
// contraction is acyclic.
func resolveGroups(dag *circuit.DependencyDAG, groups [][]int) ([][]int, []int, error) {
	var valid [][]int
	for _, g := range groups {
		if dag.Contractible(g) {
			valid = append(valid, g)
		} else {
			valid = append(valid, splitGroupValid(dag, g)...)
		}
	}
	groups = valid

	for {
		order, ok := dag.ContractAndOrder(groups)
		if ok {
			return groups, order, nil
		}
		if len(groups) == 0 {
			// Cannot happen: the identity order always satisfies the DAG.
			panic("cut: dependency DAG of a circuit is cyclic")
		}
		largest := 0
		for i, g := range groups {
			if len(g) > len(groups[largest]) {
				largest = i
			}
		}
		groups = append(groups[:largest], groups[largest+1:]...)
	}
}
