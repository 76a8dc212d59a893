package circuit_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/gate"
)

// contractOracle is ContractAndOrder as it was before the contraction became
// map-free: one map of successor nodes per node, members copied per node.
func contractOracle(d *circuit.DependencyDAG, groups [][]int) (order []int, ok bool) {
	nodeOf := make([]int, d.N)
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	for gi, grp := range groups {
		for _, idx := range grp {
			if nodeOf[idx] != -1 {
				return nil, false
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
	succ := make([]map[int]bool, numNodes)
	indeg := make([]int, numNodes)
	for i := range succ {
		succ[i] = make(map[int]bool)
	}
	for i := 0; i < d.N; i++ {
		for _, j := range d.Succ[i] {
			a, b := nodeOf[i], nodeOf[j]
			if a != b && !succ[a][b] {
				succ[a][b] = true
				indeg[b]++
			}
		}
	}
	var ready []int
	for v := 0; v < numNodes; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			if members[ready[i]][0] < members[ready[best]][0] {
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
		return nil, false
	}
	return order, true
}

// plannerCircuit draws a circuit of the gates the planner groups and the ones
// that pin them: RZZ and CZ (diagonal, commuting with each other), CNOT, and
// RX mixers.
func plannerCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for len(c.Gates) < gates {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		switch rng.Intn(5) {
		case 0, 1:
			c.Append(gate.RZZ(rng.Float64(), a, b))
		case 2:
			c.Append(gate.CZ(a, b))
		case 3:
			c.Append(gate.CNOT(a, b))
		default:
			c.Append(gate.RX(rng.Float64(), a))
		}
	}
	return c
}

// randomGroup draws a group of 2–5 gates: either any gates of the circuit or,
// as the cascade strategy proposes them, two-qubit gates sharing one anchor
// qubit, whose validity depends on what sits between them.
func randomGroup(rng *rand.Rand, c *circuit.Circuit) []int {
	size := 2 + rng.Intn(4)
	anchor := rng.Intn(c.NumQubits)
	var fan []int
	for i := range c.Gates {
		if g := &c.Gates[i]; g.NumQubits() == 2 && g.Touches(anchor) {
			fan = append(fan, i)
		}
	}
	if len(fan) < 2 || rng.Intn(2) == 0 {
		return rng.Perm(len(c.Gates))[:size]
	}
	rng.Shuffle(len(fan), func(i, j int) { fan[i], fan[j] = fan[j], fan[i] })
	return fan[:min(size, len(fan))]
}

// TestContractibleMatchesContractAndOrder holds the allocation-free
// single-group scan to the contraction it replaces in the planner: on random
// circuits of diagonal, CNOT and RX gates, Contractible(g) is the ok flag of
// ContractAndOrder([][]int{g}) and of the map-based oracle, for valid and
// invalid groups alike, a repeated member included, and after the first call
// it allocates nothing.
func TestContractibleMatchesContractAndOrder(t *testing.T) {
	verdicts := map[bool]int{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := plannerCircuit(rng, 3+rng.Intn(6), 10+rng.Intn(40))
		d := circuit.BuildDAG(c)
		for trial := 0; trial < 25; trial++ {
			g := randomGroup(rng, c)
			if trial == 0 && len(g) > 0 {
				g = append(g, g[0])
			}
			got := d.Contractible(g)
			_, ok := d.ContractAndOrder([][]int{g})
			_, want := contractOracle(d, [][]int{g})
			if got != ok || got != want {
				t.Fatalf("seed %d, group %v: Contractible %v, ContractAndOrder %v, oracle %v", seed, g, got, ok, want)
			}
			verdicts[got]++
		}
		g := randomGroup(rng, c)
		if allocs := testing.AllocsPerRun(10, func() { d.Contractible(g) }); allocs != 0 {
			t.Fatalf("seed %d: Contractible allocates %v times per call", seed, allocs)
		}
	}
	if verdicts[true] < 100 || verdicts[false] < 100 {
		t.Fatalf("verdicts %v: too few valid or invalid groups to compare", verdicts)
	}
}

// TestContractAndOrderMatchesMapOracle holds the map-free contraction to the
// map-based one it replaced on random groupings of 1–4 disjoint groups: the
// same verdict and, when the grouping is valid, the same order.
func TestContractAndOrderMatchesMapOracle(t *testing.T) {
	valid := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := plannerCircuit(rng, 3+rng.Intn(6), 10+rng.Intn(40))
		d := circuit.BuildDAG(c)
		for trial := 0; trial < 25; trial++ {
			var groups [][]int
			used := map[int]bool{}
			for range 1 + rng.Intn(4) {
				var g []int
				for _, i := range randomGroup(rng, c) {
					if !used[i] {
						used[i] = true
						g = append(g, i)
					}
				}
				if len(g) > 0 {
					groups = append(groups, g)
				}
			}
			order, ok := d.ContractAndOrder(groups)
			want, wantOK := contractOracle(d, groups)
			if ok != wantOK || !slices.Equal(order, want) {
				t.Fatalf("seed %d, groups %v: order %v (ok %v), oracle %v (ok %v)", seed, groups, order, ok, want, wantOK)
			}
			if ok {
				valid++
			}
		}
	}
	if valid < 100 {
		t.Fatalf("only %d valid groupings: the comparison exercises too little", valid)
	}
}
