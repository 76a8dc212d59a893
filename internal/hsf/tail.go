package hsf

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"hsfsim/internal/cut"
	"hsfsim/internal/statevec"
)

// tail is the diagonal lower tail of a compiled plan: from the nodes at cut
// level L down, nothing acts on the lower half but cut terms that are a
// scalar times I or a diagonal on the qubits Q. Such a leaf's lower half is
// φ ⊙ lo_L, where lo_L is its level-L ancestor's lower half and φ, the
// product of its diagonal residuals, depends on an amplitude's bits on Q
// alone. The leaf sum is linear, so the leaves below one level-L node fold as
//
//	Σ_b c_b·up_b ⊗ (φ_b ⊙ lo_L) = Σ_y U_y ⊗ P_y·lo_L,   U_y = Σ_b c_b·φ_b[y]·up_b,
//
// with P_y keeping the amplitudes whose bits on Q spell y. Below L the walker
// carries the 2^|Q|-amplitude proxy φ in place of the lower half, folds each
// leaf's (c_b, up_b, φ_b) into a rows × 2^|Q| row table U, and folds U
// through lo_L into the accumulator once per level-L node (Diagonal.FoldRowsN).
// An unobserved run whose nodes fit holds them instead and folds them all in
// one pass after the walk (holdNodes).
//
// level is -1 when the rule does not fire (see chooseTail).
type tail struct {
	level  int
	qubits []int              // Q, ascending lower-half labels
	fold   *statevec.Diagonal // Q's run decomposition, for the node fold
}

// noTail is the tail of a plan the rule does not fire on.
var noTail = tail{level: -1}

// chooseTail picks the plan's tail level for an m-amplitude output split at
// splitLevels, from its lowered cuts and the segment of each local step (at),
// together with the steps sink takes out of the tree with it. A level L is
// legal when
//
//  1. splitLevels ≤ L < len(cuts), so every prefix task walks whole level-L
//     subtrees and its accumulator is the same sum in another order;
//  2. every lower gate scheduled after L can sink (sink's rules 1 and 2), and
//     every lower term of cuts L… is an identity or diagonal residual; a
//     term's qubits join Q;
//  3. m ≥ 2^nLower, so the cone drops no lower qubit: lo_L is the leaf's
//     whole lower half and Q's labels are the partition's own;
//  4. |Q| < nLower, so the proxy is smaller than the half it stands for;
//  5. a level-L node has at least leafBatchK leaves below it: the plain fold
//     streams the accumulator once per batch, so node folds that stream it
//     once per node do not stream it more often, and a node's leaves fill the
//     batches they fold into U in.
//
// Every plan is weighed by its folds plus the work of its local gates (sink):
// the plain fold's leaves·m with sink's cost rule deciding every gate, or a
// legal level's replays(L)·m for the node folds plus leaves·rows·2^|Q| for
// the leaves' folds into U, with the lower gates after L sunk at T·m each.
// The cheapest plan wins; ties keep the plain one. A tail that fires has a
// rank ≥ 2 cut below L, whose lower terms are independent, so one of them is
// a diagonal and Q is not empty.
func chooseTail(plan *cut.Plan, cuts []compiledCut, at []int, c *cone, m, splitLevels int) (tail, []bool) {
	sunk, work, _ := sink(plan, cuts, at, c, m, splitLevels, -1)
	nLower := plan.Partition.NumLower()
	if m < 1<<nLower {
		return noTail, sunk
	}
	replays := replayCounts(cuts)
	leaves, rows := replays[len(cuts)], int64(leafRows(m, nLower))
	best, bestCost, bestQ := -1, addSat(mulSat(leaves, int64(m)), work), uint64(0)
	var q uint64 // Q of the level under test, as a bit set
levels:
	for l := len(cuts) - 1; l >= splitLevels; l-- {
		cc := &cuts[l]
		for t := range cc.sigma {
			switch cc.res[cut.Lower][t].kind {
			case residualGate:
				break levels
			case residualDiagonal:
				for _, b := range cc.terms[cut.Lower][t].Qubits {
					q |= 1 << b
				}
			}
		}
		k := bits.OnesCount64(q)
		if k >= nLower {
			break
		}
		if mulSat(replays[l], leafBatchK) > leaves {
			continue
		}
		s, w, ok := sink(plan, cuts, at, c, m, splitLevels, l)
		if !ok {
			continue
		}
		folds := addSat(mulSat(replays[l], int64(m)), mulSat(leaves, rows<<k))
		if cost := addSat(folds, w); cost < bestCost {
			best, bestCost, bestQ, sunk = l, cost, q, s
		}
	}
	if best < 0 {
		return noTail, sunk
	}
	t := tail{level: best}
	for b := range nLower {
		if bestQ>>b&1 == 1 {
			t.qubits = append(t.qubits, b)
		}
	}
	t.fold = statevec.NewDiagonal(t.qubits, nil)
	return t, sunk
}

// relabel moves the lower terms of the tail's cuts onto the proxy, whose qubit
// j is Q's j-th: the walker applies them to φ alone. The terms' qubit slices
// are shared between terms of a cut, so each term gets a fresh one.
func (t *tail) relabel(cuts []compiledCut) {
	if t.level < 0 {
		return
	}
	idx := make(map[int]int, len(t.qubits))
	for j, q := range t.qubits {
		idx[q] = j
	}
	for l := t.level; l < len(cuts); l++ {
		terms := cuts[l].terms[cut.Lower]
		for i := range terms {
			qs := make([]int, len(terms[i].Qubits))
			for b, q := range terms[i].Qubits {
				qs[b] = idx[q]
			}
			terms[i].Qubits = qs
			terms[i].SetKernelCache(nil)
		}
	}
}

// proxyBytes returns the bytes of one proxy φ, 0 without a tail.
func (t *tail) proxyBytes() int64 {
	if t.level < 0 {
		return 0
	}
	return bytesPerAmp << len(t.qubits)
}

// holdNodes settles whether an unobserved run holds its level-L nodes: a
// walker then stores each finished node's lower half and row table in the
// run's nodeStore instead of folding them into its scratch accumulator, and
// after the walk one pass folds every node into the output tile by tile
// (foldHeld). A tile is the larger of FoldRowBlock rows and one epilogue
// register, capped at m. The run holds when the tail fires, nobody reads the
// checkpoint before the walk ends (!mergeEach), and its replays(L) nodes of
// 2^nLower + rows·2^|Q| amplitudes plus one tile per worker fit in the m
// amplitudes of the one scratch accumulator they replace, so Cost, which
// charges a scratch per worker, still covers the run.
func (e *engine) holdNodes() {
	e.tile = statevec.FoldRowBlock << e.nLower
	if e.epi != nil {
		e.tile = max(e.tile, 1<<e.epi.NumQubits())
	}
	e.tile = min(e.tile, e.m)
	if e.mergeEach || e.tail.level < 0 {
		return
	}
	nodes := replayCounts(e.cuts)[e.tail.level]
	held := addSat(mulSat(nodes, e.nodeAmps()), mulSat(int64(e.workers), int64(e.tile)))
	e.hold = held <= int64(e.m)
}

// nodeAmps returns the amplitudes one held node keeps: its lower half and its
// row table.
func (e *engine) nodeAmps() int64 {
	return int64(1)<<e.nLower + int64(leafRows(e.m, e.nLower))<<len(e.tail.qubits)
}

// nodeStore holds a held run's level-L nodes: node p's lower half lo_L and
// row table U at slot p, each a slice of one of two slabs allocated once per
// run (statevec.MakeVectors, which keeps the fold's reads of every node at
// one offset in distinct cache sets). Slots follow the nodes' DFS order. The
// pending tasks come in enumeration order, and each walks whole level-L
// subtrees (split ≤ L), so task i fills slots i·perTask… in the order its
// walker opens them.
type nodeStore struct {
	los, tables []statevec.Vector
	perTask     int
}

// newNodeStore returns the store of a held run of tasks prefix tasks, each
// splitLevels cut levels deep.
func (e *engine) newNodeStore(tasks, splitLevels int) *nodeStore {
	replays := replayCounts(e.cuts)
	perTask := int(replays[e.tail.level] / replays[splitLevels])
	nodes := tasks * perTask
	n, tl := 1<<e.nLower, leafRows(e.m, e.nLower)<<len(e.tail.qubits)
	return &nodeStore{los: statevec.MakeVectors(nodes, n), tables: statevec.MakeVectors(nodes, tl), perTask: perTask}
}

// foldHeld folds every held node into acc in one pass over its row tiles, on
// the run's workers, which take tiles from a counter: a worker clears its
// tile, folds every node into it in node order (Diagonal.FoldRowsN), applies
// the epilogue to it and adds it into its rows of acc. Tiles are disjoint, so nothing locks, and every amplitude
// gets the same operations whatever the worker count. The pass records a
// "fold" span under the walk.
func (e *engine) foldHeld(acc []complex128) {
	s := e.held
	tiles := (e.m + e.tile - 1) / e.tile
	sp := e.trc.Start(e.tsc, "fold")
	sp.SetInt("nodes", int64(len(s.los)))
	sp.SetInt("tiles", int64(tiles))
	defer sp.End()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range min(e.workers, tiles) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := statevec.MakeVector(e.tile)
			for i := int(next.Add(1) - 1); i < tiles; i = int(next.Add(1) - 1) {
				lo, hi := i*e.tile, min((i+1)*e.tile, e.m)
				tile := buf.Slice(0, hi-lo)
				tile.Clear()
				e.tail.fold.FoldRowsN(tile, lo>>e.nLower, s.tables, s.los)
				e.epilogue(tile)
				tile.AddToComplex(acc[lo:hi])
			}
		}()
	}
	wg.Wait()
}
