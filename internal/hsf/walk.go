package hsf

import (
	"context"
	"runtime/debug"
	"time"

	"hsfsim/internal/statevec"
	"hsfsim/internal/telemetry"
)

// walkFrame is one node of the explicit-stack depth-first path-tree walk.
// term is the next cut term to descend into; entered records that the
// node's segment has been applied (a frame is re-visited once per term).
type walkFrame struct {
	st      *densePair
	level   int
	coeff   complex128
	term    int
	entered bool
}

// walker executes path subtrees for one worker goroutine against a private
// workspace. The frame stack is reused across prefix tasks and forked pairs
// recycle through the workspace, so steady-state execution allocates
// nothing: live pairs never exceed the remaining tree depth (one per
// frame) plus the root, exactly the clone-chain bound of the Cost model.
//
// root is |0…0⟩ advanced through segment 0 — where the scheduler hoists every
// path-invariant gate — computed on the walker's first task. Every task
// starts from a copy of it (its rootCopy child, never an alias), so segment 0
// runs once per worker instead of once per prefix task.
//
// batch holds the leaves emitted since the last fold. It is empty between
// tasks: a task that completes folds it into its accumulator, a task that
// fails discards it, because a failed task's accumulator is never merged.
//
// wc is the worker's private telemetry counter block (nil when telemetry is
// disabled). Its methods neither allocate nor lock — counters are plain
// fields flushed once at worker exit, and sampled timings (1 in 64) feed
// atomic histograms — so the zero-allocs-per-leaf guarantee holds with
// telemetry enabled.
//
// Below a diagonal tail (engine.tail) the walker holds one level-L node open
// at a time: node is its lower half lo_L, taken off the pair when the node's
// segment is done, and table the row table U its leaves fold into, empty
// between nodes. The node folds into the accumulator once its subtree is done
// (flush). In a held run (engine.held) both are the node's slot in the run's
// store instead, slot the next one of the task, and the finished node stays
// there.
type walker struct {
	e     *engine
	ws    workspace
	wc    *telemetry.WorkerCounters
	stack []walkFrame
	root  *densePair
	batch leafBatch
	node  statevec.Vector
	table statevec.Vector
	slot  int
}

// newWalker builds one worker's walker: its buffer pool, the workspace and
// the leaf batch that share it, and the row table of a diagonal tail whose
// nodes are not held.
func (e *engine) newWalker(wc *telemetry.WorkerCounters) *walker {
	pool := statevec.NewPool()
	w := &walker{e: e, ws: workspace{e: e, pool: pool}, wc: wc, batch: e.newLeafBatch(pool)}
	if e.tail.level >= 0 && e.held == nil {
		w.table = statevec.MakeVector(leafRows(e.m, e.nLower) << len(e.tail.qubits))
	}
	return w
}

// runTask folds one prefix task's leaves into acc, or in a held run into the
// store from the walker's slot on (runPrefix); the fold epilogue waits for
// the merge. A panicking path worker yields a *PanicError
// instead of tearing the process down.
func (w *walker) runTask(ctx context.Context, prefix []int, acc statevec.Vector) (nLeaves int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return w.runPrefix(ctx, prefix, acc)
}

// runPrefix simulates the fixed term choices of a prefix task, then descends
// into the remaining subtree. It returns the number of path leaves reached;
// on a nil error all of them are folded into acc, or held in the store.
func (w *walker) runPrefix(ctx context.Context, prefix []int, acc statevec.Vector) (int64, error) {
	// The walker outlives the task: what a failed one (error, cancellation,
	// injected fault, panic) still holds would otherwise be folded into the
	// next task's accumulator.
	defer w.discard()
	if w.root == nil {
		w.root = w.ws.newRoot()
		w.applySegment(w.root, 0)
	}
	st := w.root.child(&rootCopy, 0, false)
	coeff := complex128(1)
	for l, t := range prefix {
		if err := stopped(ctx); err != nil {
			st.release()
			return 0, err
		}
		if l > 0 {
			w.applySegment(st, l)
		}
		c := &w.e.cuts[l]
		st = st.child(c, t, true)
		if w.wc != nil {
			w.wc.CutTerm(l, t)
		}
		coeff *= c.sigma[t]
	}
	nLeaves, err := w.walk(ctx, st, len(prefix), coeff, acc)
	if err == nil {
		w.flush(acc)
	}
	return nLeaves, err
}

// fold applies the held leaves in one blocked pass, to acc or below a
// diagonal tail to the row table, and returns their lower halves (proxies)
// to the pool, timing one fold in 64.
func (w *walker) fold(acc statevec.Vector) {
	b := &w.batch
	if len(b.los) == 0 {
		return
	}
	sampled, t0 := w.sample()
	if w.e.tail.level >= 0 {
		acc = w.table
	}
	leafFold.FoldRowsN(acc, 0, b.ups, b.los)
	if w.wc != nil {
		w.wc.Fold(len(b.los), sampled, t0)
	}
	b.discard()
}

// flush folds everything the walker holds into acc: the batch, and the open
// level-L node's row table through the node's lower half, once. A held node
// stays in its slot instead.
func (w *walker) flush(acc statevec.Vector) {
	w.fold(acc)
	if w.node.Re == nil {
		return
	}
	if w.e.held == nil {
		w.e.tail.fold.FoldRowsN(acc, 0, []statevec.Vector{w.table}, []statevec.Vector{w.node})
	}
	w.closeNode()
}

// closeNode empties the row table and returns the open node's lower half to
// the pool; a held node's slot keeps both.
func (w *walker) closeNode() {
	if w.e.held != nil {
		w.node, w.table = statevec.Vector{}, statevec.Vector{}
		return
	}
	w.table.Clear()
	w.ws.pool.Put(w.node)
	w.node = statevec.Vector{}
}

// openNode makes st, whose segment at the tail level is done, the open node:
// st's lower half becomes the node's, copied into the next slot of a held
// run, and st carries the proxy φ = 1 in its place.
func (w *walker) openNode(st *densePair) {
	if s := w.e.held; s != nil {
		w.node, w.table = s.los[w.slot], s.tables[w.slot]
		w.slot++
		w.node.CopyFrom(st.lo)
		w.ws.pool.Put(st.lo)
	} else {
		w.node = st.lo
	}
	st.lo = w.ws.pool.Get(1 << len(w.e.tail.qubits))
	for i := range st.lo.Re {
		st.lo.Re[i], st.lo.Im[i] = 1, 0
	}
}

// discard drops what a failed task left held: the batch, and an open node
// with its partial row table.
func (w *walker) discard() {
	w.batch.discard()
	if w.node.Re != nil {
		w.closeNode()
	}
}

// sample opens a timing for one operation in 64 when telemetry is on: it
// reports whether this one is timed and, if so, its start.
func (w *walker) sample() (sampled bool, t0 time.Time) {
	if w.wc != nil && w.wc.Sample() {
		return true, time.Now()
	}
	return false, t0
}

// applySegment advances st through segment l, counting the application and
// timing one in 64 of them.
func (w *walker) applySegment(st *densePair, l int) {
	sampled, t0 := w.sample()
	st.applySegment(&w.e.segs[l])
	if w.wc != nil {
		w.wc.Seg(l, sampled, t0)
	}
}

// walk runs the subtree rooted at (root, level) depth-first with an explicit
// stack, taking ownership of root. Segment 0 is already part of every root
// (see walker.root), so only frames at level ≥ 1 apply theirs. Cut terms are
// expanded in ascending order, matching the engine's historical recursive
// order. Every term but a cut's last gets a new child written from the parent
// (densePair.child); the last takes over the parent's pair in place, so a
// rank-r cut forks r-1 times. Below a diagonal tail a frame at its level
// opens a node once its segment is done, and its pairs below carry the
// proxy; the node folds when the walk leaves its subtree.
func (w *walker) walk(ctx context.Context, root *densePair, level int, coeff complex128, acc statevec.Vector) (int64, error) {
	w.stack = append(w.stack[:0], walkFrame{st: root, level: level, coeff: coeff})
	var nLeaves int64
	// fail releases every pair still on the stack before propagating err,
	// keeping the release-exactly-once discipline on error paths.
	fail := func(err error) (int64, error) {
		for i := len(w.stack) - 1; i >= 0; i-- {
			w.stack[i].st.release()
		}
		w.stack = w.stack[:0]
		return nLeaves, err
	}
	for len(w.stack) > 0 {
		f := &w.stack[len(w.stack)-1]
		// A frame above the open node means the node's subtree is done (a
		// sibling is only ever pushed by their parent): it folds now, before
		// anything forks a pair beside its lower half.
		if w.node.Re != nil && f.level < w.e.tail.level {
			w.flush(acc)
		}
		if !f.entered {
			if err := stopped(ctx); err != nil {
				return fail(err)
			}
			sampled, t0 := w.sample()
			if f.level > 0 {
				f.st.applySegment(&w.e.segs[f.level])
				if w.wc != nil {
					w.wc.Seg(f.level, sampled, t0)
				}
			}
			f.entered = true
			if f.level == w.e.tail.level {
				w.openNode(f.st)
			}
			if f.level == len(w.e.cuts) {
				n := w.e.leaves.Add(1)
				if w.e.failAfter > 0 && n > w.e.failAfter {
					return fail(ErrInjectedFault)
				}
				f.st.emit(&w.batch, f.coeff)
				nLeaves++
				w.stack = w.stack[:len(w.stack)-1]
				if w.wc != nil {
					// Leaf latency spans the leaf's final segment sweep
					// through emit, sharing the segment's sample; the fold
					// is timed on its own.
					w.wc.Leaf(sampled, t0)
				}
				if w.batch.full() {
					w.fold(acc)
				}
				if w.e.hook != nil {
					w.e.hook(n)
				}
				continue
			}
		}
		c := &w.e.cuts[f.level]
		level, coeff, parent := f.level, f.coeff, f.st
		t := f.term
		f.term++
		// Last term: the parent pair is never needed again, so the child
		// takes it over in place instead of being written.
		last := t == len(c.sigma)-1
		if last {
			w.stack = w.stack[:len(w.stack)-1]
		}
		child := parent.child(c, t, last)
		if w.wc != nil {
			if !last {
				w.wc.Fork()
			}
			w.wc.CutTerm(level, t)
		}
		w.stack = append(w.stack, walkFrame{st: child, level: level + 1, coeff: coeff * c.sigma[t]})
	}
	return nLeaves, nil
}
