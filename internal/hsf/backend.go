package hsf

import (
	"errors"
	"fmt"

	"hsfsim/internal/statevec"
)

// ErrUnsupported is the sentinel matched by errors.Is when an option
// combination is not supported by the selected backend (e.g. Workers > 1 on
// the DD backend, whose node store is single-threaded) or the backend itself
// is unknown. Unsupported combinations are rejected up front instead of
// silently ignored.
var ErrUnsupported = errors.New("hsf: unsupported option")

// Backend selects the pair-state representation the path-tree walker runs
// on. Both backends execute through the same walker, so prefix tasks,
// checkpoint/resume, fault injection, and cancellation behave identically.
type Backend int

const (
	// BackendDense evolves the partition states as dense statevector arrays
	// (the default). Forking copies the arrays, so path workers parallelize
	// freely.
	BackendDense Backend = iota
	// BackendDD evolves the partition states as decision diagrams
	// (Burgholzer/Bauer/Wille, QCE 2021 — the paper's ref [10]). Forking is
	// free (sub-diagrams are shared), but the DD node store is
	// single-threaded, so this backend runs exactly one path worker.
	BackendDD
)

func (b Backend) String() string {
	switch b {
	case BackendDense:
		return "dense"
	case BackendDD:
		return "dd"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// ParseBackend maps a CLI/wire name to a Backend. The empty string and
// "array" (the historical name of the dense engine) alias to BackendDense,
// so requests from older clients keep working. Unknown names wrap
// ErrUnsupported.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "dense", "array":
		return BackendDense, nil
	case "dd":
		return BackendDD, nil
	}
	return 0, fmt.Errorf("hsf: unknown backend %q (want dense or dd): %w", s, ErrUnsupported)
}

// ParallelWorkers reports whether the backend's pair states may be simulated
// by concurrent path workers. The DD backend's shared node store is
// single-threaded, so it runs exactly one worker.
func (b Backend) ParallelWorkers() bool { return b == BackendDense }

// valid reports whether b names a known backend.
func (b Backend) valid() bool { return b == BackendDense || b == BackendDD }

// backendWorkers resolves the effective path-worker count for the selected
// backend. Backends without parallel-worker support run exactly one worker
// and reject an explicit Workers > 1 with ErrUnsupported rather than
// silently dropping the request.
func (o Options) backendWorkers() (int, error) {
	if !o.Backend.valid() {
		return 0, fmt.Errorf("hsf: %v: %w", o.Backend, ErrUnsupported)
	}
	if o.Backend.ParallelWorkers() {
		return resolveWorkers(o.Workers), nil
	}
	if o.Workers > 1 {
		return 0, fmt.Errorf("hsf: Workers=%d on the %v backend (single-threaded node store): %w",
			o.Workers, o.Backend, ErrUnsupported)
	}
	return 1, nil
}

// pairState is one (lower, upper) partition state pair at a node of the path
// tree — the unit the walker branches at cuts, advances through segments, and
// emits into its leaf batch at leaves. Implementations are owned by a single
// worker goroutine.
//
// Ownership discipline: child either turns the state into its child or makes
// an independent new one; release returns the state to its workspace, after
// which it must not be used; emit is the release of a leaf. The walker ends
// every state exactly once, so live states never exceed the tree depth.
type pairState interface {
	// applySegment advances both partitions through a segment's local gates.
	applySegment(seg *segment) error
	// child returns the state term t of cut c leads to: both partitions
	// through the term's residual, then the cut's projection. In place, the
	// state itself becomes the child; the walker asks for that only when it
	// needs the parent no more, at a cut's last term. Otherwise a new state
	// is made and the parent stays as it was: the dense backend copies the
	// parent and applies the residual to the copy, the DD backend forks its
	// edges and applies the residual. On error nothing new stays live, and
	// an in-place state is still the caller's to release.
	child(c *compiledCut, t int, inPlace bool) (pairState, error)
	// release returns the state to its workspace free list.
	release()
	// emit hands the leaf coeff · (upper ⊗ lower) to b and releases the state.
	emit(b *leafBatch, coeff complex128)
}

// workspace is one worker goroutine's private pair-state factory: it owns
// the free lists its states recycle through. Workspaces are not safe for
// concurrent use.
type workspace interface {
	newRoot() (pairState, error)
}

// newWorkspace builds the per-worker workspace for the engine's backend on
// the worker's buffer pool.
func (e *engine) newWorkspace(pool *statevec.Pool) (workspace, error) {
	switch e.backend {
	case BackendDense:
		return &denseWorkspace{e: e, pool: pool}, nil
	case BackendDD:
		return newDDWorkspace(e), nil
	}
	return nil, fmt.Errorf("hsf: %v: %w", e.backend, ErrUnsupported)
}

// leafBatchK is the number of leaves one fold applies, at every accumulator
// shape: the fold's own chunk, so a batch streams the accumulator once. The
// engine and Cost both size the batch from here.
const leafBatchK = statevec.FoldChunk

// leafRows returns the number of accumulator rows (upper amplitudes) an
// m-amplitude output reads.
func leafRows(m, nLower int) int {
	return (m + 1<<nLower - 1) >> nLower
}

// leafBatch is one worker's pending rank-K update of its accumulator: the
// leaves emitted since the last fold, each as its path coefficient, the rows
// of its upper half the output reads, and its lower half. A lower half stays
// in the pool buffer the leaf evolved it in (the dense backend hands it over
// without a copy) and returns to the pool when the batch is folded or
// discarded; nothing else of a leaf outlives emit.
type leafBatch struct {
	pool   *statevec.Pool
	coeffs []complex128      // len = leaves held, cap = K
	ups    []statevec.Vector // K rows of the coefficient table
	los    []statevec.Vector // len = leaves held, cap = K
}

func (e *engine) newLeafBatch(pool *statevec.Pool) leafBatch {
	rows := leafRows(e.m, e.nLower)
	table := statevec.MakeVector(leafBatchK * rows)
	b := leafBatch{
		pool:   pool,
		coeffs: make([]complex128, 0, leafBatchK),
		ups:    make([]statevec.Vector, leafBatchK),
		los:    make([]statevec.Vector, 0, leafBatchK),
	}
	for i := range b.ups {
		b.ups[i] = table.Slice(i*rows, (i+1)*rows)
	}
	return b
}

// add holds one more leaf. The batch takes over lo, a buffer of its pool, and
// returns the table row the caller fills with the leading amplitudes of the
// leaf's upper half.
func (b *leafBatch) add(coeff complex128, lo statevec.Vector) statevec.Vector {
	b.coeffs = append(b.coeffs, coeff)
	b.los = append(b.los, lo)
	return b.ups[len(b.los)-1]
}

func (b *leafBatch) full() bool { return len(b.los) == len(b.ups) }

// discard empties the batch without folding it.
func (b *leafBatch) discard() {
	for _, lo := range b.los {
		b.pool.Put(lo)
	}
	b.coeffs, b.los = b.coeffs[:0], b.los[:0]
}
