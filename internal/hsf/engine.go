// Package hsf executes HSF (Hybrid Schrödinger-Feynman) simulation plans:
// the two partition statevectors are evolved through the plan's local gates,
// and every cut branches the simulation over its Schmidt terms. Each complete
// branch assignment is one Feynman "path"; the amplitudes of the full state
// are accumulated as ψ[x] += (∏σ) · up[x_a] · lo[x_b] over all paths.
//
// The engine shares path prefixes: cuts are processed in circuit order and a
// branch clones the partition states only when more than one term remains,
// so the exponential path tree re-simulates only suffixes. Independent
// subtrees run on a worker pool.
//
// Resilience: execution is cooperatively cancellable through a
// context.Context checked at every segment boundary, jobs are admitted
// against a cost model before any statevector is allocated (Cost, ErrBudget),
// completed prefix tasks are checkpointable for crash/cancel recovery
// (Checkpoint), and a panic in a path worker surfaces as a *PanicError
// instead of crashing the process.
package hsf

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/cmplx"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hsfsim/internal/cut"
	"hsfsim/internal/fuse"
	"hsfsim/internal/gate"
	"hsfsim/internal/par"
	"hsfsim/internal/statevec"
	"hsfsim/internal/telemetry"
	"hsfsim/internal/telemetry/trace"
)

// ErrTimeout is returned when the simulation exceeds Options.Timeout. A
// cancellation or deadline on the caller's context is reported as
// context.Canceled / context.DeadlineExceeded instead, so callers can tell
// "the job hit its own time budget" apart from "the caller went away".
var ErrTimeout = errors.New("hsf: simulation timed out")

// ErrInjectedFault is returned when Options.FailAfterPaths triggers. It
// exists so checkpoint/resume recovery is testable deterministically,
// without real crashes or timing races.
var ErrInjectedFault = errors.New("hsf: injected fault")

// PanicError wraps a panic recovered from a path worker; the simulation
// reports it as an ordinary error instead of crashing the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("hsf: panic in path worker: %v", e.Value)
}

// Options configures plan execution.
type Options struct {
	// MaxAmplitudes limits the output to the first M amplitudes of the full
	// statevector (the paper computes the first 10^6). 0 means the full
	// 2^n state.
	MaxAmplitudes int
	// Workers is the number of parallel path workers; 0 uses GOMAXPROCS.
	Workers int
	// FusionMaxQubits configures per-segment gate fusion: 0 selects
	// fuse.DefaultMaxQubits, negative disables fusion.
	FusionMaxQubits int
	// Timeout aborts the simulation after the given duration (0: none),
	// mirroring the paper's 1 h limit for standard HSF runs.
	Timeout time.Duration
	// MemoryBudget caps the estimated footprint (Cost) in bytes before
	// anything is allocated: 0 selects DefaultMemoryBudget, negative
	// disables the check. Over-budget jobs fail with a *BudgetError.
	MemoryBudget int64
	// MaxPaths rejects plans whose path count exceeds it (0: no limit).
	MaxPaths uint64
	// CheckpointWriter, when non-nil, receives a Checkpoint snapshot if the
	// run stops prematurely (cancellation, timeout, fault, panic): the
	// completed prefix tasks plus their merged partial accumulator.
	CheckpointWriter io.Writer
	// Resume, when non-nil, seeds the run from a prior checkpoint: completed
	// prefixes are skipped and the accumulator continues from the snapshot.
	Resume *Checkpoint
	// FailAfterPaths injects a deterministic fault after roughly that many
	// path leaves have been simulated (0: disabled). Testing hook for
	// checkpoint/resume recovery.
	FailAfterPaths int64
	// OnCheckpoint, when non-nil, runs after every completed prefix task is
	// merged, with the engine's live checkpoint. It is called under the merge
	// lock — the checkpoint is a consistent snapshot, but the callback blocks
	// every other worker's merge, so it must be fast: rate-limit, Clone, and
	// hand off to another goroutine rather than writing to disk inline. Job
	// services use it to flush durable mid-run checkpoints so a killed
	// process resumes instead of restarting.
	OnCheckpoint func(*Checkpoint)
	// Telemetry, when non-nil, records run-level measurements: compile
	// spans, per-segment application counts and sampled sweep timings,
	// leaf-latency histograms, kernel-class attribution, and pool/par
	// statistics. Counters accumulate per worker and merge once at worker
	// exit, so enabling telemetry does not perturb the zero-alloc hot path.
	Telemetry *telemetry.Recorder
	// Progress, when non-nil, is wired to the engine's live leaf counter at
	// run start so callers can render paths-done/total tickers for free.
	Progress *telemetry.Tracker

	// testHookLeaf, when non-nil, runs after every simulated path leaf with
	// the global leaf count. Tests use it to cancel or panic mid-run at a
	// deterministic point.
	testHookLeaf func(leaves int64)
}

// Result holds the simulated amplitudes and execution statistics.
type Result struct {
	// Amplitudes are the first MaxAmplitudes entries of the statevector.
	Amplitudes []complex128
	// NumPaths is the plan's total path count (saturating at MaxUint64).
	NumPaths uint64
	// Log2Paths is log2 of the path count.
	Log2Paths float64
	// PathsSimulated counts the leaves actually reached (including leaves
	// replayed from a resumed checkpoint).
	PathsSimulated int64
	// NumQubits is the register size.
	NumQubits int
	// Elapsed is the wall-clock simulation time.
	Elapsed time.Duration
}

// segment is the run of local gates between two consecutive cuts, remapped
// to partition-local qubit labels and optionally fused; its arrays are
// indexed by cut.Side. The walker replays the compiled forms (kernel plans
// attached, cache-blocked sweep grouping), then drops the qubits the output
// cone fixes there; gates stay for the kernel-class census.
type segment struct {
	gates [2][]gate.Gate
	comp  [2]*statevec.CompiledSegment
	proj  [2]*statevec.Projection // nil drops nothing
}

// run advances one side's state through the segment and returns it with the
// qubits dropped at the segment's end.
func (s *segment) run(side cut.Side, v statevec.Vector) statevec.Vector {
	s.comp[side].Apply(v)
	return s.proj[side].Apply(v)
}

// compiledCut is a cut with its terms lowered to partition-local gates,
// indexed by cut.Side. Each diagonal term's leading scalar has moved into
// sigma (see splitScalar), so what the walker applies per side is the term's
// residual; terms keeps the plan's gates for the scheduler, sink and cone,
// which judge a term by its structure alone.
type compiledCut struct {
	sigma []complex128            // the plan's σ times both sides' scalars
	terms [2][]gate.Gate          // one per term
	res   [2][]residual           // one per term
	proj  [2]*statevec.Projection // nil drops nothing
}

// residualKind is what one side of a term leaves to apply once its scalar has
// joined σ.
type residualKind uint8

const (
	// residualIdentity: the term was its scalar times I, and nothing is
	// applied.
	residualIdentity residualKind = iota
	// residualDiagonal: the term's diagonal over its scalar.
	residualDiagonal
	// residualGate: a term that is not diagonal applies as it is (scalar 1).
	residualGate
)

// residual is one side of one term as the walker applies it. lowerCuts sets
// the kind; prepare builds the rest once the cone has fixed the labels.
type residual struct {
	kind residualKind
	diag *statevec.Diagonal // a residualDiagonal's entries
	g    *gate.Gate         // a residualGate's gate
}

// rootCopy is a cut with one identity term: its child is a plain copy, which
// is how a prefix task takes the walker's shared root.
var rootCopy = compiledCut{sigma: []complex128{1}, res: [2][]residual{make([]residual, 1), make([]residual, 1)}}

// apply applies term t's residual to one side's state in place and returns
// it with the qubits dropped after the cut.
func (c *compiledCut) apply(side cut.Side, t int, v statevec.Vector) statevec.Vector {
	switch r := &c.res[side][t]; r.kind {
	case residualDiagonal:
		r.diag.Apply(v)
	case residualGate:
		v.ApplyGate(r.g)
	}
	return c.proj[side].Apply(v)
}

// prepare readies the residuals once the cone has given the terms their final
// labels: each diagonal is compiled from its 2^k entries, and a
// residualGate's gate is the term's own, kernel plan attached. It returns how
// many sides of terms are elided identities.
func (c *compiledCut) prepare() (elided int) {
	for side := range c.res {
		for t := range c.res[side] {
			r, g := &c.res[side][t], &c.terms[side][t]
			switch r.kind {
			case residualIdentity:
				elided++
			case residualDiagonal:
				s, _ := splitScalar(g)
				r.diag = statevec.NewDiagonal(g.Qubits, residualEntries(g, s))
			case residualGate:
				statevec.PrepareGate(g)
				r.g = g
			}
		}
	}
	return elided
}

type engine struct {
	segs   []segment
	cuts   []compiledCut
	ranks  []int // per-cut Schmidt ranks (len(cuts[l].sigma))
	nLower int
	nUpper int
	m      int // output amplitudes
	leaves atomic.Int64

	// epi is the fold epilogue: the gates sink moved out of the path tree,
	// fused and compiled for the accumulator's registers (see sink), nil when
	// none sank. epiGates are its gates, for the kernel-class census.
	epi      *statevec.CompiledSegment
	epiGates []gate.Gate

	// tail is the diagonal lower tail the walker takes below its level (see
	// chooseTail); its level is -1 when the rule does not fire.
	tail tail

	failAfter int64
	hook      func(int64)
	onCkpt    func(*Checkpoint)
	// mergeEach merges a worker's accumulator after every task instead of
	// once, when someone may read the checkpoint before the walk ends (see
	// runTasks).
	mergeEach bool
	// workers is the number of walkers the run starts, which the hold rule
	// charges a fold tile each.
	workers int
	// hold keeps the level-L nodes of an unobserved run below a diagonal tail
	// instead of folding each into a worker's scratch, and tile is the
	// amplitudes of one tile of the pass that folds them after the walk (see
	// holdNodes); held is that run's store, which runTasks allocates.
	hold bool
	tile int
	held *nodeStore
	// walkers and merges count the walkers that ran a task and the
	// accumulators they merged.
	walkers int
	merges  int64

	tel *telemetry.Recorder
	// trc/tsc carry the flight-recorder trace context threaded through the
	// run's context.Context: trc records phase and per-prefix-task spans,
	// tsc is the parent they hang under (the walk-phase span once the walk
	// starts). Both are nil/zero for untraced runs; the recorder is
	// nil-safe, so no call site checks.
	trc *trace.Recorder
	tsc trace.SpanContext
	// parReserved/parInner snapshot the process parallelism budget while the
	// worker pool holds its reservation (written in runTasks before the
	// workers start, read for the telemetry run totals afterwards).
	parReserved int
	parInner    int
}

// spanLeafBudget is the leaf count a lane's coalesced "prefix" span covers
// before it is closed and a fresh one opened. It bounds span overhead on
// plans whose prefix tasks are only a few leaves each (the two clock reads
// plus the ring-buffer copy per span amortize over at least this much leaf
// work) while leaving one span per task on any task at or above the budget.
const spanLeafBudget = 64

// Run executes the plan without external cancellation.
func Run(plan *cut.Plan, opts Options) (*Result, error) {
	return RunContext(context.Background(), plan, opts)
}

// RunContext executes the plan under ctx. Cancellation is cooperative: the
// path workers observe it at segment boundaries, so a canceled run stops
// within one segment of work per worker. The returned error is
// context.Canceled or context.DeadlineExceeded for external cancellation and
// ErrTimeout when Options.Timeout fires.
func RunContext(ctx context.Context, plan *cut.Plan, opts Options) (*Result, error) {
	ck, elapsed, err := execute(ctx, plan, opts, false, func(m, workers int) (*Checkpoint, [][]int, error) {
		// Expand enough leading cut levels that the task count comfortably
		// exceeds the worker count.
		return Seed(plan, m, ChooseSplitLevels(plan, 4*workers), opts.Resume)
	})
	if err != nil {
		return nil, err
	}
	np, _ := plan.NumPaths()
	return &Result{
		Amplitudes:     ck.Acc,
		NumPaths:       np,
		Log2Paths:      plan.Log2Paths(),
		PathsSimulated: ck.PathsSimulated,
		NumQubits:      plan.NumQubits,
		Elapsed:        elapsed,
	}, nil
}

// execute is the one engine entry behind RunContext and RunPrefixesContext.
// It checks the partition, resolves the workers, admits the plan
// against its cost, takes the task set from seed (the checkpoint to merge
// into and the pending prefixes), compiles the engine for the set's split
// depth, applies the timeout and walks the pending prefixes into the
// checkpoint, finishing the telemetry. Once the walk has begun the
// checkpoint comes back even with an error, holding every task merged so
// far; Options.CheckpointWriter then receives it too. Every task is merged
// as soon as it is done when the checkpoint can be read before the walk ends:
// by Options.OnCheckpoint, Options.CheckpointWriter, or a partial caller,
// which takes it back with the error. Otherwise each worker merges once, or
// below a diagonal tail whose nodes fit the scratch every worker holds them
// for one fold pass after the walk (runTasks).
func execute(ctx context.Context, plan *cut.Plan, opts Options, partial bool, seed func(m, workers int) (*Checkpoint, [][]int, error)) (*Checkpoint, time.Duration, error) {
	nLower := plan.Partition.NumLower()
	nUpper := plan.Partition.NumUpper(plan.NumQubits)
	if nLower <= 0 || nUpper <= 0 {
		return nil, 0, fmt.Errorf("hsf: degenerate partition %d|%d", nLower, nUpper)
	}
	workers := resolveWorkers(opts.Workers)
	m := resolveAmplitudes(plan, opts.MaxAmplitudes)
	a := analyze(plan, m, runSplit(plan, opts.Resume, workers))
	if err := Admit(estimate(plan, workers, a), opts.MemoryBudget, opts.MaxPaths); err != nil {
		return nil, 0, err
	}
	ck, pending, err := seed(m, workers)
	if err != nil {
		return nil, 0, err
	}
	if ck.SplitLevels != a.split { // a partial run's own depth
		a.split = ck.SplitLevels
		a.tail, a.sunk = chooseTail(plan, a.cuts, a.at, &a.cone, m, a.split)
	}

	e := &engine{nLower: nLower, nUpper: nUpper, m: m,
		failAfter: opts.FailAfterPaths, hook: opts.testHookLeaf,
		onCkpt: opts.OnCheckpoint, tel: opts.Telemetry,
		mergeEach: partial || opts.OnCheckpoint != nil || opts.CheckpointWriter != nil,
		workers:   min(workers, len(pending))}
	e.trc, e.tsc = trace.FromContext(ctx)
	e.compile(plan, a, opts.FusionMaxQubits)

	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, opts.Timeout, ErrTimeout)
		defer cancel()
	}

	np, _ := plan.NumPaths()
	resumedPaths := ck.PathsSimulated
	opts.Progress.Start(saturateInt64(np), resumedPaths, &e.leaves)

	start := time.Now()
	wsp := e.trc.Start(e.tsc, "walk")
	wsp.SetInt("prefixes", int64(len(pending)))
	e.tsc = wsp.Context() // prefix-task spans parent to the walk phase
	err = e.runTasks(ctx, pending, ck)
	wsp.SetInt("paths", ck.PathsSimulated)
	wsp.SetInt("merges", e.merges)
	wsp.End()
	elapsed := time.Since(start)
	e.finishTelemetry(opts.Telemetry, np, plan.Log2Paths(), ck.PathsSimulated, resumedPaths, elapsed)
	if err != nil && opts.CheckpointWriter != nil {
		if werr := WriteCheckpoint(opts.CheckpointWriter, ck); werr != nil {
			err = errors.Join(err, fmt.Errorf("hsf: writing checkpoint: %w", werr))
		}
	}
	return ck, elapsed, err
}

// analysis is the engine's reading of a plan for an m-amplitude run that
// expands split cut levels into prefix tasks: cut terms become
// partition-local gates (lowerCuts), local gates are scheduled into the
// earliest segment they can legally reach (schedule, at), the output cone
// places its drops, and the lower half may give way to a proxy below a
// diagonal tail, the gates cheaper after the fold, or in the tail's way,
// moving to the epilogue (chooseTail, sunk). Cost prices a run from it and
// compile builds the engine from it, so a run analyses its plan once.
// compile consumes it: it relabels and prepares the cuts in place.
type analysis struct {
	m, split int
	cuts     []compiledCut
	at       []int
	hoisted  int
	cone     cone
	tail     tail
	sunk     []bool
}

// analyze returns the analysis of plan for an m-amplitude run split at
// split levels.
func analyze(plan *cut.Plan, m, split int) *analysis {
	a := &analysis{m: m, split: split, cuts: lowerCuts(plan)}
	var lastAny []int
	a.at, a.hoisted, lastAny = schedule(plan, a.cuts)
	a.cone = newCone(lastAny, m, plan.Partition.NumLower(), plan.Partition.NumUpper(plan.NumQubits), len(a.cuts))
	a.tail, a.sunk = chooseTail(plan, a.cuts, a.at, &a.cone, m, split)
	return a
}

// compile builds the engine from the plan's analysis a: the local gates go
// to their segments or, sunk, to the epilogue, the rest are remapped to
// partition-local labels and fused per segment. The output cone is applied
// first (project), so every side of every segment compiles at the qubit
// count it runs at. Last it settles whether an unobserved run holds its
// tail's nodes (holdNodes).
func (e *engine) compile(plan *cut.Plan, a *analysis, fusionMaxQubits int) {
	endCompile := e.tel.Span("compile")
	csp := e.trc.Start(e.tsc, "compile")
	e.cuts, e.tail = a.cuts, a.tail
	at, hoisted, sunk, c := a.at, a.hoisted, a.sunk, &a.cone
	e.segs = make([]segment, len(e.cuts)+1)
	// Size every segment side, the epilogue and the upper gates' labels
	// first, so that each is carved from one array.
	count := make([][2]int, len(e.segs))
	var gatesSunk, nGates, nUpQubits int
	for i := range plan.Steps {
		st := &plan.Steps[i]
		switch {
		case st.Kind != cut.LocalStep:
		case sunk[i]:
			gatesSunk++
		default:
			count[at[i]][st.Side]++
			nGates++
			if st.Side == cut.Upper {
				nUpQubits += len(st.Gate.Qubits)
			}
		}
	}
	all, upQubits := make([]gate.Gate, nGates+gatesSunk), make([]int, nUpQubits)
	for i := range e.segs {
		for side, n := range count[i] {
			e.segs[i].gates[side], all = all[:0:n], all[n:]
		}
	}
	epi := all[:0:gatesSunk]
	for i := range plan.Steps {
		st := &plan.Steps[i]
		if st.Kind != cut.LocalStep {
			continue
		}
		g := st.Gate // shares the plan's matrix, which nothing writes
		if sunk[i] {
			epi = append(epi, g) // the accumulator's labels are the plan's
			continue
		}
		if st.Side == cut.Upper {
			qs := upQubits[:len(g.Qubits):len(g.Qubits)]
			upQubits = upQubits[len(g.Qubits):]
			for b, q := range g.Qubits {
				qs[b] = q - e.nLower
			}
			g.Qubits = qs
			g.SetKernelCache(nil)
		}
		seg := &e.segs[at[i]]
		seg.gates[st.Side] = append(seg.gates[st.Side], g)
	}

	var leaf [2]int // qubits of each half at a leaf
	for side := range leaf {
		e.project(cut.Side(side), c)
		leaf[side] = c.qubits(cut.Side(side), 2*len(e.cuts))
	}
	e.tail.relabel(e.cuts)

	if fusionMaxQubits == 0 {
		fusionMaxQubits = fuse.DefaultMaxQubits
	}
	for i := range e.segs {
		for side, gs := range e.segs[i].gates {
			if fusionMaxQubits > 0 {
				gs = fuse.Fuse(gs, fusionMaxQubits)
				e.segs[i].gates[side] = gs
			}
			// Compile the segments now, while the gates are still owned by
			// this goroutine: the walker replays these gates once per path,
			// and the compiled form attaches every kernel plan (no per-call
			// index precomputation) and groups low gates into cache-blocked
			// sweeps.
			e.segs[i].comp[side] = statevec.CompileSegment(gs, c.qubits(cut.Side(side), 2*i-1))
		}
	}
	if len(epi) > 0 {
		if fusionMaxQubits > 0 {
			epi = fuse.Fuse(epi, fusionMaxQubits)
		}
		e.epiGates = epi
		e.epi = statevec.CompileSegment(epi, epilogueQubits(epi))
	}
	e.holdNodes()
	e.ranks = make([]int, len(e.cuts))
	elided := 0
	for i := range e.cuts {
		elided += e.cuts[i].prepare()
		e.ranks[i] = len(e.cuts[i].sigma)
	}
	if e.tel != nil {
		e.tel.SetStructure(kernelClassNames(), e.segClassTable(), e.cutClassTable())
	}
	csp.SetInt("cuts", int64(len(e.cuts)))
	csp.SetInt("gates_hoisted", int64(hoisted))
	csp.SetInt("gates_sunk", int64(gatesSunk))
	csp.SetInt("cut_terms_elided", int64(elided))
	csp.SetInt("lo_qubits_projected", int64(e.nLower-leaf[cut.Lower]))
	csp.SetInt("up_qubits_projected", int64(e.nUpper-leaf[cut.Upper]))
	csp.SetInt("leaf_lo_amps", 1<<leaf[cut.Lower])
	csp.SetInt("leaf_up_amps", 1<<leaf[cut.Upper])
	csp.SetInt("tail_level", int64(e.tail.level))
	csp.SetInt("tail_qubits", int64(len(e.tail.qubits)))
	csp.End()
	endCompile()
}

// lowerCuts lowers every cut of the plan to partition-local term gates and
// moves each side's scalar into σ (splitScalar). The factors of a diagonal
// cut are classified from their diagonals (gate.NewDiagonal); any other
// factor is scanned. All cuts share one array per field.
func lowerCuts(plan *cut.Plan) []compiledCut {
	upOff := plan.Partition.NumLower()
	nTerms, nQubits := 0, 0
	for _, cp := range plan.Cuts {
		nTerms += len(cp.Terms)
		nQubits += len(cp.LowerQubits) + len(cp.UpperQubits)
	}
	cuts := make([]compiledCut, len(plan.Cuts))
	sigma := make([]complex128, nTerms)
	terms, res := make([]gate.Gate, 2*nTerms), make([]residual, 2*nTerms)
	qubits := make([]int, nQubits)
	for l, cp := range plan.Cuts {
		cc := &cuts[l]
		r := len(cp.Terms)
		cc.sigma, sigma = sigma[:r:r], sigma[r:]
		for side := range cc.terms {
			cc.terms[side], terms = terms[:r:r], terms[r:]
			cc.res[side], res = res[:r:r], res[r:]
		}
		nLo, nUp := len(cp.LowerQubits), len(cp.UpperQubits)
		loQ, upQ := qubits[:nLo:nLo], qubits[nLo:nLo+nUp:nLo+nUp]
		qubits = qubits[nLo+nUp:]
		copy(loQ, cp.LowerQubits)
		for i, q := range cp.UpperQubits {
			upQ[i] = q - upOff
		}
		newTerm := gate.New
		if cp.Diagonal {
			newTerm = gate.NewDiagonal
		}
		for i, t := range cp.Terms {
			cc.terms[cut.Lower][i] = newTerm("cut-term", t.Lower, nil, loQ...)
			cc.terms[cut.Upper][i] = newTerm("cut-term", t.Upper, nil, upQ...)
			cc.sigma[i] = complex(t.Sigma, 0)
			for side := range cc.terms {
				s, kind := splitScalar(&cc.terms[side][i])
				cc.sigma[i] *= s
				cc.res[side][i].kind = kind
			}
		}
	}
	return cuts
}

// scalarTol is gate classification's tolerance: an entry at or below it is
// zero to the diagonal flag, so it cannot be a term's scalar, and a residual
// entry within it of 1 is 1, as it is to the control mask.
const scalarTol = 1e-14

// splitScalar splits one side of a term into a scalar and the kind of
// residual the term is that scalar times. Every path's leaf weight is the
// product of its terms' σ and the fold is linear in it, so the scalar can ride
// in σ and leave less to apply per path. A diagonal term's scalar is its first
// entry above scalarTol, read off the 2^k diagonal; residual entries within
// scalarTol of 1 count as 1, and when all do, the residual is the identity
// and is never applied. A term that is not diagonal — a controlled or
// Gram-route factor — keeps scalar 1 and applies as it is.
func splitScalar(g *gate.Gate) (complex128, residualKind) {
	if !g.Diagonal {
		return 1, residualGate
	}
	var s complex128
	for i := 0; i < g.Matrix.Rows && s == 0; i++ {
		if e := g.Matrix.At(i, i); cmplx.Abs(e) > scalarTol {
			s = e
		}
	}
	if s == 0 { // no entry to split off: a zero term, applied as it is
		return 1, residualGate
	}
	for i := 0; i < g.Matrix.Rows; i++ {
		if cmplx.Abs(g.Matrix.At(i, i)/s-1) > scalarTol {
			return s, residualDiagonal
		}
	}
	return s, residualIdentity
}

// residualEntries returns a diagonal term's residual entries over its scalar
// s, those within scalarTol of 1 exactly 1 (d[0] = 1 unless the term's
// leading entry is 0). A one-qubit diag(1, d) is a phase, which the dense
// kernel applies to half the amplitudes.
func residualEntries(g *gate.Gate, s complex128) []complex128 {
	d := make([]complex128, g.Matrix.Rows)
	for i := range d {
		if d[i] = g.Matrix.At(i, i) / s; cmplx.Abs(d[i]-1) <= scalarTol {
			d[i] = 1
		}
	}
	return d
}

// schedule assigns every local gate of the plan to the earliest segment it
// can legally reach and returns that segment per plan step (cut steps keep
// zero), the number of gates moved out of their original segment, and per
// qubit the position of the last item touching it. Segment l is replayed once
// per term choice of cuts 0…l-1, so multiplicity never decreases with the
// level and moving a gate earlier can only remove work.
//
// A gate may cross anything it commutes with, judged per shared qubit from
// the classification flags alone by the structural rule of circuit.Commute
// (rule 2 there). So per qubit it is enough to remember the position of the
// latest item touching it and of the latest item not diagonal on it
// (gate.DiagonalOn), with segment s at position 2s and cut l at 2l+1. Within
// a segment gates keep plan order, so every pair the schedule inverts
// commutes, and only the engine's segments change: the plan, its hash,
// prefixes and checkpoints are untouched.
func schedule(plan *cut.Plan, cuts []compiledCut) (at []int, hoisted int, lastAny []int) {
	lastAny = make([]int, plan.NumQubits)
	lastOffDiag := make([]int, plan.NumQubits)
	mark := func(g *gate.Gate, qubits []int, pos int) {
		for b, q := range qubits {
			lastAny[q] = max(lastAny[q], pos)
			if !g.DiagonalOn(b) {
				lastOffDiag[q] = max(lastOffDiag[q], pos)
			}
		}
	}
	at = make([]int, len(plan.Steps))
	level := 0
	for i := range plan.Steps {
		st := &plan.Steps[i]
		if st.Kind == cut.CutStep {
			c := &cuts[level]
			for t := range c.sigma {
				mark(&c.terms[cut.Lower][t], st.Cut.LowerQubits, 2*level+1)
				mark(&c.terms[cut.Upper][t], st.Cut.UpperQubits, 2*level+1)
			}
			level++
			continue
		}
		g := &st.Gate
		pos := 0
		for b, q := range g.Qubits {
			if g.DiagonalOn(b) {
				pos = max(pos, lastOffDiag[q])
			} else {
				pos = max(pos, lastAny[q])
			}
		}
		at[i] = (pos + 1) / 2
		if at[i] < level {
			hoisted++
		}
		mark(g, g.Qubits, 2*at[i])
	}
	return at, hoisted, lastAny
}

// freeQubits returns how many low qubits are free in an m-amplitude output:
// the first m amplitudes are m/2^k whole registers over qubits 0…k-1, with
// k the number of trailing zero bits of m.
func freeQubits(m int) int { return bits.TrailingZeros(uint(m)) }

// sink picks the local gates the fold epilogue applies instead of the path
// tree, per plan step. Every path's leaf adds w_p · up_p ⊗ lo_p to its task's
// accumulator, and the sum is linear, so a gate G acting on every path's
// halves last may act once on the sum instead: Σ_p w_p · up_p ⊗ (G·lo_p) =
// (I ⊗ G) · Σ_p w_p · up_p ⊗ lo_p. A gate scheduled into segment l sinks when
//
//  1. it may pass everything after it: walking the plan from its end, cut
//     terms and kept gates block their qubits, and a gate passes them by the
//     structural rule of circuit.Commute, as in schedule;
//  2. every qubit it touches is free in the output (freeQubits), so the
//     accumulator holds whole registers over it and the cone never drops it;
//     every lower qubit is free exactly when m is a multiple of 2^nLower;
//  3. it is cheaper after the fold: M(l) · 2^{n_side(l)} > T · m, where M(l)
//     = Π_{j<l} rank_j is the segment's replay count, n_side(l) the side's
//     qubits there under the cone c, and T = M(splitLevels) the prefix-task
//     count. The epilogue runs once per merge of an m-amplitude accumulator,
//     and no run merges more often than once per task.
//
// With a diagonal tail at tailLevel ≥ 0 (see chooseTail) every lower gate
// scheduled after that level must sink, whatever rule 3 says; sink reports
// ok = false when one of them breaks rule 1 or 2. It also returns the work
// the plan's local gates cost in amplitudes touched, M(l) · 2^{n_side(l)} for
// a gate kept in segment l and T · m for a sunk one, which chooseTail weighs.
//
// Sunk gates keep plan order. Like schedule, sink changes only the engine's
// segments: a task's accumulator ends as the same operator applied to the
// same paths, so the plan, its hash, prefix keys and checkpoints are
// untouched.
func sink(plan *cut.Plan, cuts []compiledCut, at []int, c *cone, m, splitLevels, tailLevel int) (sunk []bool, work int64, ok bool) {
	replays := replayCounts(cuts)
	afterFold := mulSat(replays[splitLevels], int64(m))
	free := freeQubits(m)
	blockedAny := make([]bool, plan.NumQubits) // some later kept item touches q
	blockedOff := make([]bool, plan.NumQubits) // … and is not diagonal on it
	block := func(g *gate.Gate, qubits []int) {
		for b, q := range qubits {
			blockedAny[q] = true
			blockedOff[q] = blockedOff[q] || !g.DiagonalOn(b)
		}
	}
	sunk = make([]bool, len(plan.Steps))
	level := len(cuts)
	for i := len(plan.Steps) - 1; i >= 0; i-- {
		st := &plan.Steps[i]
		if st.Kind == cut.CutStep {
			level--
			cc := &cuts[level]
			for t := range cc.sigma {
				block(&cc.terms[cut.Lower][t], st.Cut.LowerQubits)
				block(&cc.terms[cut.Upper][t], st.Cut.UpperQubits)
			}
			continue
		}
		g := &st.Gate
		l := at[i]
		legal := true
		for b, q := range g.Qubits {
			legal = legal && q < free && !blockedOff[q] && (g.DiagonalOn(b) || !blockedAny[q])
		}
		forced := tailLevel >= 0 && st.Side == cut.Lower && l > tailLevel
		if forced && !legal {
			return nil, 0, false
		}
		inTree := mulSat(replays[l], int64(1)<<c.qubits(st.Side, 2*l-1))
		if legal && (forced || inTree > afterFold) {
			sunk[i] = true
			work = addSat(work, afterFold)
		} else {
			block(g, g.Qubits)
			work = addSat(work, inTree)
		}
	}
	return sunk, work, true
}

// replayCounts returns M(l) = Π_{j<l} rank_j for l = 0…len(cuts): how often
// segment l is replayed, M(len(cuts)) being the leaf count.
func replayCounts(cuts []compiledCut) []int64 {
	replays := make([]int64, len(cuts)+1)
	replays[0] = 1
	for l := range cuts {
		replays[l+1] = mulSat(replays[l], int64(len(cuts[l].sigma)))
	}
	return replays
}

// epilogueQubits returns the register the epilogue of the sunk gates gs runs
// on: qubits 0 up to the highest one they touch. Sink's rule 2 keeps it within
// the free qubits, so an accumulator, and every tile of one, is a whole number
// of registers.
func epilogueQubits(gs []gate.Gate) int {
	n := 0
	for i := range gs {
		n = max(n, gs[i].MaxQubit()+1)
	}
	return n
}

// epilogue finishes a folded accumulator, or a tile of one, before it merges:
// the sunk gates act on each of its registers (epilogueQubits) in place.
func (e *engine) epilogue(acc statevec.Vector) {
	if e.epi == nil {
		return
	}
	n := 1 << e.epi.NumQubits()
	for lo := 0; lo < acc.Len(); lo += n {
		e.epi.Apply(acc.Slice(lo, lo+n))
	}
}

// numKinds is the number of kernel classes the gate package distinguishes.
const numKinds = int(gate.KindControlled) + 1

// kernelClassNames returns the class names indexed by gate.Kind, so the
// telemetry package needs no gate dependency.
func kernelClassNames() []string {
	names := make([]string, numKinds)
	for k := range names {
		names[k] = gate.Kind(k).String()
	}
	return names
}

// countClasses tallies gate kernel classes into a fresh per-kind vector.
func countClasses(gss ...[]gate.Gate) []int64 {
	counts := make([]int64, numKinds)
	for _, gs := range gss {
		for i := range gs {
			counts[gs[i].Class()]++
		}
	}
	return counts
}

// segClassTable returns, per segment, the kernel-class census of the gates
// one application of that segment executes (both partitions, post-fusion).
// The walker then only counts segment applications; per-class totals are a
// dot product taken at report time, costing the hot path nothing.
func (e *engine) segClassTable() [][]int64 {
	t := make([][]int64, len(e.segs))
	for i := range e.segs {
		t[i] = countClasses(e.segs[i].gates[:]...)
	}
	return t
}

// epilogueClasses returns the kernel-class census of the epilogue over
// merged accumulators. An epilogue gate counts once per accumulator row per
// merge, the unit of a lower-half application, so with the segment and cut
// tables the per-class totals are the gates the run applied.
func (e *engine) epilogueClasses(merged int64) []int64 {
	counts := countClasses(e.epiGates)
	for k := range counts {
		counts[k] *= merged * int64(leafRows(e.m, e.nLower))
	}
	return counts
}

// cutClassTable returns, per cut level and term, the kernel-class census of
// one cut-term application: the class of each side's residual as applied, a
// diagonal for a residualDiagonal and nothing for an elided identity.
func (e *engine) cutClassTable() [][][]int64 {
	t := make([][][]int64, len(e.cuts))
	for l := range e.cuts {
		c := &e.cuts[l]
		t[l] = make([][]int64, len(c.sigma))
		for term := range t[l] {
			counts := make([]int64, numKinds)
			for side := range c.res {
				switch c.res[side][term].kind {
				case residualDiagonal:
					counts[gate.KindDiagonal]++
				case residualGate:
					counts[c.terms[side][term].Class()]++
				}
			}
			t[l][term] = counts
		}
	}
	return t
}

// saturateInt64 clamps a uint64 path count into int64 range.
func saturateInt64(v uint64) int64 {
	if v > 1<<63-1 {
		return 1<<63 - 1
	}
	return int64(v)
}

// finishTelemetry records the run's final totals (nil-safe via Recorder),
// with the walkers that ran a task as the run's workers.
func (e *engine) finishTelemetry(rec *telemetry.Recorder, np uint64, log2 float64, simulated, resumed int64, elapsed time.Duration) {
	rec.FinishRun(telemetry.RunTotals{
		TotalPaths: saturateInt64(np),
		Log2Paths:  log2,
		Simulated:  simulated,
		Resumed:    resumed,
		Workers:    e.walkers,
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Reserved:   e.parReserved,
		Inner:      e.parInner,
		Elapsed:    elapsed,
	})
}

// stopped returns the cancellation cause if ctx is done.
func stopped(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	default:
		return nil
	}
}

// runTasks executes the pending prefix tasks on e.workers workers and merges
// what they fold into ck, so ck is always a consistent, checkpointable state.
// It returns the first error encountered (workers that drained without
// running anything report the external cancellation cause).
//
// Each worker owns a reusable walker with its private workspace (pair
// pools), and the pool's worker count is reserved against the process-wide
// parallelism budget so gate kernels inside the workers do not oversubscribe
// the cores the pool already occupies.
//
// A worker folds its tasks into a private scratch accumulator and merges it
// into ck (merge). With e.mergeEach it merges after every task, so the
// checkpoint lists each task as soon as it is done; otherwise nobody reads ck
// before the walk ends, and a worker folds all its tasks into its scratch and
// merges once, when it runs out of tasks. A worker whose task failed merges
// nothing more: the failed task's leaves are already in its scratch.
//
// A run that holds its nodes (e.hold) has no scratch: its walkers store every
// level-L node in the run's nodeStore, and once every task is done, one pass
// folds them all into ck (foldHeld), which then lists the tasks, one merge in
// all. A stopped or failed held run merges nothing, leaving ck at its seed.
func (e *engine) runTasks(ctx context.Context, pending [][]int, ck *Checkpoint) error {
	workers := e.workers
	if workers == 0 { // nothing left to simulate
		return stopped(ctx)
	}
	releaseBudget := par.Reserve(workers)
	defer releaseBudget()
	e.parReserved, e.parInner = par.Reserved(), par.Inner()

	// The first failing worker cancels runCtx so its peers stop at the next
	// segment boundary instead of burning through their whole subtree.
	runCtx, cancelRun := context.WithCancelCause(ctx)
	defer cancelRun(nil)

	var (
		mu         sync.Mutex // guards ck, firstErr, heldLeaves, e.walkers and e.merges
		firstErr   error
		heldLeaves int64 // a held run's leaves, merged with its nodes
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancelRun(err)
	}
	// merge finishes a worker's scratch with the fold epilogue, which is
	// linear and so acts on the sum of its tasks as on each, and adds it into
	// ck with the tasks it holds.
	merge := func(scratch statevec.Vector, done [][]int, leaves int64) {
		e.epilogue(scratch)
		mu.Lock()
		scratch.AddToComplex(ck.Acc)
		ck.Prefixes = append(ck.Prefixes, done...)
		ck.PathsSimulated += leaves
		e.merges++
		if e.onCkpt != nil {
			e.onCkpt(ck)
		}
		mu.Unlock()
	}
	if e.hold {
		e.held = e.newNodeStore(len(pending), len(pending[0]))
	}

	taskCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			walk := e.newWalker(e.tel.Worker(len(e.segs), e.ranks))
			// The worker accumulates its subtrees into private SoA scratch;
			// the interleaved checkpoint accumulator is only touched at the
			// merge (the layout's edge-conversion boundary).
			var scratch statevec.Vector
			if e.held == nil {
				scratch = statevec.MakeVector(e.m)
			}
			var (
				done        [][]int // tasks folded into scratch since the last merge
				leaves      int64   // their leaves
				ran, failed bool
			)
			// Prefix spans coalesce adjacent small tasks: the lane keeps one
			// span open and folds tasks into it until the span has covered
			// spanLeafBudget leaves, so tiny tasks (a handful of leaves
			// each) don't pay a Start/End per task. Tasks at or above the
			// budget still get a span each — the granularity that matters
			// when reading a timeline. The leaf loop inside runPrefix
			// records nothing, keeping the zero-allocations-per-leaf guard
			// intact.
			var (
				sp       trace.Span
				spTasks  int64
				spLeaves int64
			)
			closeSpan := func() {
				if spTasks == 0 {
					return
				}
				sp.SetInt("leaves", spLeaves)
				sp.SetInt("tasks", spTasks)
				sp.End()
				spTasks, spLeaves = 0, 0
			}
			for i := range taskCh {
				if stopped(runCtx) != nil {
					continue // drain
				}
				if spTasks == 0 {
					sp = e.trc.Start(e.tsc, "prefix")
					sp.SetLane(lane + 1)
				}
				ran = true
				if e.held != nil {
					walk.slot = i * e.held.perTask
				}
				nLeaves, err := walk.runTask(runCtx, pending[i], scratch)
				spTasks++
				spLeaves += nLeaves
				if err != nil {
					sp.SetStr("err", "failed")
					closeSpan()
					failed = true
					fail(err)
					continue
				}
				if spLeaves >= spanLeafBudget {
					closeSpan()
				}
				done, leaves = append(done, pending[i]), leaves+nLeaves
				if e.mergeEach {
					merge(scratch, done, leaves)
					scratch.Clear()
					done, leaves = done[:0], 0
				}
			}
			closeSpan()
			switch {
			case e.held != nil:
				mu.Lock()
				heldLeaves += leaves
				mu.Unlock()
			case len(done) > 0 && !failed:
				merge(scratch, done, leaves)
			}
			if ran {
				mu.Lock()
				e.walkers++
				mu.Unlock()
			}
			if walk.wc != nil {
				walk.wc.AddPool(walk.batch.pool.Stats())
				e.tel.Flush(walk.wc)
			}
		}(w)
	}
	for i := range pending {
		taskCh <- i
	}
	close(taskCh)
	wg.Wait()

	if firstErr == nil {
		firstErr = stopped(ctx)
	}
	if e.held != nil && firstErr == nil {
		e.foldHeld(ck.Acc)
		ck.Prefixes = append(ck.Prefixes, pending...)
		ck.PathsSimulated += heldLeaves
		e.merges = 1
	}
	if e.tel != nil && e.epi != nil {
		e.tel.AddKernelClasses(kernelClassNames(), e.epilogueClasses(e.merges))
	}
	return firstErr
}
