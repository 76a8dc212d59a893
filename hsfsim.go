// Package hsfsim is a quantum circuit simulator implementing Hybrid
// Schrödinger-Feynman (HSF) simulation with joint gate cutting, reproducing
//
//	Herzog, Burgholzer, Ufrecht, Scherer, Wille:
//	"Joint Cutting for Hybrid Schrödinger-Feynman Simulation of Quantum
//	Circuits", DAC 2025.
//
// Three simulation methods are provided behind one call:
//
//   - Schrodinger: full 2^n statevector simulation (the baseline);
//   - StandardHSF: the circuit is bipartitioned, every gate crossing the cut
//     is Schmidt-decomposed separately, and the exponentially many resulting
//     "paths" are simulated on the two halves (state of the art before the
//     paper);
//   - JointHSF: crossing gates are first grouped into blocks (cascades of
//     RZZ/CZ/CNOT gates, or window blocks) and each block is cut jointly
//     with a single Schmidt decomposition, collapsing the path count from
//     ∏ r_i to the block ranks (the paper's contribution).
//
// A minimal session:
//
//	c := hsfsim.NewCircuit(4)
//	c.Append(hsfsim.H(0), hsfsim.RZZ(0.8, 1, 2), hsfsim.RZZ(0.3, 1, 3))
//	res, err := hsfsim.Simulate(c, hsfsim.Options{
//		Method: hsfsim.JointHSF,
//		CutPos: 1,
//	})
//	// res.Amplitudes holds the statevector, res.NumPaths the path count.
package hsfsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/fuse"
	"hsfsim/internal/gate"
	"hsfsim/internal/hsf"
	"hsfsim/internal/statevec"
	"hsfsim/internal/telemetry"
)

// Method selects the simulation algorithm.
type Method int

// Simulation methods.
const (
	// Schrodinger performs full statevector simulation.
	Schrodinger Method = iota
	// StandardHSF cuts every crossing gate separately (state of the art).
	StandardHSF
	// JointHSF groups crossing gates into blocks and cuts them jointly
	// (the paper's proposed method).
	JointHSF
)

func (m Method) String() string {
	switch m {
	case Schrodinger:
		return "schrodinger"
	case StandardHSF:
		return "standard-hsf"
	case JointHSF:
		return "joint-hsf"
	default:
		return "unknown"
	}
}

// BlockStrategy mirrors the joint-cut grouping strategies of the planner.
type BlockStrategy = cut.Strategy

// Block strategies for JointHSF (ignored by the other methods).
const (
	// BlockCascade groups crossing two-qubit gates sharing an anchor qubit
	// (the paper's QAOA evaluation setting; default for JointHSF).
	BlockCascade = cut.StrategyCascade
	// BlockWindow grows fusion-style windows around crossing gates,
	// absorbing local gates (supremacy-style circuits, Fig. 3).
	BlockWindow = cut.StrategyWindow
)

// ErrTimeout is returned when a simulation exceeds Options.Timeout. It is
// distinct from the caller's context being canceled (context.Canceled) or
// hitting its own deadline (context.DeadlineExceeded); match all three with
// errors.Is.
var ErrTimeout = hsf.ErrTimeout

// ErrBudget is the sentinel matched by errors.Is when admission control
// rejects a job whose estimated cost exceeds Options.MemoryBudget or
// Options.MaxPaths. The concrete error is a *hsf.BudgetError carrying the
// cost estimate; the rejection happens before any statevector is allocated.
var ErrBudget = hsf.ErrBudget

// ErrCheckpointMismatch is returned when Options.ResumeFrom holds a
// checkpoint produced by a different circuit, cut plan, or MaxAmplitudes.
var ErrCheckpointMismatch = hsf.ErrCheckpointMismatch

// Checkpoint is a resumable snapshot of a partially executed HSF run: the
// completed prefix tasks plus their merged partial accumulator. See
// Options.CheckpointWriter / Options.ResumeFrom for the serialized form and
// Options.OnCheckpoint for live mid-run snapshots.
type Checkpoint = hsf.Checkpoint

// BudgetError is the concrete admission-control rejection; it wraps
// ErrBudget and carries the cost estimate that triggered it.
type BudgetError = hsf.BudgetError

// PanicError wraps a panic recovered from an HSF path worker: the simulation
// reports it as an ordinary error instead of crashing the process.
type PanicError = hsf.PanicError

// ErrUnsupported is returned (match with errors.Is) when a name or an option
// is not supported — an unknown method or block strategy, or a distributed
// job on a service without a fleet — instead of being silently ignored.
var ErrUnsupported = errors.New("hsfsim: unsupported option")

// ErrInjectedFault is returned when Options.FailAfterPaths triggers; it
// makes checkpoint/resume recovery testable deterministically.
var ErrInjectedFault = hsf.ErrInjectedFault

// ParseMethod maps a CLI/wire method name to a Method: "schrodinger",
// "standard" or "joint" (also ""). Unknown names wrap ErrUnsupported.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "schrodinger":
		return Schrodinger, nil
	case "standard":
		return StandardHSF, nil
	case "", "joint":
		return JointHSF, nil
	}
	return 0, fmt.Errorf("hsfsim: unknown method %q (want schrodinger, standard or joint): %w", s, ErrUnsupported)
}

// ParseBlockStrategy maps a CLI/wire grouping name to a BlockStrategy:
// "cascade" (also "") or "window". Unknown names wrap ErrUnsupported.
func ParseBlockStrategy(s string) (BlockStrategy, error) {
	switch s {
	case "", "cascade":
		return BlockCascade, nil
	case "window":
		return BlockWindow, nil
	}
	return 0, fmt.Errorf("hsfsim: unknown block strategy %q (want cascade or window): %w", s, ErrUnsupported)
}

// CostEstimate is the up-front resource projection used by admission
// control; see EstimateCost.
type CostEstimate = hsf.CostEstimate

// DefaultMemoryBudget is the admission ceiling applied when
// Options.MemoryBudget is zero: 16 GiB, the footprint of a 30-qubit dense
// statevector.
const DefaultMemoryBudget = hsf.DefaultMemoryBudget

// Options configures Simulate.
type Options struct {
	// Method selects the algorithm; the zero value is Schrodinger.
	Method Method
	// CutPos places the bipartition for the HSF methods: qubits 0..CutPos
	// form the lower half. Required (≥ 0) for StandardHSF/JointHSF; ignored
	// by Schrodinger.
	CutPos int
	// MaxAmplitudes limits the output to the first M amplitudes (paper
	// Table I computes 10^6). 0 means the full statevector.
	MaxAmplitudes int
	// Workers is the number of HSF path workers (0: GOMAXPROCS). They
	// reserve that many cores for the run; gate kernels and Schrödinger tile
	// passes split over the cores no run has reserved (par.Inner), so a
	// Schrödinger run ignores Workers.
	Workers int
	// BlockStrategy selects the JointHSF grouping; the zero value picks
	// BlockCascade.
	BlockStrategy BlockStrategy
	// MaxBlockQubits caps joint-cut block sizes (0: library default).
	MaxBlockQubits int
	// FusionMaxQubits configures gate fusion (0: default, <0: disabled).
	FusionMaxQubits int
	// Tol is the Schmidt singular-value truncation tolerance (0: default).
	Tol float64
	// Timeout aborts HSF runs after this duration (0: none), as in the
	// paper's 1 h limit for standard HSF.
	Timeout time.Duration
	// MemoryBudget caps the estimated memory footprint in bytes before any
	// statevector is allocated: 0 selects DefaultMemoryBudget (16 GiB),
	// negative disables the check. Over-budget jobs fail with ErrBudget.
	MemoryBudget int64
	// MaxPaths rejects HSF plans whose Feynman path count exceeds it
	// (0: no limit). Over-budget jobs fail with ErrBudget.
	MaxPaths uint64
	// CheckpointWriter, when non-nil, receives a binary checkpoint snapshot
	// if an HSF run stops prematurely (cancellation,
	// timeout, injected fault, worker panic): the completed prefix tasks
	// plus their merged partial accumulator. Ignored by Schrodinger.
	CheckpointWriter io.Writer
	// ResumeFrom, when non-nil, seeds an HSF run from a checkpoint
	// previously written through CheckpointWriter: completed prefix tasks
	// are skipped and the accumulator continues from the snapshot. The
	// checkpoint must match the circuit, cut plan, and MaxAmplitudes
	// (ErrCheckpointMismatch otherwise); the worker count may differ, since
	// every run walks the same prefix-task space.
	ResumeFrom io.Reader
	// FailAfterPaths injects a deterministic fault after roughly that many
	// HSF path leaves (0: disabled) — a testing hook that makes
	// checkpoint/resume recovery reproducible without real crashes.
	FailAfterPaths int64
	// OnCheckpoint, when non-nil, runs after every completed HSF prefix task
	// is merged, with the engine's live checkpoint snapshot. It is invoked
	// under the engine's merge lock, so it must be fast: rate-limit, Clone,
	// and hand the copy to another goroutine instead of writing to disk
	// inline. Job services use it to flush durable mid-run checkpoints so a
	// killed process resumes instead of restarting. Ignored by Schrodinger.
	OnCheckpoint func(*Checkpoint)
	// Telemetry, when non-nil, records run-level measurements — plan and
	// compile spans, per-segment sweep timings, kernel-class attribution,
	// leaf-latency histograms, pool and parallelism statistics — and
	// Result.Report is populated from it. Create one with
	// NewTelemetryRecorder. Telemetry is sampled and aggregated per worker,
	// so enabling it does not perturb the zero-alloc simulation hot path.
	Telemetry *TelemetryRecorder
	// Progress, when non-nil, is wired to the run's live path counter so a
	// caller can render a paths-done/total ticker (see ProgressTracker.Go).
	Progress *ProgressTracker
}

// TelemetryRecorder collects run-level measurements; see Options.Telemetry.
// The same recorder may be shared across runs to aggregate them.
type TelemetryRecorder = telemetry.Recorder

// TelemetryReport is the JSON-serializable summary a recorder assembles;
// see Result.Report.
type TelemetryReport = telemetry.Report

// ProgressTracker publishes live paths-done/total progress; see
// Options.Progress.
type ProgressTracker = telemetry.Tracker

// NewTelemetryRecorder returns a fresh recorder for Options.Telemetry.
func NewTelemetryRecorder() *TelemetryRecorder { return telemetry.New() }

// Result reports the simulated amplitudes and run statistics.
type Result struct {
	// Amplitudes holds the first MaxAmplitudes entries of the statevector.
	Amplitudes []complex128
	// Method echoes the algorithm used.
	Method Method
	// NumPaths is the number of Feynman paths (1 for Schrodinger);
	// saturates at MaxUint64.
	NumPaths uint64
	// Log2Paths is log2(NumPaths) without saturation.
	Log2Paths float64
	// PathsSimulated counts the path leaves actually executed (1 for
	// Schrodinger; for a resumed HSF run it includes leaves inherited from
	// the checkpoint).
	PathsSimulated int64
	// NumCuts, NumBlocks, NumSeparateCuts describe the plan (HSF only).
	NumCuts         int
	NumBlocks       int
	NumSeparateCuts int
	// PreprocessTime covers planning, Schmidt decompositions, and gate
	// fusion; SimTime covers the simulation itself — matching the two-line
	// rows of the paper's Table I.
	PreprocessTime time.Duration
	SimTime        time.Duration
	// Report is the telemetry summary of the run; populated only when
	// Options.Telemetry was set.
	Report *TelemetryReport
}

// TotalTime returns preprocessing plus simulation time.
func (r *Result) TotalTime() time.Duration { return r.PreprocessTime + r.SimTime }

// Simulate runs the circuit with the selected method.
func Simulate(c *Circuit, opts Options) (*Result, error) {
	return SimulateContext(context.Background(), c, opts)
}

// SimulateContext runs the circuit under ctx. Cancellation is cooperative:
// the Schrödinger loop observes it between compiled sweep steps and the HSF
// engines between path-tree segments, so a canceled run stops within one
// bounded unit of work per worker. The error distinguishes the caller going away (context.Canceled /
// context.DeadlineExceeded) from the job exceeding its own Options.Timeout
// (ErrTimeout).
func SimulateContext(ctx context.Context, c *Circuit, opts Options) (*Result, error) {
	cp, err := Compile(c, opts)
	if err != nil {
		return nil, err
	}
	return SimulateCompiledContext(ctx, cp, opts)
}

// CompiledPlan is the reusable, immutable result of Compile: the circuit's
// cut plan (HSF methods) or fused, kernel-compiled gate segment
// (Schrodinger). A CompiledPlan is safe
// for concurrent SimulateCompiledContext calls, so a service can compile a
// hot circuit once and execute many requests — even simultaneously — against
// the same plan, skipping the Schmidt decompositions that dominate
// preprocessing.
type CompiledPlan struct {
	circuit *Circuit
	method  Method
	plan    *cut.Plan // HSF methods
	// Schrodinger: the segment compiled from the product state the peeled
	// leading 1-qubit gates prepare (per qubit, G_k…G_1|0⟩), and the peeled
	// then fused gates (telemetry census).
	seg     *statevec.CompiledSegment
	gates   []gate.Gate
	compile time.Duration
}

// Method echoes the method the plan was compiled for.
func (p *CompiledPlan) Method() Method { return p.method }

// NumQubits returns the register size.
func (p *CompiledPlan) NumQubits() int { return p.circuit.NumQubits }

// NumPaths returns the plan's Feynman path count (1 for Schrodinger),
// saturating at MaxUint64.
func (p *CompiledPlan) NumPaths() uint64 {
	if p.plan == nil {
		return 1
	}
	n, _ := p.plan.NumPaths()
	return n
}

// CutPlan returns the HSF cut plan, or nil for a Schrodinger plan. It is
// shared and must not be mutated; the distributed runtime shards its path
// tree into leases.
func (p *CompiledPlan) CutPlan() *cut.Plan { return p.plan }

// CompileTime reports the wall-clock cost of building this plan (the
// preprocessing line of the paper's Table I); cached executions inherit it
// in Result.PreprocessTime without paying it again.
func (p *CompiledPlan) CompileTime() time.Duration { return p.compile }

// EstimateCost projects the resources one SimulateCompiledContext call with
// opts would need, without allocating. Services use it for admission
// control against a cached plan without rebuilding it.
func (p *CompiledPlan) EstimateCost(opts Options) *CostEstimate {
	if p.plan == nil {
		est := schrodingerCost(p.circuit.NumQubits, opts.MaxAmplitudes, p.seg.TableBytes())
		return &est
	}
	est := hsf.Cost(p.plan, hsf.Options{MaxAmplitudes: opts.MaxAmplitudes, Workers: opts.Workers})
	return &est
}

// Admit is the admission gate of one SimulateCompiledContext call with opts:
// it rejects the run with a *BudgetError before anything is allocated when
// EstimateCost exceeds opts.MemoryBudget or opts.MaxPaths. Schrödinger runs
// and a job service's submission call it; an HSF run applies the same rule
// (hsf.Admit) to the same estimate inside the engine, so a plan rejected here
// is rejected there with an equal *BudgetError.
func (p *CompiledPlan) Admit(opts Options) error {
	return hsf.Admit(*p.EstimateCost(opts), opts.MemoryBudget, opts.MaxPaths)
}

// fingerprintOf computes the plan cache key for (c, opts): the circuit hash
// extended with every plan-affecting option, normalized the same way the
// compilers normalize them. Execution-time options (workers, budgets,
// MaxAmplitudes, checkpointing, telemetry) are deliberately
// excluded — runs that differ only there share a plan.
func fingerprintOf(c *Circuit, opts Options) uint64 {
	cfp := hsf.CircuitFingerprint(c)
	if opts.Method == Schrodinger {
		return hsf.FingerprintOptions(cfp,
			uint64(Schrodinger), uint64(int64(opts.FusionMaxQubits)))
	}
	co := opts.cutOptions()
	// The trailing 0 is the slot of the retired analytic-cascade flag,
	// which was always 0 by default: keeping it keeps every stored key.
	return hsf.FingerprintOptions(cfp,
		uint64(opts.Method), uint64(int64(co.Partition.CutPos)), uint64(co.Strategy),
		uint64(int64(co.MaxBlockQubits)), math.Float64bits(co.Tol), 0)
}

// cutOptions maps the plan-affecting options of an HSF method onto the
// planner's: StandardHSF cuts every crossing gate on its own, JointHSF
// groups them with BlockStrategy (zero: BlockCascade). Compile, the plan
// fingerprint, Analyze and PathCounts all plan through it.
func (o Options) cutOptions() cut.Options {
	strategy := cut.StrategyNone
	if o.Method == JointHSF {
		strategy = o.BlockStrategy
		if strategy == cut.StrategyNone {
			strategy = cut.StrategyCascade
		}
	}
	return cut.Options{
		Partition:      cut.Partition{CutPos: o.CutPos},
		Strategy:       strategy,
		MaxBlockQubits: o.MaxBlockQubits,
		Tol:            o.Tol,
	}
}

// Fingerprint returns the plan cache key for (c, opts) without compiling
// anything: two submissions with equal fingerprints compile to the same plan
// and produce the same amplitudes, so a job service can batch them behind
// one walk. The converse does not hold — equivalent circuits written
// differently may hash apart, which only costs a cache miss.
func Fingerprint(c *Circuit, opts Options) (uint64, error) {
	if c == nil {
		return 0, errors.New("hsfsim: nil circuit")
	}
	switch opts.Method {
	case Schrodinger, StandardHSF, JointHSF:
		return fingerprintOf(c, opts), nil
	default:
		return 0, fmt.Errorf("hsfsim: unknown method %d", opts.Method)
	}
}

// Compile validates the circuit and builds the method's execution plan once:
// the cut plan with its Schmidt decompositions for the HSF methods, or the
// fused and kernel-compiled gate segment for Schrodinger. The plan-affecting
// options (Method, CutPos, BlockStrategy, MaxBlockQubits, Tol;
// FusionMaxQubits for Schrodinger) are baked in;
// execution options are chosen per SimulateCompiledContext call.
func Compile(c *Circuit, opts Options) (*CompiledPlan, error) {
	if c == nil {
		return nil, errors.New("hsfsim: nil circuit")
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("hsfsim: %w", err)
	}
	cp := &CompiledPlan{circuit: c, method: opts.Method}
	start := time.Now()
	switch opts.Method {
	case Schrodinger:
		endCompile := opts.Telemetry.Span("compile")
		prologue, peeled, gates := peelPrologue(c)
		if opts.FusionMaxQubits >= 0 {
			maxQ := opts.FusionMaxQubits
			if maxQ == 0 {
				maxQ = fuse.DefaultMaxQubits
			}
			gates = fuse.Fuse(gates, maxQ)
		}
		// Compile once: every fused k-qubit gate gets its kernel plan here
		// instead of rebuilding (and allocating) it on each application, runs
		// of low-qubit gates become cache-blocked sweeps over the state, runs
		// of diagonal gates phase steps — the first of which writes the
		// product state — and high 1-qubit gates pairs.
		cp.seg = statevec.CompileProduct(prologue, gates)
		cp.gates = append(peeled, gates...)
		endCompile()
	case StandardHSF, JointHSF:
		// The "plan" span covers partitioning, block grouping, and every
		// Schmidt decomposition — the preprocessing line of Table I.
		endPlan := opts.Telemetry.Span("plan")
		plan, err := cut.BuildPlan(c, opts.cutOptions())
		endPlan()
		if err != nil {
			return nil, fmt.Errorf("hsfsim: %w", err)
		}
		cp.plan = plan
	default:
		return nil, fmt.Errorf("hsfsim: unknown method %d", opts.Method)
	}
	cp.compile = time.Since(start)
	return cp, nil
}

// SimulateCompiled executes a compiled plan without external cancellation.
func SimulateCompiled(cp *CompiledPlan, opts Options) (*Result, error) {
	return SimulateCompiledContext(context.Background(), cp, opts)
}

// SimulateCompiledContext executes a compiled plan under ctx with the given
// execution options (workers, budgets, MaxAmplitudes, timeout,
// checkpointing, telemetry); the plan-affecting options were fixed at
// Compile time and are ignored here. The plan is not mutated, so concurrent
// executions of the same CompiledPlan are safe — that is what lets a job
// service batch many requests behind one compile.
func SimulateCompiledContext(ctx context.Context, cp *CompiledPlan, opts Options) (*Result, error) {
	if cp == nil {
		return nil, errors.New("hsfsim: nil compiled plan")
	}
	if cp.method == Schrodinger {
		return cp.runSchrodinger(ctx, opts)
	}
	return cp.runHSF(ctx, opts)
}

// peelPrologue splits off the circuit's product-state prologue: a 1-qubit
// gate on a qubit no multi-qubit gate has touched yet commutes to the front
// of the circuit and folds into that qubit's 2-vector G_k…G_1|0⟩. It returns
// the per-qubit vectors, the peeled gates, and a copy of the remaining gates
// (compilation attaches kernel plans to the gate structs, and the caller's
// circuit is left untouched).
func peelPrologue(c *Circuit) (prologue [][2]complex128, peeled, rest []gate.Gate) {
	prologue = make([][2]complex128, c.NumQubits)
	for q := range prologue {
		prologue[q][0] = 1
	}
	entangled := make([]bool, c.NumQubits)
	rest = make([]gate.Gate, 0, len(c.Gates))
	for i := range c.Gates {
		g := &c.Gates[i]
		if q := g.Qubits[0]; len(g.Qubits) == 1 && !entangled[q] {
			m, v := g.Matrix.Data, prologue[q]
			prologue[q] = [2]complex128{m[0]*v[0] + m[1]*v[1], m[2]*v[0] + m[3]*v[1]}
			peeled = append(peeled, *g)
			continue
		}
		for _, q := range g.Qubits {
			entangled[q] = true
		}
		rest = append(rest, *g)
	}
	return prologue, peeled, rest
}

// schrodingerCost estimates the footprint of a full 2^n simulation returning
// maxAmps amplitudes (0: all): the interleaved result (AccumulatorBytes), the
// SoA planes beside it (StatePairBytes) — only the real one when the run
// returns the whole state, whose imaginary plane is the result's upper half —
// and, with them, the compiled segment's phase tables and sweep scratch
// (PerWorkerBytes).
func schrodingerCost(numQubits, maxAmps int, tableBytes int64) CostEstimate {
	est := CostEstimate{Paths: 1, PathsExact: true, Workers: 1,
		StatePairBytes: math.MaxInt64, PerWorkerBytes: math.MaxInt64, TotalBytes: math.MaxInt64}
	if numQubits < 58 {
		est.StatePairBytes = 8 << numQubits
		est.AccumulatorBytes = 16 << numQubits
		if maxAmps > 0 && maxAmps < 1<<numQubits {
			est.StatePairBytes = 16 << numQubits
			est.AccumulatorBytes = 16 * int64(maxAmps)
		}
		est.PerWorkerBytes = est.StatePairBytes + tableBytes
		est.TotalBytes = est.PerWorkerBytes + est.AccumulatorBytes
	}
	return est
}

func (cp *CompiledPlan) runSchrodinger(ctx context.Context, opts Options) (*Result, error) {
	seg := cp.seg
	if err := cp.Admit(opts); err != nil {
		return nil, err
	}
	if opts.Telemetry != nil {
		opts.Telemetry.AddKernelClasses(kernelClassCensus(cp.gates))
	}

	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, opts.Timeout, ErrTimeout)
		defer cancel()
	}
	opts.Progress.Start(1, 0, nil)
	simStart := time.Now()
	m := 1 << cp.circuit.NumQubits
	if opts.MaxAmplitudes > 0 && opts.MaxAmplitudes < m {
		m = opts.MaxAmplitudes
	}
	// The sweep runs on SoA planes inside the result: a full-state run keeps
	// its imaginary plane in the upper half of amps, and the last step
	// interleaves each finished tile into amps.
	amps := make([]complex128, m)
	s := seg.NewStateIn(amps)
	last := seg.NumSteps() - 1
	for i := 0; i <= last; i++ {
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		default:
		}
		var t0 time.Time
		if opts.Telemetry != nil {
			// The Schrödinger loop runs tens of steps per run, so every
			// step is timed (no sampling needed at this rate).
			t0 = time.Now()
		}
		if i < last {
			seg.ApplyStep(s, i)
		} else {
			seg.ApplyLast(s, amps)
		}
		if opts.Telemetry != nil {
			opts.Telemetry.ObserveSegment(i, time.Since(t0))
		}
	}
	simTime := time.Since(simStart)
	opts.Progress.Add(1)
	opts.Telemetry.FinishRun(telemetry.RunTotals{
		TotalPaths: 1, Simulated: 1, Workers: 1,
		Gomaxprocs: runtime.GOMAXPROCS(0), Elapsed: simTime,
	})
	return &Result{
		Amplitudes:     amps,
		Method:         Schrodinger,
		NumPaths:       1,
		PathsSimulated: 1,
		PreprocessTime: cp.compile,
		SimTime:        simTime,
		Report:         reportWithISA(opts.Telemetry.Report()),
	}, nil
}

// reportWithISA stamps the active kernel arm onto a run report so artifacts
// record which vector bodies produced them. Nil-safe: telemetry may be off.
func reportWithISA(rep *telemetry.Report) *telemetry.Report {
	if rep != nil {
		rep.KernelISA = statevec.KernelISA()
	}
	return rep
}

// kernelClassCensus tallies the kernel classes of a gate list for direct
// telemetry attribution (the Schrödinger path applies each gate once).
func kernelClassCensus(gates []gate.Gate) (names []string, counts []int64) {
	numKinds := int(gate.KindControlled) + 1
	names = make([]string, numKinds)
	counts = make([]int64, numKinds)
	for k := range names {
		names[k] = gate.Kind(k).String()
	}
	for i := range gates {
		counts[gates[i].Class()]++
	}
	return names, counts
}

func (cp *CompiledPlan) runHSF(ctx context.Context, opts Options) (*Result, error) {
	plan := cp.plan
	engineOpts := hsf.Options{
		MaxAmplitudes:    opts.MaxAmplitudes,
		Workers:          opts.Workers,
		FusionMaxQubits:  opts.FusionMaxQubits,
		Timeout:          opts.Timeout,
		MemoryBudget:     opts.MemoryBudget,
		MaxPaths:         opts.MaxPaths,
		CheckpointWriter: opts.CheckpointWriter,
		FailAfterPaths:   opts.FailAfterPaths,
		OnCheckpoint:     opts.OnCheckpoint,
		Telemetry:        opts.Telemetry,
		Progress:         opts.Progress,
	}
	if opts.ResumeFrom != nil {
		ck, err := hsf.ReadCheckpoint(opts.ResumeFrom)
		if err != nil {
			return nil, err
		}
		engineOpts.Resume = ck
	}
	res, err := hsf.RunContext(ctx, plan, engineOpts)
	if err != nil {
		return nil, err
	}
	return &Result{
		Amplitudes:      res.Amplitudes,
		Method:          cp.method,
		NumPaths:        res.NumPaths,
		Log2Paths:       res.Log2Paths,
		PathsSimulated:  res.PathsSimulated,
		NumCuts:         len(plan.Cuts),
		NumBlocks:       plan.NumBlocks(),
		NumSeparateCuts: plan.NumSeparateCuts(),
		PreprocessTime:  cp.compile,
		SimTime:         res.Elapsed,
		Report:          reportWithISA(opts.Telemetry.Report()),
	}, nil
}

// PlanSummary re-exports the serializable cut-plan description.
type PlanSummary = cut.Summary

// Analyze builds the joint-cut plan for the circuit without simulating and
// returns its summary: path counts, blocks, per-cut ranks. Use it to decide
// whether an instance is HSF-friendly before committing to a run.
func Analyze(c *Circuit, cutPos int, strategy BlockStrategy, maxBlockQubits int) (*PlanSummary, error) {
	opts := Options{Method: JointHSF, CutPos: cutPos, BlockStrategy: strategy, MaxBlockQubits: maxBlockQubits}
	plan, err := cut.BuildPlan(c, opts.cutOptions())
	if err != nil {
		return nil, fmt.Errorf("hsfsim: %w", err)
	}
	s := plan.Summarize()
	return &s, nil
}

// PathCounts reports, without simulating, the path counts of standard and
// joint cutting for the circuit and cut position — the quantity plotted in
// the paper's Fig. 3b.
func PathCounts(c *Circuit, cutPos int, strategy BlockStrategy, maxBlockQubits int) (standard, joint uint64, err error) {
	std, err := cut.BuildPlan(c, Options{Method: StandardHSF, CutPos: cutPos}.cutOptions())
	if err != nil {
		return 0, 0, err
	}
	opts := Options{Method: JointHSF, CutPos: cutPos, BlockStrategy: strategy, MaxBlockQubits: maxBlockQubits}
	jnt, err := cut.BuildPlan(c, opts.cutOptions())
	if err != nil {
		return 0, 0, err
	}
	standard, _ = std.NumPaths()
	joint, _ = jnt.NumPaths()
	return standard, joint, nil
}

// EstimateCost projects, without allocating or simulating, the resources a
// Simulate call would need: Feynman path count and an upper bound on the
// memory footprint (partition statevectors × workers, clone chain, and
// accumulators). It is the estimator behind the Options.MemoryBudget /
// Options.MaxPaths admission gate; services can call it to reject or price
// jobs before committing to a run.
func EstimateCost(c *Circuit, opts Options) (*CostEstimate, error) {
	opts.Telemetry = nil
	cp, err := Compile(c, opts)
	if err != nil {
		return nil, err
	}
	return cp.EstimateCost(opts), nil
}

// Circuit re-exports the circuit IR so users never import internal packages.
type Circuit = circuit.Circuit

// Gate re-exports the gate type.
type Gate = gate.Gate

// NewCircuit returns an empty circuit on n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }
