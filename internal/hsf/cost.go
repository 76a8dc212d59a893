package hsf

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"hsfsim/internal/cut"
)

// DefaultMemoryBudget is the admission-control ceiling applied when
// Options.MemoryBudget is zero: 16 GiB, the footprint of a 30-qubit dense
// statevector — matching the simulator's historical hard qubit cap.
const DefaultMemoryBudget int64 = 16 << 30

// ErrBudget is the sentinel matched by errors.Is for admission-control
// rejections. The concrete error is always a *BudgetError carrying the
// estimate that triggered the rejection.
var ErrBudget = errors.New("hsf: job exceeds resource budget")

// BudgetError reports an admission-control rejection: the job's estimated
// cost exceeded Options.MemoryBudget or Options.MaxPaths. It is returned
// before any statevector is allocated.
type BudgetError struct {
	// Estimate is the cost model's projection for the rejected job.
	Estimate CostEstimate
	// MemoryBudget and MaxPaths echo the limits that were enforced
	// (zero for the one that did not trigger).
	MemoryBudget int64
	MaxPaths     uint64
	// Reason is a human-readable one-liner ("memory" or "paths" driven).
	Reason string
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("hsf: job exceeds resource budget: %s", e.Reason)
}

// Unwrap makes errors.Is(err, ErrBudget) hold for every BudgetError.
func (e *BudgetError) Unwrap() error { return ErrBudget }

// CostEstimate is the up-front resource projection for executing a plan.
// All byte figures are upper bounds: the engine clones partition states
// lazily (only when more than one Schmidt term remains), so the live
// footprint is usually smaller.
type CostEstimate struct {
	// Paths is the total Feynman path count (saturates at MaxUint64 when
	// PathsExact is false); Log2Paths is exact in log space.
	Paths      uint64
	PathsExact bool
	Log2Paths  float64
	// Workers is the resolved worker count used for the projection.
	Workers int
	// StatePairBytes is one (lower, upper) partition statevector pair.
	StatePairBytes int64
	// PerWorkerBytes bounds one worker's footprint: the clone chain of
	// partition state pairs down the remaining path tree, the private
	// accumulator scratch and the leaf batch.
	PerWorkerBytes int64
	// AccumulatorBytes is the shared output accumulator.
	AccumulatorBytes int64
	// TotalBytes = Workers*PerWorkerBytes + AccumulatorBytes.
	TotalBytes int64
}

const bytesPerAmp = 16 // complex128

// resolveAmplitudes returns the effective accumulator length for a plan.
func resolveAmplitudes(plan *cut.Plan, maxAmplitudes int) int {
	dim := 1 << plan.NumQubits
	if maxAmplitudes <= 0 || maxAmplitudes > dim {
		return dim
	}
	return maxAmplitudes
}

// resolveWorkers returns the effective worker count.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// mulSat multiplies non-negative int64s, saturating at MaxInt64.
func mulSat(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

func addSat(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// Cost projects the resources required to execute plan under opts, without
// allocating anything. The memory model mirrors the engine: each worker
// holds its root pair, at most one partition state pair per cut level (the
// clone chain of the walk), an m-amplitude scratch accumulator and its leaf
// batch; a single m-amplitude global accumulator is shared. Below a diagonal
// tail the chain's lower halves are proxies, and the worker also holds the
// open node's proxy and its row table; Cost decides the tail at the split
// depth a run of opts expands.
func Cost(plan *cut.Plan, opts Options) CostEstimate {
	workers := resolveWorkers(opts.Workers)
	m := resolveAmplitudes(plan, opts.MaxAmplitudes)
	return estimate(plan, workers, analyze(plan, m, runSplit(plan, opts.Resume, workers)))
}

// estimate is Cost on workers from the engine's analysis a of the run.
func estimate(plan *cut.Plan, workers int, a *analysis) CostEstimate {
	nLower := plan.Partition.NumLower()
	nUpper := plan.Partition.NumUpper(plan.NumQubits)
	m, c, tl := a.m, &a.cone, &a.tail

	amps := func(n int) int64 { return mulSat(bytesPerAmp, int64(1)<<uint(max(n, 0))) }
	halves := func(lo, up int) int64 { return addSat(amps(lo), amps(up)) }
	pair := halves(nLower, nUpper)
	accBytes := mulSat(bytesPerAmp, int64(m))
	// Clone chain: the root is taken at full size and shrinks in place. Every
	// other pair is forked at its parent's size after a segment — the prefix
	// task's from the root after segment 0, a branch's at cut l after
	// segment l — and keeps that buffer while the cone shrinks it further.
	// From the tail level down a branch forks a proxy in place of the lower
	// half, and the open node holds one more proxy beside the lower half its
	// pair came with.
	after := func(l int) int64 { return halves(c.qubits(cut.Lower, 2*l), c.qubits(cut.Upper, 2*l)) }
	chain := addSat(pair, after(0))
	for l := range plan.Cuts {
		if tl.level >= 0 && l >= tl.level {
			chain = addSat(chain, addSat(tl.proxyBytes(), amps(c.qubits(cut.Upper, 2*l))))
		} else {
			chain = addSat(chain, after(l))
		}
	}
	chain = addSat(chain, tl.proxyBytes())
	perWorker := addSat(chain, accBytes) // scratch accumulator per worker
	// Leaf batch: the last held leaf's lower half (or proxy) is still the
	// chain's, the other K-1 are extra, and the weight table has K rows.
	// A tail's row table has 2^|Q| amplitudes per row.
	rows := int64(leafRows(m, max(nLower, 0)))
	held := amps(nLower)
	if tl.level >= 0 {
		held = tl.proxyBytes()
		perWorker = addSat(perWorker, mulSat(rows, tl.proxyBytes()))
	}
	batch := addSat(mulSat(held, leafBatchK-1), mulSat(bytesPerAmp, leafBatchK*rows))
	perWorker = addSat(perWorker, batch)

	paths, exact := plan.NumPaths()
	return CostEstimate{
		Paths:            paths,
		PathsExact:       exact,
		Log2Paths:        plan.Log2Paths(),
		Workers:          workers,
		StatePairBytes:   pair,
		PerWorkerBytes:   perWorker,
		AccumulatorBytes: accBytes,
		TotalBytes:       addSat(mulSat(perWorker, int64(workers)), accBytes),
	}
}

// runSplit returns the split depth a run of plan on workers expands: the
// resumed checkpoint's, or ChooseSplitLevels' for four tasks per worker.
func runSplit(plan *cut.Plan, resume *Checkpoint, workers int) int {
	if resume != nil && resume.SplitLevels >= 0 && resume.SplitLevels <= len(plan.Cuts) {
		return resume.SplitLevels
	}
	return ChooseSplitLevels(plan, 4*workers)
}

// Admit is the admission-control gate every run passes before anything is
// allocated: a zero memoryBudget selects DefaultMemoryBudget, a negative one
// disables the memory check, and a zero maxPaths disables the path check. It
// returns a *BudgetError carrying est on rejection.
func Admit(est CostEstimate, memoryBudget int64, maxPaths uint64) error {
	if memoryBudget == 0 {
		memoryBudget = DefaultMemoryBudget
	}
	if memoryBudget > 0 && est.TotalBytes > memoryBudget {
		return &BudgetError{
			Estimate:     est,
			MemoryBudget: memoryBudget,
			Reason: fmt.Sprintf("estimated %s exceeds memory budget %s",
				fmtBytes(est.TotalBytes), fmtBytes(memoryBudget)),
		}
	}
	if maxPaths > 0 && (!est.PathsExact || est.Paths > maxPaths) {
		return &BudgetError{
			Estimate: est,
			MaxPaths: maxPaths,
			Reason: fmt.Sprintf("2^%.1f paths exceed the path budget %d",
				est.Log2Paths, maxPaths),
		}
	}
	return nil
}

func fmtBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}
