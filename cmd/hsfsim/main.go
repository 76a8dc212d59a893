// Command hsfsim simulates an OpenQASM 2.0 circuit with any of the three
// methods and prints amplitudes plus run statistics:
//
//	hsfsim -method joint -cut 7 -amplitudes 16 circuit.qasm
//	hsfsim -method schrodinger circuit.qasm
//	hsfsim -method standard -cut 7 -timeout 1h circuit.qasm
//	hsfsim -method schrodinger -backend dd circuit.qasm
//	hsfsim -method joint -cut 7 -progress 1s -report run.json circuit.qasm
//
// Interrupting a run (Ctrl-C / SIGTERM) cancels it cooperatively. With
// -checkpoint FILE, an HSF run keeps FILE durable while it runs: the merged
// state of its completed prefix tasks is flushed there every few seconds,
// the final state lands there if the run stops early, and FILE is removed
// when the run completes. A later -resume FILE picks up from the newest
// snapshot, so even a coordinator killed outright loses at most one flush
// interval of work.
//
// With -distribute, the HSF prefix-task space is sharded across hsfsimd
// worker daemons instead of local goroutines:
//
//	hsfsim -method joint -cut 7 -distribute host1:8081,host2:8081 circuit.qasm
//
// The same -checkpoint/-resume flags apply, and the file is the same: a
// checkpoint from a local run resumes on a fleet and the other way round,
// and -resume on a fresh fleet is the coordinator handover.
//
// The submit/status/watch/result/cancel/jobs subcommands run circuits as
// asynchronous jobs on a hsfsimd daemon instead of simulating locally; see
// jobs.go.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/cmplx"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"hsfsim"
	"hsfsim/internal/dd"
	"hsfsim/internal/dist"
	"hsfsim/internal/hsf"
	"hsfsim/internal/qasm"
	"hsfsim/internal/telemetry/trace"
)

// -trace wiring: one process-wide flight recorder plus a root span that
// every engine/coordinator span parents under. Nil when -trace is unset,
// which makes every hook below a no-op.
var (
	traceRec  *trace.Recorder
	traceRoot trace.Span
)

// withTrace attaches the recorder and root span to a run context so the
// engine (and, distributed, the coordinator) record into the flight
// recorder.
func withTrace(ctx context.Context) context.Context {
	if traceRec == nil {
		return ctx
	}
	return trace.NewContext(ctx, traceRec, traceRoot.Context())
}

// writeTrace ends the root span and dumps the recorder as Chrome
// trace-event JSON, loadable in chrome://tracing.
func writeTrace(path string) {
	if traceRec == nil {
		return
	}
	traceRoot.End()
	f, err := os.Create(path)
	fail(err)
	err = trace.WriteChromeTrace(f, traceRec.Snapshot())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	fail(err)
	fmt.Fprintf(os.Stderr, "hsfsim: trace written to %s\n", path)
}

func main() {
	// Job subcommands talk to a running hsfsimd instead of simulating
	// locally; they parse their own flags (see jobs.go).
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "submit", "status", "watch", "result", "cancel", "jobs":
			jobsCLI(os.Args[1], os.Args[2:])
			return
		}
	}
	var (
		method    = flag.String("method", "joint", "schrodinger | standard | joint")
		cutPos    = flag.Int("cut", -1, "cut position (last lower-partition qubit); default n/2-1")
		amps      = flag.Int("amplitudes", 16, "number of amplitudes to print (0: all)")
		maxAmps   = flag.Int("max-amplitudes", 0, "number of amplitudes to compute (0: all)")
		workers   = flag.Int("workers", 0, "HSF path workers (0: GOMAXPROCS); a Schrödinger run ignores it, its kernels use every core no run reserves")
		timeout   = flag.Duration("timeout", 0, "abort after this duration (0: none)")
		strategy  = flag.String("blocks", "cascade", "joint grouping: cascade | window")
		maxBlock  = flag.Int("max-block-qubits", 0, "joint block qubit budget (0: default)")
		quiet     = flag.Bool("quiet", false, "print statistics only, no amplitudes")
		backend   = flag.String("backend", "dense", "Schrödinger state representation: dense | dd (the decision-diagram oracle; HSF methods run dense)")
		memBudget = flag.Int64("memory-budget", 0, "admission memory budget in bytes (0: 16 GiB default, <0: unlimited)")
		maxPaths  = flag.Uint64("max-paths", 0, "reject plans with more Feynman paths than this (0: unlimited)")
		ckptPath  = flag.String("checkpoint", "", "keep a resume checkpoint here while the HSF run lasts (removed on success)")
		resume    = flag.String("resume", "", "resume an HSF run from this checkpoint file")
		distrib   = flag.String("distribute", "", "comma-separated hsfsimd worker addresses; shard the HSF run across them")
		fusion    = flag.Int("fusion", 0, "max fused gate qubits (0: default, <0: disable fusion and run per-gate structure kernels)")
		report    = flag.String("report", "", "write a JSON telemetry report (spans, counters, histograms) here after the run")
		progress  = flag.Duration("progress", 0, "print a live progress line to stderr at this interval (0: off)")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON dump (load in chrome://tracing) here after the run")
	)
	flag.Parse()
	m, err := hsfsim.ParseMethod(*method)
	fail(err)
	useDD, err := parseBackend(*backend, m)
	fail(err)
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hsfsim [flags] circuit.qasm")
		flag.PrintDefaults()
		os.Exit(2)
	}

	src, err := os.ReadFile(flag.Arg(0))
	fail(err)
	c, err := qasm.Parse(strings.NewReader(string(src)))
	fail(err)

	opts := hsfsim.Options{
		MaxAmplitudes:   *maxAmps,
		Workers:         *workers,
		Timeout:         *timeout,
		MaxBlockQubits:  *maxBlock,
		MemoryBudget:    *memBudget,
		MaxPaths:        *maxPaths,
		FusionMaxQubits: *fusion,
	}
	opts.Method = m
	opts.BlockStrategy, err = hsfsim.ParseBlockStrategy(*strategy)
	fail(err)
	if opts.Method != hsfsim.Schrodinger {
		if c.NumQubits < 2 {
			fail(fmt.Errorf("HSF methods need at least 2 qubits to bipartition (circuit has %d); use -method schrodinger", c.NumQubits))
		}
		opts.CutPos = *cutPos
		if opts.CutPos < 0 {
			opts.CutPos = c.NumQubits/2 - 1
		}
		if opts.CutPos > c.NumQubits-2 {
			fail(fmt.Errorf("cut position %d out of range [0, %d] for %d qubits", opts.CutPos, c.NumQubits-2, c.NumQubits))
		}
	}

	// Telemetry is opt-in: -report attaches a recorder, -progress a live
	// ticker. Both ride hsfsim.Options, so local and distributed runs share
	// the wiring.
	var rec *hsfsim.TelemetryRecorder
	if *report != "" {
		rec = hsfsim.NewTelemetryRecorder()
		opts.Telemetry = rec
	}
	stopProgress := func() {}
	if *progress > 0 {
		opts.Progress = new(hsfsim.ProgressTracker)
		stopProgress = opts.Progress.Go(os.Stderr, *progress) // idempotent
		defer stopProgress()
	}
	if *tracePath != "" {
		traceRec = trace.NewRecorder(0)
		traceRoot = traceRec.Start(trace.SpanContext{}, "hsfsim")
	}

	// Checkpoint and resume ride opts, so local and distributed runs share
	// them, as they share telemetry and progress.
	ckpt := startCheckpoint(*ckptPath, checkpointFlushInterval, &opts)
	if *resume != "" {
		rf, err := os.Open(*resume)
		fail(err)
		defer rf.Close()
		opts.ResumeFrom = rf
	}

	// Ctrl-C / SIGTERM cancel the simulation cooperatively.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = withTrace(ctx)

	if *distrib != "" {
		// Simulate applies opts.Timeout itself.
		res, fleet, err := newFleet(*distrib).Simulate(ctx, string(src), opts)
		fail(ckpt.finish(err))
		stopProgress()
		writeReport(*report, rec)
		writeTrace(*tracePath)
		fmt.Printf("method:          %v (distributed)\n", opts.Method)
		fmt.Printf("qubits:          %d\n", c.NumQubits)
		fmt.Printf("gates:           %d (%d two-qubit)\n", len(c.Gates), c.NumTwoQubitGates())
		fmt.Printf("cut position:    %d\n", opts.CutPos)
		fmt.Printf("cuts:            %d (%d blocks + %d separate)\n", fleet.NumCuts, fleet.NumBlocks, fleet.NumSeparateCuts)
		fmt.Printf("paths:           2^%.1f (%d)\n", fleet.Log2Paths, fleet.NumPaths)
		fmt.Printf("workers:         %d (%d batches over %d split levels, %d reassignments)\n",
			fleet.Workers, fleet.Batches, fleet.SplitLevels, fleet.Reassignments)
		fmt.Printf("simulation:      %v\n", res.SimTime)
		if !*quiet {
			printAmplitudes(fleet.Amplitudes, *amps, c.NumQubits)
		}
		return
	}

	var res *hsfsim.Result
	if useDD {
		res, err = simulateDD(ctx, c, *maxAmps, *timeout)
	} else {
		res, err = hsfsim.SimulateContext(ctx, c, opts)
	}
	fail(ckpt.finish(err))
	stopProgress()
	writeReport(*report, rec)
	writeTrace(*tracePath)
	if useDD {
		fmt.Printf("backend:         dd\n")
	}

	fmt.Printf("method:          %v\n", res.Method)
	fmt.Printf("qubits:          %d\n", c.NumQubits)
	fmt.Printf("gates:           %d (%d two-qubit)\n", len(c.Gates), c.NumTwoQubitGates())
	if res.Method != hsfsim.Schrodinger {
		fmt.Printf("cut position:    %d\n", opts.CutPos)
		fmt.Printf("cuts:            %d (%d blocks + %d separate)\n", res.NumCuts, res.NumBlocks, res.NumSeparateCuts)
		fmt.Printf("paths:           2^%.1f (%d)\n", res.Log2Paths, res.NumPaths)
	}
	fmt.Printf("preprocessing:   %v\n", res.PreprocessTime)
	fmt.Printf("simulation:      %v\n", res.SimTime)
	if !*quiet {
		printAmplitudes(res.Amplitudes, *amps, c.NumQubits)
	}
}

// writeReport serializes the recorder's telemetry report to path as indented
// JSON; the report reconciles with the printed run statistics (paths, spans,
// kernel classes, latency histograms).
func writeReport(path string, rec *hsfsim.TelemetryRecorder) {
	if path == "" || rec == nil {
		return
	}
	data, err := json.MarshalIndent(rec.Report(), "", "  ")
	fail(err)
	fail(os.WriteFile(path, append(data, '\n'), 0o644))
}

// checkpointFlushInterval is how often a -checkpoint file is refreshed
// while the run lasts.
const checkpointFlushInterval = 5 * time.Second

// runCheckpoint is -checkpoint FILE, one durable file for local and
// distributed runs alike. While the run lasts, an hsf.Flusher refreshes FILE
// from Options.OnCheckpoint at most once per interval; a run that stops
// early also leaves its final state there; a run that completes removes it.
// Every write goes tmp → fsync → rename (hsf.WriteFileAtomic), so FILE is
// absent or a complete snapshot, never empty or torn.
type runCheckpoint struct {
	path    string
	flusher *hsf.Flusher
	final   bytes.Buffer // the run's CheckpointWriter: its state if it stops early
	saved   atomic.Bool  // a complete snapshot has been renamed into place
}

// startCheckpoint wires path (if set) into opts' OnCheckpoint and
// CheckpointWriter. The nil runCheckpoint, for an empty path, does nothing.
func startCheckpoint(path string, interval time.Duration, opts *hsfsim.Options) *runCheckpoint {
	if path == "" {
		return nil
	}
	rc := &runCheckpoint{path: path}
	rc.flusher = hsf.NewFlusher(interval, func(ck *hsf.Checkpoint) {
		if err := hsf.SaveCheckpointFile(path, ck); err != nil {
			fmt.Fprintf(os.Stderr, "hsfsim: flushing checkpoint to %s: %v\n", path, err)
			return
		}
		rc.saved.Store(true)
	})
	opts.OnCheckpoint = rc.flusher.Hook
	opts.CheckpointWriter = &rc.final
	return rc
}

// finish ends checkpointing for a run that returned err and passes err on.
// The flusher stops first, so no older snapshot lands after the final
// state. A completed run removes the file; a failed one says where its
// checkpoint is, but only when one has been written.
func (rc *runCheckpoint) finish(err error) error {
	if rc == nil {
		return err
	}
	rc.flusher.Stop()
	if err == nil {
		os.Remove(rc.path)
		return nil
	}
	if rc.final.Len() > 0 {
		if werr := hsf.WriteFileAtomic(rc.path, rc.final.Bytes()); werr != nil {
			return errors.Join(err, fmt.Errorf("writing checkpoint: %w", werr))
		}
		rc.saved.Store(true)
	}
	if rc.saved.Load() {
		fmt.Fprintf(os.Stderr, "hsfsim: checkpoint written to %s (resume with -resume)\n", rc.path)
	}
	return err
}

// newFleet returns a coordinator over the comma-separated hsfsimd worker
// addresses.
func newFleet(workersCSV string) *dist.Coordinator {
	co, err := dist.New(dist.Config{
		Transport: &dist.HTTPTransport{},
		Logger:    log.New(os.Stderr, "hsfsim dist ", log.LstdFlags),
	})
	fail(err)
	for _, a := range strings.Split(workersCSV, ",") {
		if a = strings.TrimSpace(a); a != "" {
			co.AddWorker(a)
		}
	}
	return co
}

// printAmplitudes prints the first n amplitudes (n ≤ 0: all) with their
// probabilities.
func printAmplitudes(amps []complex128, n, numQubits int) {
	if n <= 0 || n > len(amps) {
		n = len(amps)
	}
	fmt.Println("amplitudes:")
	for i, a := range amps[:n] {
		fmt.Printf("  |%0*b>  % .6f%+.6fi   p=%.6f\n", numQubits, i, real(a), imag(a), cmplx.Abs(a)*cmplx.Abs(a))
	}
}

// parseBackend checks -backend against the method and reports whether the
// run goes to the decision-diagram oracle. Only a Schrödinger run has a
// choice: the HSF methods run the dense walker.
func parseBackend(name string, method hsfsim.Method) (useDD bool, err error) {
	switch name {
	case "dense":
		return false, nil
	case "dd":
		if method != hsfsim.Schrodinger {
			return false, errors.New("-backend dd is the whole-circuit decision-diagram oracle: use it with -method schrodinger (HSF methods run dense)")
		}
		return true, nil
	}
	return false, fmt.Errorf("-backend %q: want dense or dd", name)
}

// simulateDD runs Schrödinger simulation on the decision-diagram
// representation and adapts the output to hsfsim.Result. It checks ctx
// between gates: a cancellation returns context.Canceled, and running past
// timeout (0: none) returns hsfsim.ErrTimeout, as the dense path does.
func simulateDD(ctx context.Context, c *hsfsim.Circuit, maxAmps int, timeout time.Duration) (*hsfsim.Result, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, timeout, hsfsim.ErrTimeout)
		defer cancel()
	}
	m := maxAmps
	if m <= 0 || m > 1<<c.NumQubits {
		m = 1 << c.NumQubits
	}
	start := time.Now()
	d := dd.New(c.NumQubits, 0)
	for i := range c.Gates {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		if err := d.ApplyGate(&c.Gates[i]); err != nil {
			return nil, fmt.Errorf("dd: gate %d: %w", i, err)
		}
	}
	amps := make([]complex128, m)
	for x := range amps {
		amps[x] = d.Amplitude(uint64(x))
	}
	fmt.Printf("dd nodes:        %d\n", d.NumNodes())
	return &hsfsim.Result{
		Amplitudes: amps,
		Method:     hsfsim.Schrodinger,
		NumPaths:   1,
		SimTime:    time.Since(start),
	}, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsfsim:", err)
		os.Exit(1)
	}
}
