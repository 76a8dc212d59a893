// Command hsfsim simulates an OpenQASM 2.0 circuit with any of the three
// methods and prints amplitudes plus run statistics:
//
//	hsfsim -method joint -cut 7 -amplitudes 16 circuit.qasm
//	hsfsim -method schrodinger circuit.qasm
//	hsfsim -method standard -cut 7 -timeout 1h circuit.qasm
//	hsfsim -method schrodinger -backend dd circuit.qasm
//	hsfsim -method joint -cut 7 -progress 1s -report run.json circuit.qasm
//
// Interrupting a run (Ctrl-C / SIGTERM) cancels it cooperatively; with
// -checkpoint set, an interrupted or failed HSF run snapshots its completed
// prefix tasks so a later -resume run picks up where it left off.
//
// With -distribute, the HSF prefix-task space is sharded across hsfsimd
// worker daemons instead of local goroutines:
//
//	hsfsim -method joint -cut 7 -distribute host1:8081,host2:8081 circuit.qasm
//
// The same -checkpoint/-resume flags apply: a run that fails mid-way (all
// workers lost, Ctrl-C) snapshots the merged partial state for a later
// -distribute or local -resume.
//
// The submit/status/watch/result/cancel/jobs subcommands run circuits as
// asynchronous jobs on a hsfsimd daemon instead of simulating locally; see
// jobs.go.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/cmplx"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hsfsim"
	"hsfsim/internal/dd"
	"hsfsim/internal/dist"
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
		workers   = flag.Int("workers", 0, "worker goroutines (0: all CPUs)")
		timeout   = flag.Duration("timeout", 0, "abort after this duration (0: none)")
		strategy  = flag.String("blocks", "cascade", "joint grouping: cascade | window")
		maxBlock  = flag.Int("max-block-qubits", 0, "joint block qubit budget (0: default)")
		quiet     = flag.Bool("quiet", false, "print statistics only, no amplitudes")
		backend   = flag.String("backend", "dense", "Schrödinger state representation: dense | dd (the decision-diagram oracle; HSF methods run dense)")
		memBudget = flag.Int64("memory-budget", 0, "admission memory budget in bytes (0: 16 GiB default, <0: unlimited)")
		maxPaths  = flag.Uint64("max-paths", 0, "reject plans with more Feynman paths than this (0: unlimited)")
		ckptPath  = flag.String("checkpoint", "", "write a resume checkpoint here if the run is interrupted")
		resume    = flag.String("resume", "", "resume an HSF run from this checkpoint file")
		distrib   = flag.String("distribute", "", "comma-separated hsfsimd worker addresses; shard the HSF run across them")
		storeDir  = flag.String("store", "", "durable checkpoint directory for distributed runs (enables takeover)")
		runID     = flag.String("run-id", "", "run identifier inside -store (default: derived from the plan)")
		takeover  = flag.Bool("takeover", false, "resume the -run-id run from -store on a fresh coordinator (no circuit file needed)")
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
	if *takeover {
		// The job definition lives in the store's manifest; a circuit file on
		// the command line would be ignored, so reject the ambiguity.
		switch {
		case *storeDir == "" || *runID == "":
			fail(fmt.Errorf("-takeover needs -store and -run-id"))
		case *distrib == "":
			fail(fmt.Errorf("-takeover needs -distribute (the fresh worker fleet)"))
		case flag.NArg() != 0:
			fail(fmt.Errorf("-takeover reads the circuit from the store manifest; drop the circuit argument"))
		}
		runTakeover(*storeDir, *runID, *distrib, *timeout, *ckptPath, *amps, *quiet)
		return
	}
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

	if *distrib != "" {
		runDistributed(string(src), c, &opts, *distrib, *ckptPath, *resume, *storeDir, *runID, *amps, *quiet)
		writeReport(*report, rec)
		writeTrace(*tracePath)
		return
	}

	// An interrupted HSF run can snapshot its completed prefix tasks.
	var ckptFile *os.File
	if *ckptPath != "" {
		ckptFile, err = os.Create(*ckptPath)
		fail(err)
		opts.CheckpointWriter = ckptFile
	}
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

	var res *hsfsim.Result
	if useDD {
		res, err = simulateDD(ctx, c, *maxAmps, *timeout)
	} else {
		res, err = hsfsim.SimulateContext(ctx, c, opts)
	}
	if ckptFile != nil {
		if cerr := ckptFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err == nil {
			// The run completed; the empty checkpoint file is useless.
			os.Remove(*ckptPath)
		} else if errors.Is(err, context.Canceled) || errors.Is(err, hsfsim.ErrTimeout) {
			fmt.Fprintf(os.Stderr, "hsfsim: interrupted; checkpoint written to %s (resume with -resume)\n", *ckptPath)
		}
	}
	fail(err)
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

// runDistributed drives the job as a coordinator over hsfsimd workers: the
// prefix-task space is sharded into leased batches, failed workers have
// their leases reassigned, and the merged amplitudes print exactly like a
// local run.
func runDistributed(src string, c *hsfsim.Circuit, opts *hsfsim.Options, workersCSV, ckptPath, resumePath, storeDir, runID string, ampsN int, quiet bool) {
	var ropts dist.RunOptions
	if storeDir != "" {
		// Durable checkpoints: a later hsfsim -takeover -store ... -run-id ...
		// resumes this run even if this coordinator process dies.
		st, err := dist.NewDirStore(storeDir)
		fail(err)
		ropts.Store = st
		ropts.RunID = runID
	}
	// Checkpoint, resume, telemetry and progress ride opts exactly as in a
	// local run; the coordinator fills the lease timeline and advances
	// progress as batches merge.
	if resumePath != "" {
		rf, err := os.Open(resumePath)
		fail(err)
		defer rf.Close()
		opts.ResumeFrom = rf
	}
	// No fleet timeout here: Simulate applies opts.Timeout itself.
	res, elapsed := runOnFleet(workersCSV, 0, ckptPath, func(ctx context.Context, co *dist.Coordinator, ckpt io.Writer) (*dist.Result, error) {
		o := *opts
		o.CheckpointWriter = ckpt
		_, res, err := co.Simulate(ctx, src, o, ropts)
		return res, err
	})
	fmt.Printf("method:          %v (distributed)\n", opts.Method)
	fmt.Printf("qubits:          %d\n", c.NumQubits)
	fmt.Printf("gates:           %d (%d two-qubit)\n", len(c.Gates), c.NumTwoQubitGates())
	fmt.Printf("cut position:    %d\n", opts.CutPos)
	printFleetRun(res, c.NumQubits, elapsed, ampsN, quiet)
}

// runTakeover resumes a durable distributed run on a fresh coordinator: the
// job and latest checkpoint are loaded from the store, already-merged prefix
// tasks are skipped, and the remainder is sharded across the given fleet.
func runTakeover(storeDir, runID, workersCSV string, timeout time.Duration, ckptPath string, ampsN int, quiet bool) {
	store, err := dist.NewDirStore(storeDir)
	fail(err)
	m, err := store.LoadManifest(runID)
	fail(err)
	c, err := qasm.Parse(strings.NewReader(m.Job.QASM))
	fail(err)
	res, elapsed := runOnFleet(workersCSV, timeout, ckptPath, func(ctx context.Context, co *dist.Coordinator, ckpt io.Writer) (*dist.Result, error) {
		return co.Takeover(ctx, store, runID, dist.RunOptions{CheckpointWriter: ckpt})
	})
	fmt.Printf("method:          %s-hsf (takeover of run %s)\n", m.Job.Method, runID)
	fmt.Printf("qubits:          %d\n", c.NumQubits)
	printFleetRun(res, c.NumQubits, elapsed, ampsN, quiet)
}

// runOnFleet runs one distributed run on a coordinator over the
// comma-separated worker addresses, canceled by Ctrl-C or SIGTERM, after
// timeout (0: never) with ErrTimeout, and recording into the -trace flight
// recorder. With ckptPath set, run's checkpoint writer is that file: it holds
// the merged state if the run stops early and is removed when it completes.
func runOnFleet(workersCSV string, timeout time.Duration, ckptPath string, run func(context.Context, *dist.Coordinator, io.Writer) (*dist.Result, error)) (*dist.Result, time.Duration) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = withTrace(ctx)
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, timeout, hsfsim.ErrTimeout)
		defer cancel()
	}
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
	var ckpt io.Writer
	var ckptFile *os.File
	if ckptPath != "" {
		ckptFile, err = os.Create(ckptPath)
		fail(err)
		ckpt = ckptFile
	}

	start := time.Now()
	res, err := run(ctx, co, ckpt)
	elapsed := time.Since(start)
	if ckptFile != nil {
		if cerr := ckptFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err == nil {
			os.Remove(ckptPath)
		} else {
			fmt.Fprintf(os.Stderr, "hsfsim: distributed run failed; checkpoint written to %s (resume with -resume)\n", ckptPath)
		}
	}
	fail(err)
	return res, elapsed
}

// printFleetRun prints a distributed run's plan and fleet statistics and,
// unless quiet, its amplitudes.
func printFleetRun(res *dist.Result, numQubits int, elapsed time.Duration, ampsN int, quiet bool) {
	fmt.Printf("cuts:            %d (%d blocks + %d separate)\n", res.NumCuts, res.NumBlocks, res.NumSeparateCuts)
	fmt.Printf("paths:           2^%.1f (%d)\n", res.Log2Paths, res.NumPaths)
	fmt.Printf("workers:         %d (%d batches over %d split levels, %d reassignments)\n",
		res.Workers, res.Batches, res.SplitLevels, res.Reassignments)
	fmt.Printf("simulation:      %v\n", elapsed)
	if !quiet {
		printAmplitudes(res.Amplitudes, ampsN, numQubits)
	}
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
