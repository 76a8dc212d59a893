// Command hsfsimd serves the simulator over HTTP (see internal/server for
// the API):
//
//	hsfsimd -addr :8080 -max-concurrent 8 -memory-budget 8589934592
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/readyz
//	curl -s -X POST localhost:8080/analyze -d '{"qasm":"qreg q[2]; h q[0]; cx q[0],q[1];"}'
//
// Distributed roles (see internal/dist):
//
//	hsfsimd -addr :8081 -worker -join localhost:8080   # join a coordinator's fleet
//	hsfsimd -addr :8080 -dist-workers host1:8081,host2:8081
//	curl -s -X POST localhost:8080/simulate -d '{"qasm":"...","method":"joint","distribute":true}'
//
// A worker heartbeats its registration, so a silently dead worker drops out
// of the fleet after the registry TTL. Every daemon serves /dist/run, so any
// instance can act as a worker; -worker/-join only adds the registration
// loop.
//
// Observability: GET /metrics (on the API address) serves Prometheus text
// exposition; -progress logs a periodic counter summary; -debug-addr opens a
// second, private listener with pprof, expvar, and a runtime snapshot:
//
//	hsfsimd -addr :8080 -debug-addr 127.0.0.1:6060 -progress 30s
//	go tool pprof http://127.0.0.1:6060/debug/pprof/heap
//	curl -s 127.0.0.1:6060/debug/runtime
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, in-flight
// simulations drain for up to -drain-timeout (their request contexts are
// canceled past that), and the process exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hsfsim/internal/dist"
	"hsfsim/internal/server"
)

// onListen, when non-nil, receives the bound address once the listener is
// up. Tests use it with "-addr 127.0.0.1:0" to discover the port.
var onListen func(net.Addr)

// onDebugListen mirrors onListen for the -debug-addr listener.
var onDebugListen func(net.Addr)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("hsfsimd", flag.ExitOnError)
	var (
		addr          = fs.String("addr", "127.0.0.1:8080", "listen address")
		maxConcurrent = fs.Int("max-concurrent", 0, "max simultaneous simulations (0: 2×GOMAXPROCS, <0: unlimited)")
		memoryBudget  = fs.Int64("memory-budget", 0, "admission memory budget in bytes (0: 16 GiB default, <0: unlimited)")
		maxPaths      = fs.Uint64("max-paths", 0, "reject plans with more Feynman paths than this (0: unlimited)")
		workers       = fs.Int("workers", 0, "HSF path workers per simulation (0: GOMAXPROCS); a Schrödinger run ignores it, its kernels use every core no run reserves")
		maxTimeout    = fs.Duration("max-timeout", 10*time.Minute, "cap on per-request timeout_ms")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
		worker        = fs.Bool("worker", false, "register with a coordinator as a distributed worker (needs -join)")
		join          = fs.String("join", "", "coordinator address to register with (implies -worker)")
		advertise     = fs.String("advertise", "", "address advertised to the coordinator (default: the bound listen address)")
		rejoin        = fs.Duration("rejoin", 0, "retry cadence while the coordinator is unreachable (0: 5s)")
		distWorkers   = fs.String("dist-workers", "", "comma-separated worker addresses pinned for distributed /simulate")
		leaseTimeout  = fs.Duration("lease-timeout", 0, "distributed lease deadline as coordinator (0: 2m)")
		workerTTL     = fs.Duration("worker-ttl", 0, "registered-worker heartbeat TTL as coordinator (0: 1m)")
		heartbeat     = fs.Duration("heartbeat", 0, "heartbeat cadence advertised to registered workers (0: worker-ttl/3)")
		maxStrikes    = fs.Int("max-strikes", 0, "lease failures before a worker is retired as coordinator (0: 3)")
		debugAddr     = fs.String("debug-addr", "", "serve pprof + expvar + runtime stats on this separate listener (keep it private)")
		progressEvery = fs.Duration("progress", 0, "log a periodic counter summary at this interval (0: off)")
		jobStore      = fs.String("jobs-store", "", "directory for durable job state (manifests, checkpoints, results); empty keeps jobs in memory")
		jobRunners    = fs.Int("job-runners", 0, "concurrent async job batches (0: 2)")
		jobQueueCap   = fs.Int("job-queue-cap", 0, "max queued async jobs before 429 (0: 256)")
		tenantQuota   = fs.Int("tenant-quota", 0, "max outstanding jobs per tenant (0: unlimited)")
		tenantQuotas  = fs.String("tenant-quotas", "", "per-tenant overrides as name=N,name=N")
		jobFlush      = fs.Duration("job-flush", 0, "mid-run job checkpoint flush cadence (0: 2s)")
		traceBuffer   = fs.Int("trace-buffer", 0, "flight-recorder capacity in span events (0: 16384, <0: disable tracing)")
	)
	_ = fs.Parse(args)
	if *worker && *join == "" {
		logger := log.New(os.Stderr, "hsfsimd ", log.LstdFlags)
		logger.Printf("-worker needs -join <coordinator>")
		return 2
	}

	logger := log.New(os.Stderr, "hsfsimd ", log.LstdFlags)
	quotas, err := parseQuotas(*tenantQuotas)
	if err != nil {
		logger.Printf("-tenant-quotas: %v", err)
		return 2
	}
	cfg := server.Config{
		MaxConcurrent:     *maxConcurrent,
		MemoryBudget:      *memoryBudget,
		MaxPaths:          *maxPaths,
		Workers:           *workers,
		MaxTimeout:        *maxTimeout,
		Logger:            logger,
		DistLeaseTimeout:  *leaseTimeout,
		WorkerTTL:         *workerTTL,
		HeartbeatInterval: *heartbeat,
		DistMaxStrikes:    *maxStrikes,
		JobStoreDir:       *jobStore,
		JobRunners:        *jobRunners,
		JobQueueCap:       *jobQueueCap,
		TenantQuota:       *tenantQuota,
		TenantQuotas:      quotas,
		JobFlushInterval:  *jobFlush,
		TraceCapacity:     *traceBuffer,
	}
	if err := cfg.Validate(); err != nil {
		logger.Printf("%v", err)
		return 2
	}
	svc := server.NewService(cfg)
	for _, a := range strings.Split(*distWorkers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			svc.AddWorker(a)
			logger.Printf("pinned distributed worker %s", a)
		}
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      10 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The diagnostics listener is separate from the API listener so pprof and
	// expvar never ride the public address; bind it to localhost or a
	// firewalled interface only — profiles leak code and heap contents.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Printf("debug listen: %v", err)
			return 1
		}
		dsrv := &http.Server{Handler: debugMux(), ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = dsrv.Serve(dln) }()
		defer dsrv.Close()
		if onDebugListen != nil {
			onDebugListen(dln.Addr())
		}
		logger.Printf("debug listener on %s (pprof, expvar, runtime; do not expose publicly)", dln.Addr())
	}

	if *progressEvery > 0 {
		go logProgress(ctx, logger, *progressEvery)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		return 1
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	logger.Printf("listening on %s", ln.Addr())

	self := *advertise
	if self == "" {
		self = ln.Addr().String()
	}
	if *join != "" {
		go dist.Heartbeat(ctx, nil, *join, self, dist.HeartbeatOptions{
			RejoinInterval: *rejoin,
			Logger:         logger,
		})
	}

	select {
	case err := <-errCh:
		// The listener failed before any shutdown was requested.
		logger.Printf("serve: %v", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	if *join != "" {
		// Drain the worker role first: new leases are refused, in-flight
		// leases are canceled so their completed prefixes return as partials,
		// and the coordinator is told not to wait for our heartbeats to lapse.
		logger.Printf("draining worker role, returning unfinished lease prefixes")
		svc.Drain()
		dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := dist.DeregisterWorker(dctx, nil, *join, self); err != nil {
			logger.Printf("deregister: %v", err)
		}
		dcancel()
	}

	// Park the async job service: running walks flush their checkpoints and
	// stay "running" in the store, so the next start resumes them instead of
	// redoing the work.
	logger.Printf("closing job service, parking unfinished jobs for resume")
	jctx, jcancel := context.WithTimeout(context.Background(), *drainTimeout)
	if err := svc.CloseJobs(jctx); err != nil {
		logger.Printf("job drain incomplete: %v", err)
	}
	jcancel()

	logger.Printf("shutting down, draining in-flight requests (up to %v)", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// The drain window expired: force-close, canceling request contexts.
		logger.Printf("drain incomplete: %v; closing", err)
		_ = srv.Close()
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("serve: %v", err)
		return 1
	}
	logger.Printf("shutdown complete")
	return 0
}

// parseQuotas parses the -tenant-quotas form "name=N,name=N".
func parseQuotas(s string) (map[string]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		var n int
		if _, err := fmt.Sscanf(val, "%d", &n); !ok || err != nil || name == "" || n < 0 {
			return nil, fmt.Errorf("bad quota %q (want name=N)", part)
		}
		out[name] = n
	}
	return out, nil
}

// debugMux builds the -debug-addr handler tree: pprof profiles, the expvar
// counters, and a JSON runtime snapshot. The handlers are registered
// explicitly so nothing here touches http.DefaultServeMux.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/runtime", handleDebugRuntime)
	return mux
}

// handleDebugRuntime reports heap and GC health as JSON: the numbers an
// operator checks before reaching for a full pprof heap profile.
func handleDebugRuntime(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"heap_alloc_bytes":    ms.HeapAlloc,
		"heap_sys_bytes":      ms.HeapSys,
		"heap_inuse_bytes":    ms.HeapInuse,
		"total_alloc_bytes":   ms.TotalAlloc,
		"mallocs":             ms.Mallocs,
		"frees":               ms.Frees,
		"gc_cycles":           ms.NumGC,
		"gc_pause_total_ns":   ms.PauseTotalNs,
		"gc_cpu_fraction":     ms.GCCPUFraction,
		"next_gc_bytes":       ms.NextGC,
		"goroutines":          runtime.NumGoroutine(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"last_gc_unix_nanos":  ms.LastGC,
		"stack_inuse_bytes":   ms.StackInuse,
		"heap_released_bytes": ms.HeapReleased,
		"heap_objects":        ms.HeapObjects,
	})
}

// logProgress periodically logs the load-relevant expvar counters, giving a
// headless daemon a liveness trace without any scraper attached.
func logProgress(ctx context.Context, logger *log.Logger, every time.Duration) {
	read := func(m *expvar.Map, key string) string {
		if v := m.Get(key); v != nil {
			return v.String()
		}
		return "0"
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	// Suppress repeats while the daemon is idle: a quiet process should not
	// fill its log with identical progress lines.
	var last string
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			m, ok := expvar.Get("hsfsimd").(*expvar.Map)
			if !ok {
				return
			}
			line := fmt.Sprintf("progress: requests=%s simulations=%s paths=%s in_flight=%s shed=%s worker_runs=%s leases=%s",
				read(m, "requests_total"), read(m, "simulations_total"),
				read(m, "paths_simulated_total"), read(m, "in_flight"),
				read(m, "shed_429_total"), read(m, "worker_runs_total"),
				read(m, "dist_leases_granted_total"))
			if line == last {
				continue
			}
			last = line
			logger.Print(line)
		}
	}
}
