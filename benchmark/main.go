// Command benchmark is the repository's end-to-end benchmark: four workloads,
// five end-to-end metrics from an untraced closed-loop window, and per-layer
// metrics from a separate traced run that times calls into each layer's
// public functions from outside. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	// setupRepeats set-ups are run and timed; setup_s is their median and
	// the last one serves the window.
	setupRepeats = 3
	// minOps is the fewest ops a window measures however short it is.
	minOps = 2
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool   // smoke-test scale; not a flag
	outDir   string // where a traced run writes trace-<workload>.json
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{outDir: filepath.Join("benchmark", "out")}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "joint-sweep | joint-accum-par | schrodinger-dense | serve-plan")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "draws the edge weights and QAOA angles of every generated circuit")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	cfg.trace = trace != 0

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-34s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(cfg config) (*result, error) {
	s, err := findSpec(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.small {
		s = s.shrunk()
	}
	runtime.GOMAXPROCS(s.procs())

	var w *workload
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if w != nil {
			w.tearDown()
		}
		start := time.Now()
		if w, err = setUp(s, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.tearDown()
	first := uint64(warmupOps * w.clients()) // op indices the warm-up used

	if cfg.trace {
		return runTraced(cfg, w, first)
	}
	runtime.GC()
	win := measure(w.clients(), first, cfg.seconds, minOps, w.timedOp)
	w.checkSampled(win)
	walls := win.walls()
	fmt.Printf("%s: %d ops in %.2f s, %d failed; whole window: %.4g ops/s, %.4g CPU s/op, wall p50 %.4g s, p90 %.4g s; set-ups %.3g s\n",
		s.name, win.attempted, win.wall, win.failed, float64(win.ok())/win.wall, win.cpu/float64(max(win.ok(), 1)),
		median(walls), quantile(walls, 0.9), setups)
	if win.firstErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", win.firstErr)
	}
	return &result{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed,
		Metrics: endToEnd(win, median(setups))}, nil
}

// runTraced measures one window in which untraced and decomposed ops
// alternate, then the probes, and reports the per-layer metrics.
func runTraced(cfg config, w *workload, first uint64) (*result, error) {
	x := &tracedRun{w: w, tr: newTracer()}
	resetPeakRSS()
	win := measure(w.clients(), first, 0.7*cfg.seconds, 2*minOps, x.alternate)
	w.checkSampled(win)
	peak := peakRSSMiB()
	probed, err := x.probes(0.1 * cfg.seconds)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	if err := x.tr.write(path, cfg); err != nil {
		return nil, err
	}
	fmt.Printf("%s: %d reference and %d traced ops, %d failed, %d probe ops, %d spans in %s\n",
		w.spec.name, len(x.refWalls), len(x.tracedWalls), win.failed, probed, len(x.tr.spans), path)
	if win.firstErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", win.firstErr)
	}
	return &result{Correct: win.failed == 0, Attempted: win.attempted + probed, Failed: win.failed,
		Metrics: x.perLayer(win, peak)}, nil
}

// timedOp runs and verifies op i. The amplitudes of every sampleEvery-th
// HTTP response are kept and verified after the window (checkSampled), since
// the Schrödinger run that verifies them would otherwise compete with the
// requests being measured.
func (w *workload) timedOp(i uint64) (time.Duration, error) {
	start := time.Now()
	out, err := w.op(i)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if w.spec.http && i%sampleEvery == 0 {
		w.mu.Lock()
		w.sampled = append(w.sampled, sampledOp{i, out, d})
		w.mu.Unlock()
	}
	return d, w.check(i, out, false)
}

// checkSampled verifies the responses timedOp kept; one that fails becomes a
// failed op and loses its latency sample.
func (w *workload) checkSampled(win *window) {
	for _, sm := range w.sampled {
		err := w.check(sm.i, sm.out, true)
		if err == nil {
			continue
		}
		win.failed++
		if win.firstErr == nil {
			win.firstErr = fmt.Errorf("op %d: %w", sm.i, err)
		}
		for k, op := range win.ops {
			if op.wall == sm.wall.Seconds() {
				win.ops = append(win.ops[:k], win.ops[k+1:]...)
				break
			}
		}
	}
	w.sampled = nil
}
