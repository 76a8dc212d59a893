package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hsfsim"
	"hsfsim/internal/cmat"
	"hsfsim/internal/cut"
	"hsfsim/internal/fuse"
	"hsfsim/internal/hsf"
	"hsfsim/internal/jobs"
	"hsfsim/internal/qasm"
	"hsfsim/internal/schmidt"
	"hsfsim/internal/statevec"
)

// probeReps is how often each layer that is not on the op's own path is
// timed on the op's input after the traced window.
const probeReps = 3

// span is one timed call into a layer. Spans of one op share op_id; a probe
// outside any op has op_id -1. The children of an op's root span are the
// layer calls that make up (direct op) or replay (HTTP op) that op.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"` // seconds since the traced run began
	End    float64 `json:"end"`
	Parent int     `json:"parent"` // 0: a root
	OpID   int64   `json:"op_id"`
}

// tracer keeps spans and the counts taken at the same boundaries in memory
// until the run ends.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14), counts: map[string]float64{}}
}

func (t *tracer) begin(name string, parent int, op int64) int {
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: now, Parent: parent, OpID: op})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration((s.End - s.Start) * float64(time.Second))
}

func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] = v
	t.mu.Unlock()
}

// seconds is the median duration of the spans called name.
func (t *tracer) seconds(name string) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.End-s.Start)
		}
	}
	return median(ds)
}

// coverage is the median, over op root spans, of the share of the root's
// wall time that its child spans account for.
func (t *tracer) coverage() float64 {
	children := map[int]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	var ratios []float64
	for _, s := range t.spans {
		if s.Parent == 0 && s.OpID >= 0 && s.End > s.Start {
			ratios = append(ratios, children[s.ID]/(s.End-s.Start))
		}
	}
	return median(ratios)
}

func (t *tracer) write(path string, cfg config) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Counts   map[string]float64 `json:"counts"`
		Spans    []span             `json:"spans"`
	}{cfg.workload, cfg.seed, t.counts, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tracedRun decomposes the workload's op into calls into each layer.
type tracedRun struct {
	w  *workload
	tr *tracer

	mu        sync.Mutex
	plan      *cut.Plan // the op's cut plan, for the probes that start from one
	lastHSF   output
	lastDense output
	// Wall times of the window's untraced and decomposed ops.
	refWalls, tracedWalls []float64
}

// alternate runs even ops the ordinary way and odd ops decomposed, so that
// both kinds meet the same machine conditions and their walls compare.
func (x *tracedRun) alternate(i uint64) (time.Duration, error) {
	do, walls := x.w.timedOp, &x.refWalls
	if i%2 == 1 {
		do, walls = x.op, &x.tracedWalls
	}
	d, err := do(i)
	if err == nil {
		x.mu.Lock()
		*walls = append(*walls, d.Seconds())
		x.mu.Unlock()
	}
	return d, err
}

// hsfChain is the joint-HSF op as the library runs it, one span per layer.
func (x *tracedRun) hsfChain(root int, op int64, text string, workers int) (output, error) {
	s, tr := x.w.spec, x.tr
	id := tr.begin("qasm.parse", root, op)
	c, err := qasm.Parse(strings.NewReader(text))
	tr.end(id)
	if err != nil {
		return output{}, err
	}
	id = tr.begin("cut.plan", root, op)
	plan, err := cut.BuildPlan(c, s.cutOptions())
	tr.end(id)
	if err != nil {
		return output{}, err
	}
	id = tr.begin("hsf.run", root, op)
	res, err := hsf.RunContext(context.Background(), plan, s.engineOptions(workers))
	tr.end(id)
	if err != nil {
		return output{}, err
	}
	tr.count("qasm.bytes", float64(len(text)))
	tr.count("hsf.paths_simulated", float64(res.PathsSimulated))
	out := output{amps: res.Amplitudes, total: len(res.Amplitudes), paths: res.NumPaths}
	x.mu.Lock()
	x.plan, x.lastHSF = plan, out
	x.mu.Unlock()
	return out, nil
}

// denseChain is the Schrödinger op as the library runs it, one span per layer.
func (x *tracedRun) denseChain(root int, op int64, text string) (output, error) {
	tr := x.tr
	id := tr.begin("qasm.parse", root, op)
	c, err := qasm.Parse(strings.NewReader(text))
	tr.end(id)
	if err != nil {
		return output{}, err
	}
	id = tr.begin("fuse.fuse", root, op)
	gates := fuse.Fuse(c.Gates, fuse.DefaultMaxQubits)
	tr.end(id)
	id = tr.begin("statevec.compile_segment", root, op)
	seg := statevec.CompileSegment(gates, c.NumQubits)
	tr.end(id)
	id = tr.begin("statevec.new_vector", root, op)
	v := statevec.NewVector(c.NumQubits)
	tr.end(id)
	id = tr.begin("statevec.apply", root, op)
	seg.Apply(v)
	tr.end(id)
	id = tr.begin("statevec.to_complex", root, op)
	amps := []complex128(v.ToComplex())
	tr.end(id)
	tr.count("qasm.bytes", float64(len(text)))
	tr.count("fuse.gates_in", float64(len(c.Gates)))
	tr.count("fuse.gates_out", float64(len(gates)))
	tr.count("statevec.steps", float64(seg.NumSteps()))
	out := output{amps: amps, total: len(amps), paths: 1}
	x.mu.Lock()
	x.lastDense = out
	x.mu.Unlock()
	return out, nil
}

// op is the traced form of workload.timedOp: the same op, run as the calls
// the library (or, for an HTTP op, the handler) makes into each layer.
func (x *tracedRun) op(i uint64) (time.Duration, error) {
	w, tr := x.w, x.tr
	if w.spec.http {
		body, err := w.body(i)
		if err != nil {
			return 0, err
		}
		root := tr.begin("server.request", 0, int64(i))
		out, err := w.simulate(body)
		d := tr.end(root)
		if err != nil {
			return d, err
		}
		tr.count("server.response_bytes", float64(out.bytes))
		if err := w.check(i, out, false); err != nil {
			return d, err
		}
		// Replay the same body by direct calls, attributed to the request.
		text, err := w.inst.qasmText(i)
		if err != nil {
			return d, err
		}
		replay, err := x.hsfChain(root, int64(i), text, w.spec.workers())
		if err != nil {
			return d, err
		}
		return d, agree(out.amps, replay.amps)
	}
	root := tr.begin("op", 0, int64(i))
	var out output
	var err error
	if w.spec.method == hsfsim.Schrodinger {
		out, err = x.denseChain(root, int64(i), w.text)
	} else {
		out, err = x.hsfChain(root, int64(i), w.text, w.spec.workers())
	}
	d := tr.end(root)
	if err != nil {
		return d, err
	}
	return d, w.check(i, out, false)
}

// probes times, on the op's own input, every layer the op's path did not
// reach and the layer internals that can only be timed in isolation.
// budget bounds each of the two server probes, in seconds.
func (x *tracedRun) probes(budget float64) (attempted int, err error) {
	w, tr, s := x.w, x.tr, x.w.spec
	for r := 0; r < probeReps; r++ {
		if s.http || s.method != hsfsim.Schrodinger {
			_, err = x.denseChain(0, -1, w.text)
		} else {
			_, err = x.hsfChain(0, -1, w.text, s.workers())
		}
		if err != nil {
			return attempted, err
		}
		attempted++
	}
	if !s.http {
		// Both chains have now run on w.text: the two methods must agree.
		if err := agree(x.lastHSF.amps, x.lastDense.amps); err != nil {
			return attempted, fmt.Errorf("joint HSF vs Schrödinger: %w", err)
		}
	}
	plan := x.plan

	c, err := qasm.Parse(strings.NewReader(w.text))
	if err != nil {
		return attempted, err
	}
	standard, err := cut.BuildPlan(c, cut.Options{Partition: plan.Partition, Strategy: cut.StrategyNone})
	if err != nil {
		return attempted, err
	}
	maxRank := 0
	for _, c := range plan.Cuts {
		maxRank = max(maxRank, c.Rank())
	}
	tr.count("cut.cuts", float64(len(plan.Cuts)))
	tr.count("cut.blocks", float64(plan.NumBlocks()))
	tr.count("cut.max_rank", float64(maxRank))
	tr.count("cut.paths_log2", plan.Log2Paths())
	tr.count("cut.paths_standard_log2", standard.Log2Paths())

	// Schmidt: rebuild every cut's operator from its terms and decompose it
	// again; one span covers the whole plan.
	ops := make([]*cmat.Matrix, len(plan.Cuts))
	maxDim := 0
	for k, c := range plan.Cuts {
		d := schmidt.Decomposition{Terms: c.Terms, NumLower: len(c.LowerQubits), NumUpper: len(c.UpperQubits)}
		ops[k] = d.Reconstruct()
		maxDim = max(maxDim, ops[k].Rows)
	}
	for r := 0; r < probeReps; r++ {
		id := tr.begin("schmidt.decompose", 0, -1)
		for k, c := range plan.Cuts {
			d, err := schmidt.Decompose(ops[k], len(c.LowerQubits), len(c.UpperQubits), 0)
			if err != nil {
				return attempted, err
			}
			if d.Rank() != c.Rank() {
				return attempted, fmt.Errorf("cut %d: rank %d on re-decomposition, plan has %d", k, d.Rank(), c.Rank())
			}
		}
		tr.end(id)
	}
	tr.count("schmidt.decompose_calls", float64(len(plan.Cuts)))
	tr.count("schmidt.max_dim", float64(maxDim))

	// Path workers: the same plan at one worker and at P.
	for r := 0; r < probeReps; r++ {
		for _, p := range []struct {
			name    string
			workers int
		}{{"hsf.run_p1", 1}, {"hsf.run_pp", s.procs()}} {
			id := tr.begin(p.name, 0, -1)
			res, err := hsf.RunContext(context.Background(), plan, s.engineOptions(p.workers))
			tr.end(id)
			if err != nil {
				return attempted, err
			}
			attempted++
			if err := agree(res.Amplitudes, x.lastHSF.amps); err != nil {
				return attempted, fmt.Errorf("%s: %w", p.name, err)
			}
		}
	}
	tr.count("hsf.cost_estimate_mib", float64(hsf.Cost(plan, s.engineOptions(s.workers())).TotalBytes)/mib)

	// Leaf accumulate at the op's accumulator and half shapes.
	nLower := plan.Partition.NumLower()
	acc := statevec.MakeVector(s.hsfAmps())
	up := filledVector(1<<plan.Partition.NumUpper(plan.NumQubits), 1)
	lo := filledVector(1<<nLower, 2)
	for r := 0; r < 4+64; r++ {
		id := tr.begin("statevec.accumulate_kron", 0, -1)
		statevec.AccumulateKron(acc, complex(0.6, -0.8), up, lo, nLower)
		tr.end(id)
	}

	// The same op through the server's two entry points.
	if !s.http {
		w.startServer()
	}
	n, err := x.serverProbes(budget)
	return attempted + n, err
}

// serverProbes sends ops through POST /simulate (unless that is the op's own
// path) and through POST /jobs → GET /jobs/{id}/result, each for the budget.
func (x *tracedRun) serverProbes(budget float64) (attempted int, err error) {
	w, tr := x.w, x.tr
	routes := []struct {
		span string
		send func(body []byte) (output, error)
	}{
		{"server.request", w.simulate},
		{"jobs.submit_to_result", w.submitAndFetch},
	}
	if w.spec.http {
		routes = routes[1:]
	}
	for _, rt := range routes {
		start := time.Now()
		for r := 0; r < probeReps || time.Since(start).Seconds() < budget; r++ {
			i := uint64(0) // a direct workload has the one body
			if w.spec.http {
				i = 1<<32 + uint64(r) // past any op index of the window
			}
			body, err := w.body(i)
			if err != nil {
				return attempted, err
			}
			id := tr.begin(rt.span, 0, -1)
			out, err := rt.send(body)
			tr.end(id)
			attempted++
			if err != nil {
				return attempted, fmt.Errorf("%s: %w", rt.span, err)
			}
			tr.count("server.response_bytes", float64(out.bytes))
			if err := w.check(i, out, r == 0); err != nil {
				return attempted, fmt.Errorf("%s: %w", rt.span, err)
			}
		}
	}
	return attempted, nil
}

// submitAndFetch runs one body through the async job API, polling the result
// route until the job is done.
func (w *workload) submitAndFetch(body []byte) (output, error) {
	status, raw, err := w.fetch("/jobs", body)
	if err != nil {
		return output{}, err
	}
	if status != http.StatusAccepted {
		return output{}, fmt.Errorf("POST /jobs: status %d: %.200s", status, raw)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return output{}, err
	}
	for {
		status, raw, err := w.fetch("/jobs/"+snap.ID+"/result", nil)
		switch {
		case err != nil:
			return output{}, err
		case status == http.StatusOK:
			return decodeResponse(raw)
		case status == http.StatusConflict: // queued or running
			time.Sleep(2 * time.Millisecond)
		default:
			return output{}, fmt.Errorf("GET /jobs/%s/result: status %d: %.200s", snap.ID, status, raw)
		}
	}
}

// filledVector is an n-amplitude vector without zeros, which AccumulateKron
// would skip.
func filledVector(n int, salt uint64) statevec.Vector {
	v := statevec.MakeVector(n)
	for k := range v.Re {
		v.Re[k] = unitFloat(int64(salt), uint64(2*k)) + 0.5
		v.Im[k] = unitFloat(int64(salt), uint64(2*k+1)) - 1.5
	}
	return v
}

// perLayer turns the trace into the per-layer metrics; win is the window of
// alternating untraced and decomposed ops.
func (x *tracedRun) perLayer(win *window, peakRSS float64) map[string]metric {
	tr, s := x.tr, x.w.spec
	sec := tr.seconds
	cnt := func(name string) float64 { return tr.counts[name] }
	p := float64(s.procs())

	// What the handler runs for one request, by direct calls.
	handler := sec("qasm.parse") + sec("cut.plan") + sec("hsf.run")
	if s.method == hsfsim.Schrodinger {
		handler = sec("qasm.parse") + sec("fuse.fuse") + sec("statevec.compile_segment") +
			sec("statevec.new_vector") + sec("statevec.apply") + sec("statevec.to_complex")
	}
	stateBytes := 16 * math.Exp2(float64(s.numQubits()))
	speedup := sec("hsf.run_p1") / sec("hsf.run_pp")
	ref := x.refWalls
	refP50 := median(ref)

	return map[string]metric{
		"qasm.parse_s": {sec("qasm.parse"), "s"},
		"qasm.bytes":   {cnt("qasm.bytes"), "B"},

		"fuse.fuse_s":    {sec("fuse.fuse"), "s"},
		"fuse.gates_in":  {cnt("fuse.gates_in"), "count"},
		"fuse.gates_out": {cnt("fuse.gates_out"), "count"},

		"cut.plan_s":              {sec("cut.plan"), "s"},
		"cut.cuts":                {cnt("cut.cuts"), "count"},
		"cut.blocks":              {cnt("cut.blocks"), "count"},
		"cut.max_rank":            {cnt("cut.max_rank"), "count"},
		"cut.paths_log2":          {cnt("cut.paths_log2"), "log2"},
		"cut.paths_standard_log2": {cnt("cut.paths_standard_log2"), "log2"},

		"schmidt.decompose_s":     {sec("schmidt.decompose"), "s"},
		"schmidt.decompose_calls": {cnt("schmidt.decompose_calls"), "count"},
		"schmidt.max_dim":         {cnt("schmidt.max_dim"), "count"},

		"hsf.run_s":             {sec("hsf.run"), "s"},
		"hsf.paths_simulated":   {cnt("hsf.paths_simulated"), "count"},
		"hsf.paths_per_s":       {cnt("hsf.paths_simulated") / sec("hsf.run"), "1/s"},
		"hsf.run_p1_s":          {sec("hsf.run_p1"), "s"},
		"hsf.par_speedup":       {speedup, "x"},
		"hsf.par_efficiency":    {speedup / p, "ratio"},
		"hsf.cost_estimate_mib": {cnt("hsf.cost_estimate_mib"), "MiB"},

		"statevec.accumulate_kron_s": {sec("statevec.accumulate_kron"), "s"},
		"statevec.accumulate_share": {sec("statevec.accumulate_kron") * cnt("hsf.paths_simulated") /
			sec("hsf.run_p1"), "ratio"},
		"statevec.compile_segment_s": {sec("statevec.compile_segment"), "s"},
		"statevec.apply_s":           {sec("statevec.apply"), "s"},
		"statevec.apply_computed_gib_per_s": {cnt("statevec.steps") * 2 * stateBytes /
			sec("statevec.apply") / (1 << 30), "GiB/s"},
		"statevec.to_complex_s": {sec("statevec.to_complex"), "s"},

		"server.request_s":            {sec("server.request"), "s"},
		"server.overhead_s":           {sec("server.request") - handler, "s"},
		"server.response_bytes":       {cnt("server.response_bytes"), "B"},
		"server.non200":               {float64(x.w.non200.Load()), "count"},
		"jobs.submit_to_result_s":     {sec("jobs.submit_to_result"), "s"},
		"driver.coverage_ratio":       {tr.coverage(), "ratio"},
		"driver.trace_overhead_ratio": {median(x.tracedWalls)/refP50 - 1, "ratio"},
		"driver.wall_s_p50":           {refP50, "s"},
		"driver.wall_s_p90":           {quantile(ref, 0.9), "s"},
		"driver.wall_s_iqr_ratio":     {(quantile(ref, 0.75) - quantile(ref, 0.25)) / refP50, "ratio"},
		"runtime.peak_rss_mib":        {peakRSS, "MiB"},
		"runtime.gc_cycles_per_op":    {win.gcCycles / float64(max(win.ok(), 1)), "1/op"},
		"runtime.gomaxprocs":          {p, "count"},
	}
}
