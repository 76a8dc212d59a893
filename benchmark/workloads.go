package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/cmplx"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hsfsim"
	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/graph"
	"hsfsim/internal/hsf"
	"hsfsim/internal/qaoa"
	"hsfsim/internal/qasm"
	"hsfsim/internal/server"
)

const (
	defaultSeed = 2203
	// tol is the largest amplitude error an op may show against the oracle.
	tol = 1e-10
	// checkPrefix leading amplitudes of every checked output are compared
	// with the oracle; beyond them every checkStride-th one is.
	checkPrefix = 4096
	checkStride = 127
	// sampleEvery-th HTTP response has its echoed amplitudes checked against
	// a Schrödinger run of its own body; the others are checked for status,
	// amplitudes_total and num_paths only.
	sampleEvery = 50
	// warmupOps run per client at the end of every set-up, verified like
	// measured ops, so caches and pools are filled before the window opens.
	warmupOps = 2
	// oracleAmps is the amplitude count of the joint-HSF run that serves as
	// the oracle (and the HSF probe) where the op itself is Schrödinger.
	oracleAmps = 1 << 14
)

// spec is one workload: an SBM-QAOA instance family member, the options of
// one op, and how the op is submitted.
//
// The graph topology is fixed by graphSeed (the q22-3 / q20-3 rows of
// qaoa.MediumInstances / ScaledInstances) so that the path count — and hence
// the work of one op — is the same for every run seed; the run seed draws
// the edge weights and the QAOA angles, i.e. every gate parameter.
type spec struct {
	name         string
	sizeA, sizeB int
	pInter       float64
	graphSeed    int64
	method       hsfsim.Method
	strategy     hsfsim.BlockStrategy
	maxBlock     int
	maxAmps      int  // 0: the full state
	parallel     bool // GOMAXPROCS = workers/clients = min(nproc,4); else 1
	http         bool // ops are POST /simulate requests with per-op angles
}

var specs = []spec{
	{name: "joint-sweep", sizeA: 11, sizeB: 11, pInter: 0.20, graphSeed: 2203,
		method: hsfsim.JointHSF, strategy: hsfsim.BlockCascade, maxAmps: 1 << 14},
	{name: "joint-accum-par", sizeA: 11, sizeB: 11, pInter: 0.20, graphSeed: 2203,
		method: hsfsim.JointHSF, strategy: hsfsim.BlockCascade, maxAmps: 1 << 20, parallel: true},
	{name: "schrodinger-dense", sizeA: 11, sizeB: 11, pInter: 0.20, graphSeed: 2203,
		method: hsfsim.Schrodinger, strategy: hsfsim.BlockCascade},
	{name: "serve-plan", sizeA: 10, sizeB: 10, pInter: 0.20, graphSeed: 2003,
		method: hsfsim.JointHSF, strategy: hsfsim.BlockWindow, maxBlock: 8, maxAmps: 1 << 14,
		parallel: true, http: true},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// shrunk is the smoke-test scale of a workload: the same code paths on a
// 12-qubit instance.
func (s spec) shrunk() spec {
	s.sizeA, s.sizeB = 6, 6
	if s.maxAmps > 0 {
		s.maxAmps = 1 << 10
	}
	if s.maxBlock > 0 {
		s.maxBlock = 6
	}
	return s
}

func (s spec) numQubits() int { return s.sizeA + s.sizeB }

// procs is the workload's GOMAXPROCS, HSF worker count and client count.
func (s spec) procs() int {
	if !s.parallel {
		return 1
	}
	return min(runtime.NumCPU(), 4)
}

// workers is the HSF path-worker count of one op: the ISSUE's P for a direct
// op, 1 inside the server (server.Config{Workers: 1}), whose P clients each
// keep one request in flight.
func (s spec) workers() int {
	if s.http {
		return 1
	}
	return s.procs()
}

// hsfAmps is the amplitude count of the workload's joint-HSF run: the op
// itself, or the oracle and probe where the op is Schrödinger.
func (s spec) hsfAmps() int {
	if s.maxAmps > 0 {
		return s.maxAmps
	}
	return min(oracleAmps, 1<<s.numQubits())
}

func (s spec) cutOptions() cut.Options {
	return cut.Options{
		Partition:      cut.Partition{CutPos: s.sizeA - 1},
		Strategy:       s.strategy,
		MaxBlockQubits: s.maxBlock,
	}
}

// options are the public-API options of one op.
func (s spec) options() hsfsim.Options {
	return hsfsim.Options{
		Method:         s.method,
		CutPos:         s.sizeA - 1,
		MaxAmplitudes:  s.maxAmps,
		Workers:        s.workers(),
		BlockStrategy:  s.strategy,
		MaxBlockQubits: s.maxBlock,
	}
}

// request is the /simulate (and /jobs) body of one op.
func (s spec) request(qasmText string) ([]byte, error) {
	req := server.SimulateRequest{
		QASM:           qasmText,
		Method:         "joint",
		MaxAmplitudes:  s.maxAmps,
		MaxBlockQubits: s.maxBlock,
	}
	if s.method == hsfsim.Schrodinger {
		req.Method = "schrodinger"
	}
	if s.strategy == hsfsim.BlockWindow {
		req.Strategy = "window"
	}
	return json.Marshal(req)
}

// splitmix64 is the stateless generator behind the per-op angle stream, so
// that op i gets the same angles whichever client goroutine runs it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unitFloat(seed int64, k uint64) float64 {
	return float64(splitmix64(uint64(seed)^splitmix64(k))>>11) / (1 << 53)
}

// instance is a generated problem graph; qasmText(i) is the circuit of op i.
type instance struct {
	seed  int64
	graph *graph.Graph
}

func newInstance(s spec, seed int64) (*instance, error) {
	g, err := graph.TwoBlockModel(s.sizeA, s.sizeB, 0.8, s.pInter, rand.New(rand.NewSource(s.graphSeed)))
	if err != nil {
		return nil, err
	}
	if err := g.RandomizeWeights(0.5, 1.5, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	return &instance{seed: seed, graph: g}, nil
}

// qasmText renders op i's single-layer QAOA circuit with γ∈[0.3,1.3) and
// β∈[0.2,1.2) drawn from the seed: the program under test only ever sees
// this text.
func (in *instance) qasmText(i uint64) (string, error) {
	c, err := qaoa.Build(in.graph, qaoa.Params{
		Gammas: []float64{0.3 + unitFloat(in.seed, 2*i)},
		Betas:  []float64{0.2 + unitFloat(in.seed, 2*i+1)},
	})
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := qasm.Write(&buf, c); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// workload is a set-up workload, ready for measured ops.
type workload struct {
	spec spec
	inst *instance
	text string // the direct op's QASM; op 0's for an HTTP workload

	wantLen   int    // amplitudes one op must report
	wantPaths uint64 // Feynman paths one op must report
	oracle    []complex128

	// HTTP workloads (and the traced run's server probes).
	svc    *server.Service
	srv    *httptest.Server
	client *http.Client
	non200 atomic.Int64

	mu      sync.Mutex
	sampled []sampledOp // responses awaiting their deep check
}

type sampledOp struct {
	i    uint64
	out  output
	wall time.Duration
}

// output is what one op returned, in the form the checks need.
type output struct {
	amps  []complex128
	total int
	paths uint64
	bytes int // HTTP response size
}

// setUp generates the instance, its QASM text and the oracle, starts the
// server of an HTTP workload, and runs the verified warm-up ops.
func setUp(s spec, seed int64) (*workload, error) {
	in, err := newInstance(s, seed)
	if err != nil {
		return nil, err
	}
	w := &workload{spec: s, inst: in}
	if w.text, err = in.qasmText(0); err != nil {
		return nil, err
	}
	c, err := qasm.Parse(strings.NewReader(w.text))
	if err != nil {
		return nil, err
	}
	w.wantLen = s.maxAmps
	w.wantPaths = 1
	if s.maxAmps == 0 {
		w.wantLen = 1 << s.numQubits()
	}
	if s.method != hsfsim.Schrodinger {
		plan, err := cut.BuildPlan(c, s.cutOptions())
		if err != nil {
			return nil, err
		}
		w.wantPaths, _ = plan.NumPaths()
	}
	if s.http {
		w.startServer()
	} else if w.oracle, err = w.otherMethod(c); err != nil {
		return nil, err
	}
	for i := uint64(0); i < uint64(warmupOps*w.clients()); i++ {
		out, err := w.op(i)
		if err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
		if err := w.check(i, out, true); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return w, nil
}

func (w *workload) clients() int {
	if w.spec.http {
		return w.spec.procs()
	}
	return 1
}

// otherMethod computes the oracle for circuit c with the method the op does
// not use: Schrödinger for the HSF ops, joint HSF for the Schrödinger op.
func (w *workload) otherMethod(c *circuit.Circuit) ([]complex128, error) {
	opts := hsfsim.Options{Method: hsfsim.Schrodinger, Workers: w.spec.procs()}
	n := w.wantLen
	if w.spec.method == hsfsim.Schrodinger {
		n = w.spec.hsfAmps()
		opts = hsfsim.Options{Method: hsfsim.JointHSF, CutPos: w.spec.sizeA - 1,
			MaxAmplitudes: n, Workers: w.spec.procs()}
	}
	res, err := hsfsim.Simulate(c, opts)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	// Keep only the compared prefix so a 2^22 state is not held for the run.
	return append([]complex128(nil), res.Amplitudes[:n]...), nil
}

func (w *workload) startServer() {
	w.svc = server.NewService(server.Config{Workers: w.spec.workers(), Logger: log.New(io.Discard, "", 0)})
	w.srv = httptest.NewServer(w.svc.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
}

// tearDown stops the server and its job runners, if one was started.
func (w *workload) tearDown() {
	if w.srv == nil {
		return
	}
	w.client.CloseIdleConnections()
	w.srv.Close()
	w.svc.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.svc.CloseJobs(ctx) // nothing is queued or running any more
	w.srv = nil
}

// op runs op i the way a user submits it.
func (w *workload) op(i uint64) (output, error) {
	if w.spec.http {
		body, err := w.body(i)
		if err != nil {
			return output{}, err
		}
		return w.simulate(body)
	}
	c, err := qasm.Parse(strings.NewReader(w.text))
	if err != nil {
		return output{}, err
	}
	res, err := hsfsim.Simulate(c, w.spec.options())
	if err != nil {
		return output{}, err
	}
	return output{amps: res.Amplitudes, total: len(res.Amplitudes), paths: res.NumPaths}, nil
}

// body is op i's request body; a direct workload has the one op 0.
func (w *workload) body(i uint64) ([]byte, error) {
	text, err := w.inst.qasmText(i)
	if err != nil {
		return nil, err
	}
	return w.spec.request(text)
}

// fetch makes one request (a POST when body is not nil) and returns the
// status and the whole response body.
func (w *workload) fetch(path string, body []byte) (int, []byte, error) {
	var resp *http.Response
	var err error
	if body != nil {
		resp, err = w.client.Post(w.srv.URL+path, "application/json", bytes.NewReader(body))
	} else {
		resp, err = w.client.Get(w.srv.URL + path)
	}
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 && resp.StatusCode != http.StatusConflict {
		w.non200.Add(1)
	}
	return resp.StatusCode, raw, err
}

// simulate posts body to /simulate and decodes the SimulateResponse.
func (w *workload) simulate(body []byte) (output, error) {
	status, raw, err := w.fetch("/simulate", body)
	if err != nil {
		return output{}, err
	}
	if status != http.StatusOK {
		return output{}, fmt.Errorf("POST /simulate: status %d: %.200s", status, raw)
	}
	return decodeResponse(raw)
}

func decodeResponse(raw []byte) (output, error) {
	var sr server.SimulateResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return output{}, err
	}
	out := output{total: sr.AmplitudesTotal, paths: sr.NumPaths, bytes: len(raw),
		amps: make([]complex128, len(sr.Amplitudes))}
	for k, a := range sr.Amplitudes {
		out.amps[k] = complex(a.Re, a.Im)
	}
	return out, nil
}

// check verifies one op's output. Amplitudes of a direct op are compared
// with the set-up oracle; those of an HTTP op with a Schrödinger run of its
// own body when deep is set.
func (w *workload) check(i uint64, out output, deep bool) error {
	if out.total != w.wantLen {
		return fmt.Errorf("%d amplitudes, want %d", out.total, w.wantLen)
	}
	if out.paths != w.wantPaths {
		return fmt.Errorf("%d paths, want %d", out.paths, w.wantPaths)
	}
	oracle := w.oracle
	if w.spec.http {
		if !deep {
			return nil
		}
		if len(out.amps) != min(w.wantLen, server.MaxReturnedAmplitudes) {
			return fmt.Errorf("%d echoed amplitudes", len(out.amps))
		}
		text, err := w.inst.qasmText(i)
		if err != nil {
			return err
		}
		c, err := qasm.Parse(strings.NewReader(text))
		if err != nil {
			return err
		}
		if oracle, err = w.otherMethod(c); err != nil {
			return err
		}
	}
	return agree(out.amps, oracle)
}

// agree compares got with want on their common prefix: every one of the
// first checkPrefix amplitudes and every checkStride-th after them.
func agree(got, want []complex128) error {
	n := min(len(got), len(want))
	if n == 0 {
		return fmt.Errorf("no amplitudes to compare")
	}
	for k := 0; k < n; k++ {
		if k >= checkPrefix && k%checkStride != 0 {
			continue
		}
		if d := cmplx.Abs(got[k] - want[k]); !(d <= tol) {
			return fmt.Errorf("amplitude %d off the oracle by %.3g", k, d)
		}
	}
	return nil
}

// engineOptions are the engine options of the workload's joint-HSF run.
func (s spec) engineOptions(workers int) hsf.Options {
	return hsf.Options{MaxAmplitudes: s.hsfAmps(), Workers: workers}
}
