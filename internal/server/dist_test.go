package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/cmplx"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hsfsim"
	"hsfsim/internal/dist"
	"hsfsim/internal/hsf"
)

// distQASM builds a QAOA-style circuit with enough crossing entanglers that a
// joint-cut plan has a multi-level prefix space worth sharding.
func distQASM(n, edges int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	fmt.Fprintf(&b, "qreg q[%d];\n", n)
	for q := 0; q < n; q++ {
		fmt.Fprintf(&b, "h q[%d];\n", q)
	}
	for i := 0; i < edges; i++ {
		a := rng.Intn(n)
		c := (a + 1 + rng.Intn(n-1)) % n
		fmt.Fprintf(&b, "rzz(%.6f) q[%d],q[%d];\n", rng.Float64()*2, a, c)
	}
	for q := 0; q < n; q++ {
		fmt.Fprintf(&b, "rx(%.6f) q[%d];\n", rng.Float64(), q)
	}
	return b.String()
}

func hostPort(srv *httptest.Server) string {
	return strings.TrimPrefix(srv.URL, "http://")
}

func quietConfig() Config {
	return Config{Logger: log.New(io.Discard, "", 0)}
}

// TestSimulateDistributeOverHTTP drives distribute:true end to end: a
// coordinator daemon fans the job out to two worker daemons over real HTTP
// and the merged amplitudes must match the same daemon simulating locally.
func TestSimulateDistributeOverHTTP(t *testing.T) {
	w1 := httptest.NewServer(New())
	defer w1.Close()
	w2 := httptest.NewServer(New())
	defer w2.Close()

	svc := NewService(quietConfig())
	co := httptest.NewServer(svc.Handler())
	defer co.Close()
	svc.AddWorker(hostPort(w1))
	svc.AddWorker(hostPort(w2))

	cutPos := 3
	req := SimulateRequest{QASM: distQASM(8, 10, 11), Method: "joint", CutPos: &cutPos}

	resp := post(t, co, "/simulate", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("local simulate: status %d: %s", resp.StatusCode, body)
	}
	var local SimulateResponse
	if err := json.NewDecoder(resp.Body).Decode(&local); err != nil {
		t.Fatal(err)
	}

	req.Distribute = true
	resp = post(t, co, "/simulate", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("distributed simulate: status %d: %s", resp.StatusCode, body)
	}
	var distResp SimulateResponse
	if err := json.NewDecoder(resp.Body).Decode(&distResp); err != nil {
		t.Fatal(err)
	}
	if !distResp.Distributed || distResp.DistWorkers != 2 {
		t.Fatalf("distributed response: %+v", distResp)
	}
	if distResp.DistBatches < 2 {
		t.Fatalf("want ≥ 2 batches, got %d", distResp.DistBatches)
	}
	if len(distResp.Amplitudes) != len(local.Amplitudes) {
		t.Fatalf("amplitude count %d != %d", len(distResp.Amplitudes), len(local.Amplitudes))
	}
	for i := range local.Amplitudes {
		d := cmplx.Abs(complex(distResp.Amplitudes[i].Re-local.Amplitudes[i].Re,
			distResp.Amplitudes[i].Im-local.Amplitudes[i].Im))
		if d > 1e-12 {
			t.Fatalf("amplitude %d differs by %g", i, d)
		}
	}
}

func TestSimulateDistributeWithoutWorkers(t *testing.T) {
	srv := httptest.NewServer(NewWithConfig(quietConfig()))
	defer srv.Close()
	cutPos := 0
	resp := post(t, srv, "/simulate", SimulateRequest{
		QASM: bellQASM, Method: "joint", CutPos: &cutPos, Distribute: true,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}

func TestSimulateDistributeRejectsSchrodinger(t *testing.T) {
	svc := NewService(quietConfig())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	svc.AddWorker("127.0.0.1:1") // fleet non-empty; method check comes first
	resp := post(t, srv, "/simulate", SimulateRequest{
		QASM: bellQASM, Method: "schrodinger", Distribute: true,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestDistRunEndpoint exercises the worker endpoint directly: a full-prefix
// lease must return a checkpoint whose accumulator equals the local result,
// and a wrong plan hash must be refused with 409 (a permanent status).
func TestDistRunEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewWithConfig(quietConfig()))
	defer srv.Close()

	job := dist.Job{QASM: distQASM(8, 10, 12), Method: "joint", CutPos: 3}
	opts, err := job.Options()
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseCircuit(job.QASM)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := hsfsim.Compile(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := cp.CutPlan()
	splitLevels := hsf.ChooseSplitLevels(plan, 4)
	prefixes := hsf.EnumeratePrefixes(plan, splitLevels)
	req := dist.RunRequest{
		Job:         job,
		PlanHash:    hsf.PlanHash(plan),
		SplitLevels: splitLevels,
		Prefixes:    prefixes,
	}

	resp := post(t, srv, "/dist/run", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}
	ck, err := hsf.ReadCheckpoint(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Prefixes) != len(prefixes) {
		t.Fatalf("checkpoint has %d prefixes, leased %d", len(ck.Prefixes), len(prefixes))
	}
	want, err := hsf.Run(plan, hsf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Amplitudes {
		if d := cmplx.Abs(ck.Acc[i] - want.Amplitudes[i]); d > 1e-12 {
			t.Fatalf("amplitude %d differs by %g", i, d)
		}
	}

	req.PlanHash++
	resp2 := post(t, srv, "/dist/run", req)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("plan mismatch: status %d, want 409", resp2.StatusCode)
	}
}

func TestDistRegisterAndWorkers(t *testing.T) {
	svc := NewService(quietConfig())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp := post(t, srv, "/dist/register", dist.RegisterRequest{Addr: "worker-a:9000"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	var reg dist.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if reg.Workers != 1 || reg.TTLMillis <= 0 {
		t.Fatalf("register response: %+v", reg)
	}

	wresp, err := http.Get(srv.URL + "/dist/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	var list dist.WorkerList
	if err := json.NewDecoder(wresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Workers) != 1 || list.Workers[0] != "worker-a:9000" {
		t.Fatalf("workers: %v", list.Workers)
	}

	// Empty address is refused.
	resp2 := post(t, srv, "/dist/register", dist.RegisterRequest{Addr: "  "})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty register: status %d, want 400", resp2.StatusCode)
	}
}

// TestMetricsExposed checks the expvar surface: /debug/vars carries the
// hsfsimd map and /readyz echoes the counter snapshot.
func TestMetricsExposed(t *testing.T) {
	svc := NewService(quietConfig())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	svc.AddWorker("worker-a:9000")

	cutPos := 0
	resp := post(t, srv, "/simulate", SimulateRequest{QASM: bellQASM, Method: "joint", CutPos: &cutPos})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d", resp.StatusCode)
	}

	dv, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Body.Close()
	var vars struct {
		Hsfsimd map[string]json.Number `json:"hsfsimd"`
	}
	if err := json.NewDecoder(dv.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"requests_total", "simulations_total", "paths_simulated_total",
		"shed_429_total", "in_flight", "worker_runs_total",
		"dist_leases_granted_total", "dist_lease_reassignments_total",
	} {
		if _, ok := vars.Hsfsimd[key]; !ok {
			t.Fatalf("/debug/vars hsfsimd map missing %q (have %v)", key, vars.Hsfsimd)
		}
	}
	if n, _ := vars.Hsfsimd["requests_total"].Int64(); n < 1 {
		t.Fatalf("requests_total = %d, want ≥ 1", n)
	}
	if n, _ := vars.Hsfsimd["simulations_total"].Int64(); n < 1 {
		t.Fatalf("simulations_total = %d, want ≥ 1", n)
	}
	if n, _ := vars.Hsfsimd["paths_simulated_total"].Int64(); n < 1 {
		t.Fatalf("paths_simulated_total = %d, want ≥ 1", n)
	}

	rz, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rz.Body.Close()
	var ready readyBody
	if err := json.NewDecoder(rz.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if ready.RequestsTotal < 1 || ready.SimulationsTotal < 1 {
		t.Fatalf("readyz counters: %+v", ready)
	}
	if ready.Workers != 1 {
		t.Fatalf("readyz dist_workers = %d, want 1", ready.Workers)
	}
}
