package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hsfsim"
	"hsfsim/internal/jobs"
)

// slowQASM builds a standard-HSF workload with 2^cuts Feynman paths of cheap
// per-path work: enough wall clock for tests to observe queued/running states
// without burning real compute.
func slowQASM(n, cuts int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "OPENQASM 2.0;\nqreg q[%d];\n", n)
	for q := 0; q < n; q++ {
		fmt.Fprintf(&b, "h q[%d];\n", q)
	}
	for i := 0; i < cuts; i++ {
		fmt.Fprintf(&b, "rz(0.%d) q[%d];\n", i+1, i%n)
		fmt.Fprintf(&b, "cx q[%d],q[%d];\n", n/2-1, n/2)
	}
	return b.String()
}

func newJobsTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := NewService(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		// Cancel whatever is still queued or running so teardown doesn't wait
		// out slow walks, then close the manager.
		for _, s := range svc.Jobs().List("") {
			if !s.State.Terminal() {
				_, _ = svc.Jobs().Cancel(s.ID)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.CloseJobs(ctx)
		srv.Close()
	})
	return svc, srv
}

func submitJob(t *testing.T, srv *httptest.Server, req JobSubmitRequest) (jobs.Snapshot, *http.Response) {
	t.Helper()
	resp := post(t, srv, "/jobs", req)
	t.Cleanup(func() { resp.Body.Close() })
	var snap jobs.Snapshot
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return snap, resp
}

func waitJobState(t *testing.T, srv *httptest.Server, id string, want jobs.State) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(srv.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var snap jobs.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, snap.State, snap.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobs.Snapshot{}
}

// TestJobLifecycle covers the submit → poll → result path and checks the
// job's amplitudes against a direct Simulate call on the same circuit.
func TestJobLifecycle(t *testing.T) {
	_, srv := newJobsTestServer(t, Config{})

	snap, resp := submitJob(t, srv, JobSubmitRequest{
		SimulateRequest: SimulateRequest{QASM: bellQASM, Method: "joint"},
		Tenant:          "alice",
		Priority:        3,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if snap.ID == "" || snap.Tenant != "alice" || snap.Priority != 3 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+snap.ID {
		t.Fatalf("Location %q", loc)
	}
	// Satellite: the request ID assigned by the HTTP layer must ride into the
	// job so log lines on both sides correlate.
	if reqID := resp.Header.Get("X-Request-Id"); snap.RequestID != reqID || reqID == "" {
		t.Fatalf("request ID not propagated: header %q, snapshot %q", reqID, snap.RequestID)
	}

	done := waitJobState(t, srv, snap.ID, jobs.StateDone)
	if done.NumQubits != 2 {
		t.Fatalf("done snapshot NumQubits = %d", done.NumQubits)
	}

	rresp, err := http.Get(srv.URL + "/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", rresp.StatusCode)
	}
	var got SimulateResponse
	if err := json.NewDecoder(rresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.NumQubits != 2 || len(got.Amplitudes) != 4 {
		t.Fatalf("result: qubits=%d amps=%d", got.NumQubits, len(got.Amplitudes))
	}
	c, err := parseCircuit(bellQASM)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.JointHSF})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range got.Amplitudes {
		if math.Abs(a.Re-real(want.Amplitudes[i]))+math.Abs(a.Im-imag(want.Amplitudes[i])) > 1e-12 {
			t.Fatalf("amplitude %d: job (%g,%g) vs direct %v", i, a.Re, a.Im, want.Amplitudes[i])
		}
	}

	// The job shows up in the list, and tenant filtering works.
	var list JobListResponse
	lresp, err := http.Get(srv.URL + "/jobs?tenant=alice")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != snap.ID {
		t.Fatalf("list: %+v", list.Jobs)
	}
	lresp2, err := http.Get(srv.URL + "/jobs?tenant=nobody")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp2.Body.Close()
	if err := json.NewDecoder(lresp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("tenant filter leaked: %+v", list.Jobs)
	}
}

func TestJobSubmitRejections(t *testing.T) {
	_, srv := newJobsTestServer(t, Config{})

	_, resp := submitJob(t, srv, JobSubmitRequest{
		SimulateRequest: SimulateRequest{QASM: "not qasm", Method: "joint"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad qasm: status %d", resp.StatusCode)
	}

	_, resp = submitJob(t, srv, JobSubmitRequest{
		SimulateRequest: SimulateRequest{QASM: bellQASM, Method: "schrodinger", Distribute: true},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("distribute+schrodinger: status %d", resp.StatusCode)
	}

	if r, err := http.Get(srv.URL + "/jobs/job-missing"); err != nil {
		t.Fatal(err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: status %d", r.StatusCode)
		}
	}
}

// TestMaxBlockQubitsLimit checks the trust-boundary bound on the planner's
// block size on every route that plans: MaxBlockQubits is accepted, one more
// is a 422 with the JSON error envelope.
func TestMaxBlockQubitsLimit(t *testing.T) {
	_, srv := newJobsTestServer(t, Config{})
	sim := func(n int) SimulateRequest {
		return SimulateRequest{QASM: cascadeQASM, Strategy: "window", MaxBlockQubits: n}
	}
	for _, tc := range []struct {
		path     string
		body     func(n int) any
		accepted int
	}{
		{"/simulate", func(n int) any { return sim(n) }, http.StatusOK},
		{"/analyze", func(n int) any { return AnalyzeRequest{QASM: cascadeQASM, Strategy: "window", MaxBlockQubits: n} }, http.StatusOK},
		{"/jobs", func(n int) any { return JobSubmitRequest{SimulateRequest: sim(n)} }, http.StatusAccepted},
	} {
		resp := post(t, srv, tc.path, tc.body(MaxBlockQubits))
		resp.Body.Close()
		if resp.StatusCode != tc.accepted {
			t.Errorf("%s at %d: status %d, want %d", tc.path, MaxBlockQubits, resp.StatusCode, tc.accepted)
		}
		resp = post(t, srv, tc.path, tc.body(MaxBlockQubits+1))
		var e errorBody
		err := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity || err != nil || !strings.Contains(e.Error, "max_block_qubits") {
			t.Errorf("%s at %d: status %d, error %q (%v), want 422 naming max_block_qubits",
				tc.path, MaxBlockQubits+1, resp.StatusCode, e.Error, err)
		}
	}
}

func TestJobCancelAndResultConflict(t *testing.T) {
	// One runner pinned on a slow job keeps the second job queued, so cancel
	// and the 409 no-result path are deterministic.
	_, srv := newJobsTestServer(t, Config{JobRunners: 1})
	slow, resp := submitJob(t, srv, JobSubmitRequest{
		SimulateRequest: SimulateRequest{QASM: slowQASM(16, 15), Method: "standard"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow submit: %d", resp.StatusCode)
	}
	queued, resp := submitJob(t, srv, JobSubmitRequest{
		SimulateRequest: SimulateRequest{QASM: bellQASM, Method: "joint"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: %d", resp.StatusCode)
	}

	rr, err := http.Get(srv.URL + "/jobs/" + queued.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("result of unfinished job: status %d, want 409", rr.StatusCode)
	}

	cr, err := http.Post(srv.URL+"/jobs/"+queued.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Body.Close()
	var snap jobs.Snapshot
	if err := json.NewDecoder(cr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.State != jobs.StateCancelled {
		t.Fatalf("cancel state %s", snap.State)
	}
	if _, err := http.Post(srv.URL+"/jobs/"+slow.ID+"/cancel", "application/json", nil); err != nil {
		t.Fatal(err)
	}
}

// TestJobQueueFullRetryAfterAndReadyz fills the queue and checks the two
// saturation surfaces: submit 429s carry Retry-After, and /readyz flips to
// 503 "saturated" reporting queue depth.
func TestJobQueueFullRetryAfterAndReadyz(t *testing.T) {
	_, srv := newJobsTestServer(t, Config{JobRunners: 1, JobQueueCap: 2})

	var shed *http.Response
	for i := 0; i < 10; i++ {
		_, resp := submitJob(t, srv, JobSubmitRequest{
			SimulateRequest: SimulateRequest{QASM: slowQASM(16, 15), Method: "standard"},
		})
		if resp.StatusCode == http.StatusTooManyRequests {
			shed = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	if shed == nil {
		t.Fatal("queue (cap 2) never shed a submission")
	}
	ra, err := strconv.Atoi(shed.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q on shed submit", shed.Header.Get("Retry-After"))
	}

	rresp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with full queue: status %d, want 503", rresp.StatusCode)
	}
	var body struct {
		Status       string `json:"status"`
		JobsQueued   int    `json:"jobs_queued"`
		JobsQueueCap int    `json:"jobs_queue_cap"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "saturated" || body.JobsQueued < body.JobsQueueCap || body.JobsQueueCap != 2 {
		t.Fatalf("readyz body: %+v", body)
	}
	if rresp.Header.Get("Retry-After") == "" {
		t.Fatal("saturated /readyz missing Retry-After")
	}
}

func TestJobTenantQuota(t *testing.T) {
	_, srv := newJobsTestServer(t, Config{JobRunners: 1, TenantQuota: 1})

	_, resp := submitJob(t, srv, JobSubmitRequest{
		SimulateRequest: SimulateRequest{QASM: slowQASM(16, 15), Method: "standard"},
		Tenant:          "a",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	_, resp = submitJob(t, srv, JobSubmitRequest{
		SimulateRequest: SimulateRequest{QASM: bellQASM, Method: "joint"},
		Tenant:          "a",
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 missing Retry-After")
	}
	// A different tenant is unaffected by a's quota.
	_, resp = submitJob(t, srv, JobSubmitRequest{
		SimulateRequest: SimulateRequest{QASM: bellQASM, Method: "joint"},
		Tenant:          "b",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant: status %d", resp.StatusCode)
	}
}

// TestJobBatchingSharedPlan pins the batching contract end to end: two
// identical submissions queued behind a busy runner run as ONE batch sharing
// one compiled plan and one walk, visible in the snapshots and the manager's
// telemetry counters; a near-miss circuit (one angle differs) keys apart.
func TestJobBatchingSharedPlan(t *testing.T) {
	svc, srv := newJobsTestServer(t, Config{JobRunners: 1})

	before := svc.Jobs().Stats()
	// The blocker pins the single runner while the twins queue. Its walk has
	// 2^18 paths — far more than 1.5s of work with or without the race
	// detector — and the request timeout cancels it cooperatively at exactly
	// 1.5s of wall clock, so the pin's duration is deterministic in both
	// modes: long enough for three ms-scale submissions, short enough to
	// keep the test fast.
	_, resp := submitJob(t, srv, JobSubmitRequest{
		SimulateRequest: SimulateRequest{QASM: slowQASM(16, 18), Method: "standard", TimeoutMillis: 1500},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: %d", resp.StatusCode)
	}
	var twins [2]jobs.Snapshot
	for i := range twins {
		snap, resp := submitJob(t, srv, JobSubmitRequest{
			SimulateRequest: SimulateRequest{QASM: cascadeQASM, Method: "joint"},
			Tenant:          "twin",
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("twin %d: %d", i, resp.StatusCode)
		}
		twins[i] = snap
	}
	if twins[0].Fingerprint != twins[1].Fingerprint {
		t.Fatalf("identical submissions keyed apart: %x vs %x", twins[0].Fingerprint, twins[1].Fingerprint)
	}
	nearMiss, resp := submitJob(t, srv, JobSubmitRequest{
		SimulateRequest: SimulateRequest{QASM: strings.Replace(cascadeQASM, "rzz(0.3)", "rzz(0.30000001)", 1), Method: "joint"},
		Tenant:          "twin",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("near miss: %d", resp.StatusCode)
	}
	if nearMiss.Fingerprint == twins[0].Fingerprint {
		t.Fatal("near-miss circuit collided with the twins' plan key")
	}

	for _, tw := range twins {
		done := waitJobState(t, srv, tw.ID, jobs.StateDone)
		if done.BatchSize != 2 {
			t.Fatalf("twin %s: batch size %d, want 2", tw.ID, done.BatchSize)
		}
	}
	waitJobState(t, srv, nearMiss.ID, jobs.StateDone)

	after := svc.Jobs().Stats()
	if got := after.BatchedJobs - before.BatchedJobs; got < 2 {
		t.Fatalf("batched jobs counter rose by %d, want >= 2", got)
	}
	// Two distinct circuits compiled (twins share one plan); the twin batch
	// is one walk, so batches < jobs completed.
	if after.PlanMisses-before.PlanMisses < 2 {
		t.Fatalf("plan misses: %+v -> %+v", before, after)
	}
	if after.Batches-before.Batches < 2 {
		t.Fatalf("batches: %+v -> %+v", before, after)
	}

	// Both twins return the same, correct amplitudes.
	want, err := hsfsim.Simulate(mustParse(t, cascadeQASM), hsfsim.Options{Method: hsfsim.JointHSF})
	if err != nil {
		t.Fatal(err)
	}
	for _, tw := range twins {
		rr, err := http.Get(srv.URL + "/jobs/" + tw.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var got SimulateResponse
		err = json.NewDecoder(rr.Body).Decode(&got)
		rr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range got.Amplitudes {
			if math.Abs(a.Re-real(want.Amplitudes[i]))+math.Abs(a.Im-imag(want.Amplitudes[i])) > 1e-12 {
				t.Fatalf("twin %s amplitude %d off: (%g,%g) vs %v", tw.ID, i, a.Re, a.Im, want.Amplitudes[i])
			}
		}
	}
}

func mustParse(t *testing.T, qasmSrc string) *hsfsim.Circuit {
	t.Helper()
	c, err := parseCircuit(qasmSrc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestJobEventsSSE consumes the event stream of a small job: progress/terminal
// framing, chunked amplitudes covering the full statevector, and a final
// event named after the terminal state.
func TestJobEventsSSE(t *testing.T) {
	_, srv := newJobsTestServer(t, Config{})
	snap, resp := submitJob(t, srv, JobSubmitRequest{
		SimulateRequest: SimulateRequest{QASM: bellQASM, Method: "joint"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	er, err := http.Get(srv.URL + "/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer er.Body.Close()
	if ct := er.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var (
		event    string
		data     []byte
		ampsSeen = map[int]Amplitude{}
		total    = -1
		final    jobs.Snapshot
		finalEvt string
	)
	sc := bufio.NewScanner(er.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() && finalEvt == "" {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			switch event {
			case "progress":
				var s jobs.Snapshot
				if err := json.Unmarshal(data, &s); err != nil {
					t.Fatalf("progress frame: %v", err)
				}
				if s.ID != snap.ID {
					t.Fatalf("progress for %s, want %s", s.ID, snap.ID)
				}
			case "amplitudes":
				var ch AmplitudeChunk
				if err := json.Unmarshal(data, &ch); err != nil {
					t.Fatalf("amplitudes frame: %v", err)
				}
				total = ch.Total
				for i, a := range ch.Amplitudes {
					ampsSeen[ch.Offset+i] = a
				}
			default:
				finalEvt = event
				if err := json.Unmarshal(data, &final); err != nil {
					t.Fatalf("terminal frame: %v", err)
				}
			}
			event, data = "", nil
		}
	}
	if finalEvt != "done" || final.State != jobs.StateDone {
		t.Fatalf("terminal event %q state %s", finalEvt, final.State)
	}
	if total != 4 || len(ampsSeen) != 4 {
		t.Fatalf("streamed %d/%d amplitudes", len(ampsSeen), total)
	}
	want, err := hsfsim.Simulate(mustParse(t, bellQASM), hsfsim.Options{Method: hsfsim.JointHSF})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		a := ampsSeen[i]
		if math.Abs(a.Re-real(want.Amplitudes[i]))+math.Abs(a.Im-imag(want.Amplitudes[i])) > 1e-12 {
			t.Fatalf("streamed amplitude %d off: (%g,%g) vs %v", i, a.Re, a.Im, want.Amplitudes[i])
		}
	}
}
