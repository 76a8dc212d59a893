package server

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/cmplx"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hsfsim"
	"hsfsim/internal/dist"
	"hsfsim/internal/jobs"
)

// TestJobDistributedOverHTTP submits distribute:true to /jobs on a
// coordinator daemon with two HTTP worker daemons: the job's result must
// match the daemon simulating locally, its final snapshot must count every
// path of the plan, and its event stream must end with "done".
func TestJobDistributedOverHTTP(t *testing.T) {
	w1 := httptest.NewServer(New())
	defer w1.Close()
	w2 := httptest.NewServer(New())
	defer w2.Close()
	svc, srv := newJobsTestServer(t, quietConfig())
	svc.AddWorker(hostPort(w1))
	svc.AddWorker(hostPort(w2))

	cutPos := 3
	req := SimulateRequest{QASM: distQASM(8, 10, 13), Method: "joint", CutPos: &cutPos}
	resp := post(t, srv, "/simulate", req)
	defer resp.Body.Close()
	var local SimulateResponse
	if err := json.NewDecoder(resp.Body).Decode(&local); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("local simulate: status %d, %v", resp.StatusCode, err)
	}

	req.Distribute = true
	snap, sresp := submitJob(t, srv, JobSubmitRequest{SimulateRequest: req})
	if sresp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", sresp.StatusCode)
	}
	final := waitJobState(t, srv, snap.ID, jobs.StateDone)
	if final.PathsDone != int64(local.NumPaths) {
		t.Fatalf("final snapshot paths_done %d, want the plan's %d", final.PathsDone, local.NumPaths)
	}

	rr, err := http.Get(srv.URL + "/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	var res SimulateResponse
	if err := json.NewDecoder(rr.Body).Decode(&res); err != nil || rr.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d, %v", rr.StatusCode, err)
	}
	if res.PathsSimulated != int64(local.NumPaths) || len(res.Amplitudes) != len(local.Amplitudes) {
		t.Fatalf("distributed job result %d paths / %d amplitudes, local %d / %d",
			res.PathsSimulated, len(res.Amplitudes), local.NumPaths, len(local.Amplitudes))
	}
	for i, a := range local.Amplitudes {
		b := res.Amplitudes[i]
		if d := cmplx.Abs(complex(a.Re-b.Re, a.Im-b.Im)); d > 1e-12 {
			t.Fatalf("amplitude %d differs by %g", i, d)
		}
	}

	er, err := http.Get(srv.URL + "/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer er.Body.Close()
	var last string
	sc := bufio.NewScanner(er.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			last = ev
		}
	}
	if last != "done" {
		t.Fatalf("event stream ended with %q, want done", last)
	}
}

// TestJobAndDistResponsesGolden pins the bytes of the three /simulate-shaped
// replies — a local run, a distributed run, and a finished job's (truncated)
// result — built from fixed results. The goldens are what the handlers wrote
// before the replies shared one builder.
func TestJobAndDistResponsesGolden(t *testing.T) {
	local := &hsfsim.Result{Method: hsfsim.JointHSF, NumPaths: 16, Log2Paths: 4, PathsSimulated: 16,
		NumCuts: 2, NumBlocks: 1, NumSeparateCuts: 1, PreprocessTime: 1500 * time.Microsecond,
		SimTime: 2250 * time.Microsecond, Amplitudes: []complex128{0.5 + 0.25i, -0.125, 0, 1e-3i}}
	distributed := &hsfsim.Result{Method: hsfsim.StandardHSF, NumPaths: 1 << 20, Log2Paths: 20,
		PathsSimulated: 1 << 20, NumCuts: 20, NumSeparateCuts: 20, SimTime: 3125 * time.Microsecond,
		Amplitudes: []complex128{0.25, 0.75i}}
	amps := make([]complex128, MaxReturnedAmplitudes+3)
	for i := range amps {
		amps[i] = complex(float64(i)/7, -float64(i)/3)
	}
	job := &hsfsim.Result{Method: hsfsim.Schrodinger, NumPaths: 1, PathsSimulated: 1,
		PreprocessTime: 10 * time.Microsecond, SimTime: 990 * time.Microsecond, Amplitudes: amps}

	encode := func(resp SimulateResponse) []byte {
		rec := httptest.NewRecorder()
		writeJSON(rec, resp)
		return rec.Body.Bytes()
	}
	if got, want := string(encode(simulateResponse(local, 2, nil))),
		`{"method":"joint-hsf","num_qubits":2,"num_paths":16,"log2_paths":4,"num_cuts":2,"num_blocks":1,"preprocess_ms":1.5,"sim_ms":2.25,"paths_simulated":16,"amplitudes":[{"re":0.5,"im":0.25},{"re":-0.125,"im":0},{"re":0,"im":0},{"re":0,"im":0.001}],"amplitudes_total":4,"truncated":false}`+"\n"; got != want {
		t.Fatalf("local reply\n got %s\nwant %s", got, want)
	}
	fleet := &dist.Result{Workers: 2, Batches: 5, Reassignments: 1}
	if got, want := string(encode(simulateResponse(distributed, 20, fleet))),
		`{"method":"standard-hsf","num_qubits":20,"num_paths":1048576,"log2_paths":20,"num_cuts":20,"num_blocks":0,"preprocess_ms":0,"sim_ms":3.125,"paths_simulated":1048576,"amplitudes":[{"re":0.25,"im":0},{"re":0,"im":0.75}],"amplitudes_total":2,"truncated":false,"distributed":true,"dist_workers":2,"dist_batches":5,"dist_reassignments":1}`+"\n"; got != want {
		t.Fatalf("distributed reply\n got %s\nwant %s", got, want)
	}
	b := encode(simulateResponse(job, 13, nil))
	sum := sha256.Sum256(b)
	if got, want := hex.EncodeToString(sum[:]), "fe8cf6f32641006d95650d9cfadaf94cd6f1a6b328e56ae6fb4614471d5272ac"; got != want || len(b) != 177131 {
		t.Fatalf("job result reply: sha256 %s over %d bytes, want %s over 177131", got, len(b), want)
	}
}
