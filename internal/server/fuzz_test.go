package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"hsfsim"
	"hsfsim/internal/dist"
)

// TestBackendFieldRejected pins the removal of the walker backend knob on the
// wire: /simulate, POST /jobs and /dist/run answer a "backend" field, of any
// value, with 400 from their strict decoders.
func TestBackendFieldRejected(t *testing.T) {
	srv := httptest.NewServer(NewWithConfig(quietConfig()))
	defer srv.Close()
	bell, _ := json.Marshal(bellQASM)
	for _, backend := range []string{"dd", "dense"} {
		for _, tc := range []struct{ path, body string }{
			{"/simulate", `{"qasm":` + string(bell) + `,"method":"joint","backend":"` + backend + `"}`},
			{"/jobs", `{"qasm":` + string(bell) + `,"method":"joint","backend":"` + backend + `"}`},
			{"/dist/run", `{"job":{"qasm":` + string(bell) + `,"method":"standard","cut_pos":0,"backend":"` + backend + `"},` +
				`"plan_hash":"1","split_levels":0,"prefixes":[[]]}`},
		} {
			resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var e errorBody
			_ = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `unknown field "backend"`) {
				t.Errorf("%s with backend %q: status %d, error %q; want 400 naming the field", tc.path, backend, resp.StatusCode, e.Error)
			}
		}
	}
}

// FuzzSimulateRequest feeds arbitrary bytes through what /simulate and POST
// /jobs do before planning: the service's strict decoder, then
// simulateOptions. None may panic. The decoder rejects with 400, and
// simulateOptions with 400 or 422. An accepted body has no "backend" key,
// names a known method and strategy, and, when it asks to distribute, is an
// HSF run that survives dist.NewJob and Job.Options unchanged.
func FuzzSimulateRequest(f *testing.F) {
	for _, seed := range []string{
		`{"qasm":"qreg q[2]; h q[0]; cx q[0],q[1];","method":"joint","cut_pos":0}`,
		`{"qasm":"qreg q[4]; rzz(0.3) q[1],q[2];","method":"standard","strategy":"window","max_block_qubits":4,"max_amplitudes":8,"distribute":true}`,
		`{"qasm":"qreg q[3]; h q[0];","method":"schrodinger","timeout_ms":5}`,
		`{"qasm":"qreg q[4];","method":"joint","cut_pos":9,"tenant":"acme","priority":2}`,
		`{"qasm":"qreg q[2];","method":"schrodinger","distribute":true}`,
		`{"qasm":"qreg q[2];","method":"joint","backend":"dd"}`,
		`{"qasm":"qreg q[2];","method":"joint","backend":"dense"}`,
	} {
		f.Add([]byte(seed))
	}
	s := newService(quietConfig())
	f.Cleanup(func() { _ = s.jobs.Close(context.Background()) })
	f.Fuzz(func(t *testing.T, data []byte) {
		var sim SimulateRequest
		if decodeFuzzBody(t, s, "/simulate", data, &sim) {
			checkFuzzOptions(t, s, data, &sim)
		}
		var job JobSubmitRequest
		if decodeFuzzBody(t, s, "/jobs", data, &job) {
			checkFuzzOptions(t, s, data, &job.SimulateRequest)
		}
	})
}

// decodeFuzzBody runs data through the service's decoder as a POST to path
// and reports whether it was accepted.
func decodeFuzzBody(t *testing.T, s *service, path string, data []byte, v any) bool {
	w := httptest.NewRecorder()
	if s.decode(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)), v) {
		return true
	}
	if w.Code != http.StatusBadRequest {
		t.Fatalf("%s: decoder rejected %q with %d, want 400", path, data, w.Code)
	}
	return false
}

// checkFuzzOptions holds one decoded body to the rules of FuzzSimulateRequest.
func checkFuzzOptions(t *testing.T, s *service, data []byte, req *SimulateRequest) {
	var keys map[string]json.RawMessage
	if json.Unmarshal(data, &keys) == nil {
		for k := range keys {
			if strings.EqualFold(k, "backend") {
				t.Fatalf("decoder accepted a %q key: %q", k, data)
			}
		}
	}
	opts, status, err := s.simulateOptions(req, 8)
	if err != nil {
		if status != http.StatusBadRequest && status != http.StatusUnprocessableEntity {
			t.Fatalf("simulateOptions rejected %q with %d", data, status)
		}
		return
	}
	switch opts.Method {
	case hsfsim.Schrodinger, hsfsim.StandardHSF, hsfsim.JointHSF:
	default:
		t.Fatalf("accepted method %v", opts.Method)
	}
	if opts.BlockStrategy != hsfsim.BlockCascade && opts.BlockStrategy != hsfsim.BlockWindow {
		t.Fatalf("accepted strategy %v", opts.BlockStrategy)
	}
	if !req.Distribute {
		return
	}
	job, err := dist.NewJob(req.QASM, opts)
	if err != nil {
		t.Fatalf("accepted distribute body rejected by NewJob: %v", err)
	}
	back, err := job.Options()
	want := hsfsim.Options{Method: opts.Method, CutPos: opts.CutPos, BlockStrategy: opts.BlockStrategy,
		MaxBlockQubits: opts.MaxBlockQubits, Tol: opts.Tol, MaxAmplitudes: opts.MaxAmplitudes,
		FusionMaxQubits: opts.FusionMaxQubits}
	if err != nil || !reflect.DeepEqual(back, want) {
		t.Fatalf("NewJob round trip: got %+v, %v; want %+v", back, err, want)
	}
}
