// Tracing over real HTTP: the coordinator's traceparent header must join
// worker-side request spans to the coordinator's trace (visible through the
// worker's /debug/trace endpoint), retried lease attempts must carry the
// identical traceparent, and the worker execution-window headers must come
// back usable as worker-exec spans.
package dist_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hsfsim/internal/dist"
	"hsfsim/internal/server"
	"hsfsim/internal/telemetry/trace"
)

func tracedHTTPCtx(t *testing.T) (context.Context, *trace.Recorder, trace.SpanContext) {
	t.Helper()
	rec := trace.NewRecorder(0)
	sp := rec.Start(trace.SpanContext{}, "test-root")
	sc := sp.Context()
	t.Cleanup(sp.End)
	return trace.NewContext(context.Background(), rec, sc), rec, sc
}

func TestTraceparentPropagatesOverHTTP(t *testing.T) {
	job := &dist.Job{QASM: integQASM(8, 10, 61), Method: "joint", CutPos: 3}
	w1 := newWorkerServer()
	defer w1.Close()
	w2 := newWorkerServer()
	defer w2.Close()

	co := mustNew(t, dist.Config{Transport: &dist.HTTPTransport{}, Logger: discard()})
	co.AddWorker(workerAddr(w1))
	co.AddWorker(workerAddr(w2))

	ctx, rec, root := tracedHTTPCtx(t)
	if _, err := co.Run(ctx, job, dist.RunOptions{}); err != nil {
		t.Fatal(err)
	}

	// Coordinator side: the worker execution windows came back as headers
	// and were folded into the coordinator's trace as worker-exec spans.
	var execs int
	for _, ev := range rec.Snapshot() {
		if ev.Name == "worker-exec" {
			execs++
			if ev.Trace != root.Trace {
				t.Fatalf("worker-exec span on trace %s, want %s", ev.Trace, root.Trace)
			}
		}
	}
	if execs == 0 {
		t.Fatal("no worker-exec spans: execution-window headers did not round-trip")
	}

	// Worker side: /debug/trace filtered by the coordinator's trace ID must
	// return the /dist/run request spans that joined it. On a loaded machine
	// one worker can drain every lease before the other asks, and a worker
	// that served none has nothing under the trace (404), so both are asked.
	var joined int
	for _, w := range []*httptest.Server{w1, w2} {
		resp, err := http.Get(w.URL + "/debug/trace?run=" + root.Trace.String())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/trace: status %d, want 200", resp.StatusCode)
		}
		var tl struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
			t.Fatalf("decoding worker trace: %v", err)
		}
		// The filtered dump carries the request spans plus the engine spans
		// (compile, walk, prefix) that executed under them — all on the
		// coordinator's trace.
		for _, ev := range tl.TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			if got := ev.Args["trace"]; got != root.Trace.String() {
				t.Fatalf("worker span %q trace = %v, want %s", ev.Name, got, root.Trace)
			}
			if ev.Name == "/dist/run" {
				joined++
			}
		}
	}
	if joined == 0 {
		t.Fatal("no worker recorded /dist/run spans under the coordinator's trace ID")
	}
}

// flakyProxy rejects each worker's first /dist/run attempt with a 503 and
// forwards the rest, capturing every traceparent header it sees.
type flakyProxy struct {
	inner http.Handler

	mu       sync.Mutex
	rejected bool
	headers  []string
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.headers = append(f.headers, r.Header.Get(trace.Header))
	first := !f.rejected
	f.rejected = true
	f.mu.Unlock()
	if first {
		http.Error(w, "temporarily overloaded", http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func TestHTTPRetryCarriesSameTraceparent(t *testing.T) {
	job := &dist.Job{QASM: integQASM(8, 10, 62), Method: "joint", CutPos: 3}
	proxy := &flakyProxy{inner: server.NewWithConfig(server.Config{Logger: discard()})}
	srv := httptest.NewServer(proxy)
	defer srv.Close()

	co := mustNew(t, dist.Config{
		Transport: &dist.HTTPTransport{BaseBackoff: time.Millisecond},
		Logger:    discard(),
		BatchSize: 1 << 20, // one lease holds the whole prefix space
	})
	co.AddWorker(workerAddr(srv))

	ctx, rec, _ := tracedHTTPCtx(t)
	if _, err := co.Run(ctx, job, dist.RunOptions{}); err != nil {
		t.Fatal(err)
	}

	proxy.mu.Lock()
	headers := append([]string(nil), proxy.headers...)
	proxy.mu.Unlock()
	if len(headers) < 2 {
		t.Fatalf("worker saw %d attempts, want at least 2 (one rejected, one retried)", len(headers))
	}
	if headers[0] == "" {
		t.Fatal("first attempt carried no traceparent")
	}
	if headers[0] != headers[1] {
		t.Fatalf("retry changed the traceparent: %q then %q", headers[0], headers[1])
	}
	sc, err := trace.ParseTraceparent(headers[0])
	if err != nil {
		t.Fatalf("traceparent %q does not parse: %v", headers[0], err)
	}
	// The propagated span must be the retried lease's own span, recorded on
	// the coordinator under that same trace.
	var found bool
	for _, ev := range rec.Snapshot() {
		if ev.Name == "lease" && ev.Span == sc.Span {
			found = true
			if fmt.Sprintf("%s", ev.Trace) != sc.Trace.String() {
				t.Fatalf("lease span trace %s != propagated trace %s", ev.Trace, sc.Trace)
			}
		}
	}
	if !found {
		t.Fatalf("propagated span %s is not a recorded lease span", sc.Span)
	}
}
