// Tests for the HTTP transport's retry behavior: transient failures are
// retried in place with backoff (so a restarting worker or a network blip
// does not burn a coordinator strike), permanent replies and dead lease
// contexts are not.
package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hsfsim/internal/hsf"
)

// fastRetry returns a transport with near-zero, jitter-free backoff.
func fastRetry(attempts int) *HTTPTransport {
	return &HTTPTransport{
		MaxAttempts: attempts,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		randFloat:   func() float64 { return 0 },
	}
}

func testCheckpoint(paths int64) *hsf.Checkpoint {
	return &hsf.Checkpoint{
		PlanHash:       0xabcd,
		NumQubits:      3,
		M:              4,
		SplitLevels:    1,
		Prefixes:       [][]int{{0}, {1}},
		PathsSimulated: paths,
		Acc:            []complex128{1, 2i, 3, 0},
	}
}

func serveCheckpoint(t *testing.T, w http.ResponseWriter) {
	t.Helper()
	if err := hsf.WriteCheckpoint(w, testCheckpoint(1)); err != nil {
		t.Errorf("writing reply: %v", err)
	}
}

func TestHTTPTransportRetriesTransient(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "restarting", http.StatusServiceUnavailable)
			return
		}
		serveCheckpoint(t, w)
	}))
	defer srv.Close()

	ck, err := fastRetry(3).Run(context.Background(), srv.URL, &RunRequest{})
	if err != nil {
		t.Fatalf("Run after two 503s: %v", err)
	}
	if ck.PathsSimulated != 1 {
		t.Fatalf("decoded PathsSimulated=%d, want 1", ck.PathsSimulated)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

func TestHTTPTransportGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	_, err := fastRetry(3).Run(context.Background(), srv.URL, &RunRequest{})
	if err == nil {
		t.Fatal("Run succeeded against an always-503 worker")
	}
	if IsPermanent(err) {
		t.Fatalf("transient exhaustion classified permanent: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

func TestHTTPTransportPermanent4xxNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "plan mismatch", http.StatusConflict)
	}))
	defer srv.Close()

	_, err := fastRetry(3).Run(context.Background(), srv.URL, &RunRequest{})
	if err == nil || !IsPermanent(err) {
		t.Fatalf("Run = %v, want a permanent error", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (permanent errors must not be retried)", got)
	}
}

// TestHTTPTransportAttemptTimeoutRetries: a hung attempt is cut off by
// AttemptTimeout and retried while the lease itself is still live.
func TestHTTPTransportAttemptTimeoutRetries(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-release // first attempt hangs past the attempt timeout
			return
		}
		serveCheckpoint(t, w)
	}))
	defer srv.Close()
	defer close(release) // LIFO: unblock the parked handler before Close waits on it

	tr := fastRetry(2)
	tr.AttemptTimeout = 50 * time.Millisecond
	ck, err := tr.Run(context.Background(), srv.URL, &RunRequest{})
	if err != nil {
		t.Fatalf("Run after one hung attempt: %v", err)
	}
	if ck == nil || calls.Load() != 2 {
		t.Fatalf("ck=%v calls=%d, want a checkpoint on attempt 2", ck, calls.Load())
	}
}

// TestHTTPTransportDeadLeaseNotRetried: once the lease context is done, the
// transport reports the cancellation instead of burning retries.
func TestHTTPTransportDeadLeaseNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := fastRetry(3).Run(ctx, srv.URL, &RunRequest{})
	if err == nil {
		t.Fatal("Run succeeded on a dead lease")
	}
	if got := calls.Load(); got > 1 {
		t.Fatalf("server saw %d attempts on a canceled lease, want ≤ 1", got)
	}
}

// TestHTTPTransportHonorsRetryAfter: a 429 with Retry-After delays the next
// attempt by at least the advertised amount (capped).
func TestHTTPTransportHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var firstRetryAt atomic.Int64
	start := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		firstRetryAt.Store(int64(time.Since(start)))
		serveCheckpoint(t, w)
	}))
	defer srv.Close()

	if _, err := fastRetry(2).Run(context.Background(), srv.URL, &RunRequest{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d := time.Duration(firstRetryAt.Load()); d < time.Second {
		t.Fatalf("retry fired after %v, want ≥ 1s (Retry-After honored)", d)
	}
}
