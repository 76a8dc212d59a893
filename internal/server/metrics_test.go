package server

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"hsfsim/internal/dist"
	"hsfsim/internal/statevec"
	"hsfsim/internal/telemetry"
)

// promSample is one exposition sample line: name, raw label block, value.
type promSample struct {
	name   string
	labels string
	value  float64
}

// promFamily is one metric family assembled from # HELP/# TYPE plus samples.
type promFamily struct {
	typ     string
	help    bool
	samples []promSample
}

// scrapeMetrics fetches url and parses the Prometheus text exposition format
// (v0.0.4) strictly enough to catch malformed output: every sample must
// belong to a family announced by # TYPE, and values must parse as floats.
func scrapeMetrics(t *testing.T, url string) map[string]*promFamily {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PrometheusContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, telemetry.PrometheusContentType)
	}

	fams := map[string]*promFamily{}
	family := func(name string) *promFamily {
		if fams[name] == nil {
			fams[name] = &promFamily{}
		}
		return fams[name]
	}
	// baseOf strips histogram sample suffixes when the base family was
	// declared as a histogram.
	baseOf := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name {
				if f, ok := fams[base]; ok && f.typ == "histogram" {
					return base
				}
			}
		}
		return name
	}

	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			family(parts[0]).help = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			family(parts[0]).typ = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample: name[{labels}] value
		var name, labels, val string
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("malformed sample line: %q", line)
			}
			name, labels, val = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
		} else {
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Fatalf("malformed sample line: %q", line)
			}
			name, val = fields[0], fields[1]
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value %q: %v", name, val, err)
		}
		base := baseOf(name)
		f, ok := fams[base]
		if !ok || f.typ == "" {
			t.Fatalf("sample %q has no preceding # TYPE", name)
		}
		f.samples = append(f.samples, promSample{name: name, labels: labels, value: v})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return fams
}

// checkHistogram validates one histogram family: cumulative nondecreasing
// buckets ending in le="+Inf", whose count equals the _count sample, plus a
// _sum sample.
func checkHistogram(t *testing.T, fams map[string]*promFamily, name string) {
	t.Helper()
	f := fams[name]
	if f == nil || f.typ != "histogram" || !f.help {
		t.Fatalf("histogram %s missing or not announced (have %+v)", name, f)
	}
	var buckets []promSample
	var count, sum *promSample
	for i, s := range f.samples {
		switch s.name {
		case name + "_bucket":
			buckets = append(buckets, s)
		case name + "_count":
			count = &f.samples[i]
		case name + "_sum":
			sum = &f.samples[i]
		}
	}
	if len(buckets) < 2 || count == nil || sum == nil {
		t.Fatalf("%s: incomplete histogram: %d buckets, count=%v sum=%v", name, len(buckets), count, sum)
	}
	prev := -1.0
	for _, b := range buckets {
		if !strings.HasPrefix(b.labels, `le="`) {
			t.Fatalf("%s bucket without le label: %+v", name, b)
		}
		if b.value < prev {
			t.Fatalf("%s buckets not cumulative: %v after %v", name, b.value, prev)
		}
		prev = b.value
	}
	last := buckets[len(buckets)-1]
	if last.labels != `le="+Inf"` {
		t.Fatalf("%s: final bucket is %q, want le=\"+Inf\"", name, last.labels)
	}
	if last.value != count.value {
		t.Fatalf("%s: +Inf bucket %v != count %v", name, last.value, count.value)
	}
}

// TestPrometheusMetricsScrape runs a simulation, scrapes /metrics, and parses
// the exposition: every expvar counter must appear as an announced counter,
// the three latency histograms must be well-formed, and runtime gauges must
// be present.
func TestPrometheusMetricsScrape(t *testing.T) {
	svc := NewService(quietConfig())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	cutPos := 3
	resp := post(t, srv, "/simulate", SimulateRequest{QASM: distQASM(8, 10, 11), Method: "joint", CutPos: &cutPos})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d", resp.StatusCode)
	}

	fams := scrapeMetrics(t, srv.URL+"/metrics")

	for _, name := range []string{
		"hsfsimd_requests_total", "hsfsimd_simulations_total",
		"hsfsimd_paths_simulated_total", "hsfsimd_shed_429_total",
		"hsfsimd_worker_runs_total",
		"hsfsimd_dist_leases_granted_total", "hsfsimd_dist_lease_reassignments_total",
		"hsfsimd_dist_workers_retired_total", "hsfsimd_dist_prefixes_merged_total",
		"hsfsimd_dist_paths_simulated_total", "hsfsimd_gc_cycles_total",
	} {
		f := fams[name]
		if f == nil || f.typ != "counter" || !f.help || len(f.samples) != 1 {
			t.Fatalf("counter %s missing or malformed: %+v", name, f)
		}
		if f.samples[0].value < 0 {
			t.Fatalf("counter %s negative: %v", name, f.samples[0].value)
		}
	}
	for _, name := range []string{
		"hsfsimd_in_flight", "hsfsimd_dist_leases_in_flight",
		"hsfsimd_heap_alloc_bytes", "hsfsimd_heap_sys_bytes",
		"hsfsimd_gc_pause_seconds_total", "hsfsimd_goroutines",
	} {
		f := fams[name]
		if f == nil || f.typ != "gauge" || !f.help || len(f.samples) != 1 {
			t.Fatalf("gauge %s missing or malformed: %+v", name, f)
		}
	}
	info := fams["hsfsimd_build_info"]
	if info == nil || info.typ != "gauge" || !info.help || len(info.samples) != 1 {
		t.Fatalf("hsfsimd_build_info missing or malformed: %+v", info)
	}
	if s := info.samples[0]; s.value != 1 ||
		!strings.Contains(s.labels, `go_version="`+runtime.Version()+`"`) ||
		!strings.Contains(s.labels, `kernel_isa="`+statevec.KernelISA()+`"`) {
		t.Fatalf("hsfsimd_build_info sample %+v, want value 1 with go_version and kernel_isa labels", s)
	}

	checkHistogram(t, fams, "hsfsimd_leaf_latency_seconds")
	checkHistogram(t, fams, "hsfsimd_leaf_fold_seconds")
	checkHistogram(t, fams, "hsfsimd_segment_sweep_seconds")
	checkHistogram(t, fams, "hsfsimd_dist_lease_duration_seconds")

	if v := fams["hsfsimd_requests_total"].samples[0].value; v < 1 {
		t.Fatalf("requests_total = %v, want ≥ 1", v)
	}
	if v := fams["hsfsimd_simulations_total"].samples[0].value; v < 1 {
		t.Fatalf("simulations_total = %v, want ≥ 1", v)
	}
	if v := fams["hsfsimd_heap_alloc_bytes"].samples[0].value; v <= 0 {
		t.Fatalf("heap_alloc_bytes = %v, want > 0", v)
	}
}

// TestDistStatsScopedPerService is the shared-counter regression test: a
// distributed run on one coordinator must not bleed lease stats into another
// service in the same process, while the process-global expvar aggregation
// still sees the activity.
func TestDistStatsScopedPerService(t *testing.T) {
	worker := newService(quietConfig())
	w := httptest.NewServer(worker.routes())
	defer w.Close()
	bystander := newService(quietConfig())

	coord := NewService(quietConfig())
	co := httptest.NewServer(coord.Handler())
	defer co.Close()
	coord.AddWorker(hostPort(w))

	granted0 := sumDistStats(func(st *dist.Stats) int64 { return st.LeasesGranted.Load() })

	cutPos := 3
	req := SimulateRequest{QASM: distQASM(8, 10, 11), Method: "joint", CutPos: &cutPos, Distribute: true}
	resp := post(t, co, "/simulate", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distributed simulate: status %d", resp.StatusCode)
	}

	if got := coord.svc.distStats.LeasesGranted.Load(); got < 1 {
		t.Fatalf("coordinator granted %d leases, want ≥ 1", got)
	}
	if got := worker.distStats.LeasesGranted.Load(); got != 0 {
		t.Fatalf("worker service shows %d granted leases; stats leaked across services", got)
	}
	if got := bystander.distStats.LeasesGranted.Load(); got != 0 {
		t.Fatalf("bystander service shows %d granted leases; stats leaked across services", got)
	}
	granted1 := sumDistStats(func(st *dist.Stats) int64 { return st.LeasesGranted.Load() })
	if granted1-granted0 != coord.svc.distStats.LeasesGranted.Load() {
		t.Fatalf("process aggregate grew by %d, coordinator granted %d",
			granted1-granted0, coord.svc.distStats.LeasesGranted.Load())
	}
	if coord.svc.leaseDurations.Count() < 1 {
		t.Fatalf("coordinator lease-duration histogram empty after distributed run")
	}
	if worker.leaseDurations.Count() != 0 {
		t.Fatalf("worker service recorded %d lease durations; OnLease leaked", worker.leaseDurations.Count())
	}
}
