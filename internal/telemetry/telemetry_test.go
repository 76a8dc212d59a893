package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Span("x")()
	r.SetStructure(nil, nil, nil)
	r.AddKernelClasses([]string{"dense"}, []int64{1})
	r.ObserveSegment(0, time.Millisecond)
	r.Lease(LeaseEvent{})
	r.FinishRun(RunTotals{})
	r.Flush(nil)
	if wc := r.Worker(3, []int{2}); wc != nil {
		t.Fatalf("nil recorder returned non-nil worker counters")
	}
	if rep := r.Report(); rep != nil {
		t.Fatalf("nil recorder returned non-nil report")
	}
}

func TestWorkerCountersFlushAndReport(t *testing.T) {
	r := New()
	classNames := []string{"dense", "diagonal"}
	// Two segments: segment 0 has 3 dense gates, segment 1 has 1 dense +
	// 2 diagonal. One cut level of rank 2; each term has 1 diagonal gate.
	r.SetStructure(classNames,
		[][]int64{{3, 0}, {1, 2}},
		[][][]int64{{{0, 1}, {0, 1}}},
	)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := r.Worker(2, []int{2})
			for i := 0; i < 100; i++ {
				sampled := wc.Sample()
				t0 := time.Now()
				wc.Seg(0, sampled, t0)
				wc.CutTerm(0, i%2)
				wc.Seg(1, sampled, t0)
				wc.Leaf(sampled, t0)
				if i%2 == 0 {
					wc.Fork()
				}
				if i%8 == 7 || i == 99 { // folds of 8 and a last one of 4
					wc.Fold(i%8+1, i == 99, t0)
				}
			}
			wc.AddPool(10, 7)
			r.Flush(wc)
		}()
	}
	wg.Wait()
	r.FinishRun(RunTotals{TotalPaths: 400, Simulated: 400, Workers: 4, Elapsed: time.Second})

	rep := r.Report()
	if rep.Counters.Leaves != 400 {
		t.Fatalf("leaves = %d, want 400", rep.Counters.Leaves)
	}
	if rep.Counters.LeafFolds != 4*13 || rep.Counters.LeavesFolded != 400 || rep.LeafFold.Count != 4 {
		t.Fatalf("%d leaves folded in %d folds, %d timed; want 400 in 52, 4 timed",
			rep.Counters.LeavesFolded, rep.Counters.LeafFolds, rep.LeafFold.Count)
	}
	if rep.Counters.SegmentApplications != 800 {
		t.Fatalf("segment applications = %d, want 800", rep.Counters.SegmentApplications)
	}
	if rep.Counters.CutTermApplications != 400 {
		t.Fatalf("cut-term applications = %d, want 400", rep.Counters.CutTermApplications)
	}
	if rep.Counters.Forks != 200 {
		t.Fatalf("forks = %d, want 200", rep.Counters.Forks)
	}
	if rep.Counters.PoolGets != 40 || rep.Counters.PoolReuses != 28 {
		t.Fatalf("pool = %d/%d, want 40/28", rep.Counters.PoolGets, rep.Counters.PoolReuses)
	}
	// Classes: seg0 applied 400 times * 3 dense; seg1 400 * (1 dense + 2
	// diagonal); 400 cut terms * 1 diagonal each.
	if got := rep.KernelClasses["dense"]; got != 400*3+400*1 {
		t.Fatalf("dense class = %d, want %d", got, 400*3+400)
	}
	if got := rep.KernelClasses["diagonal"]; got != 400*2+400 {
		t.Fatalf("diagonal class = %d, want %d", got, 400*2+400)
	}
	if rep.Paths.Simulated != 400 || rep.Paths.PerSecond != 400 {
		t.Fatalf("paths = %+v", rep.Paths)
	}
	if rep.LeafLatency.Count == 0 {
		t.Fatalf("expected sampled leaf latency observations")
	}
	// 1-in-64 sampling of 100 leaf ticks per worker: each worker ticks
	// Sample() 100 times, so expect exactly one sample per worker.
	if got := rep.LeafLatency.Count; got != 4 {
		t.Fatalf("leaf latency samples = %d, want 4", got)
	}
	if len(rep.Segments) != 2 || rep.Segments[0].Applications != 400 {
		t.Fatalf("segments = %+v", rep.Segments)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := New()
	defer r.Span("plan")()
	r.Lease(LeaseEvent{Worker: "w1", Batch: 0, Prefixes: 8, DurMs: 12.5, Paths: 64})
	r.FinishRun(RunTotals{TotalPaths: 64, Simulated: 64})
	b, err := json.Marshal(r.Report())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(rep.Leases) != 1 || rep.Leases[0].Worker != "w1" {
		t.Fatalf("leases did not round-trip: %+v", rep.Leases)
	}
	if rep.LeaseDurations.Count != 1 {
		t.Fatalf("lease histogram count = %d, want 1", rep.LeaseDurations.Count)
	}
}

func TestFinishRunAccumulatesSimulated(t *testing.T) {
	r := New()
	r.FinishRun(RunTotals{TotalPaths: 100, Simulated: 60, Resumed: 10})
	r.FinishRun(RunTotals{TotalPaths: 100, Simulated: 40})
	rep := r.Report()
	if rep.Paths.Simulated != 60 {
		t.Fatalf("simulated = %d, want max(60,40)=60", rep.Paths.Simulated)
	}
	if rep.Paths.Resumed != 10 {
		t.Fatalf("resumed = %d, want 10", rep.Paths.Resumed)
	}
}

func TestTrackerLiveCounterAndLine(t *testing.T) {
	var tr Tracker
	var live atomic.Int64
	tr.Start(1000, 100, &live)
	live.Store(50)
	if got := tr.Done(); got != 150 {
		t.Fatalf("done = %d, want 150", got)
	}
	tr.Add(25)
	if got := tr.Done(); got != 175 {
		t.Fatalf("done = %d, want 175", got)
	}
	line := tr.Line()
	if !strings.Contains(line, "paths 175/1000") {
		t.Fatalf("line = %q", line)
	}
	var nilT *Tracker
	nilT.Start(1, 0, nil)
	nilT.Add(1)
	if nilT.Done() != 0 || nilT.Line() != "" {
		t.Fatalf("nil tracker should be inert")
	}
}

func TestTrackerGoPrintsAndStops(t *testing.T) {
	var tr Tracker
	tr.Start(10, 10, nil)
	var buf bytes.Buffer
	stop := tr.Go(&buf, time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	stop()
	stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "paths 10/10 (100.0%)") {
		t.Fatalf("progress output = %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("final line should end with newline: %q", out)
	}
}

func TestSamplingRate(t *testing.T) {
	r := New()
	wc := r.Worker(1, nil)
	n := 0
	for i := 0; i < 64*10; i++ {
		if wc.Sample() {
			n++
		}
	}
	if n != 10 {
		t.Fatalf("sampled %d of %d, want exactly %d", n, 64*10, 10)
	}
}
