// Integration tests of the tracing layer through the dist protocol: lease
// and worker-exec spans joining the caller's trace over loopback, steal
// leases linking their victim, and the merged fleet timeline in the caller's
// flight recorder — including the chaos case (half the fleet killed mid-run)
// whose timeline must still account for nearly all of the coordinator's
// wall clock.
package dist

import (
	"context"
	"sort"
	"testing"
	"time"

	"hsfsim/internal/telemetry/trace"
)

// tracedCtx returns a context carrying a fresh recorder and a root span for
// lease spans to parent under, plus the recorder for inspection.
func tracedCtx(t *testing.T) (context.Context, *trace.Recorder, trace.SpanContext) {
	t.Helper()
	rec := trace.NewRecorder(0)
	sp := rec.Start(trace.SpanContext{}, "test-root")
	sc := sp.Context()
	t.Cleanup(sp.End)
	return trace.NewContext(context.Background(), rec, sc), rec, sc
}

func eventsNamed(events []trace.Event, name string) []trace.Event {
	var out []trace.Event
	for _, ev := range events {
		if ev.Name == name {
			out = append(out, ev)
		}
	}
	return out
}

func TestTracedLoopbackRunRecordsFleetSpans(t *testing.T) {
	job := testJob(51)
	lb := NewLoopback()
	lb.AddWorker("w0", ExecOptions{})
	lb.AddWorker("w1", ExecOptions{})
	co := mustNew(t, Config{Transport: lb, Logger: quietLogger()})
	co.AddWorker("w0")
	co.AddWorker("w1")

	ctx, rec, root := tracedCtx(t)
	res, err := co.Run(ctx, job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)

	events := rec.Snapshot()
	runs := eventsNamed(events, "dist-run")
	if len(runs) != 1 {
		t.Fatalf("dist-run spans = %d, want 1", len(runs))
	}
	run := runs[0]
	if run.Trace != root.Trace {
		t.Fatalf("dist-run trace %s does not join the caller's trace %s", run.Trace, root.Trace)
	}
	if run.Parent != root.Span {
		t.Fatalf("dist-run parent %s, want the caller's span %s", run.Parent, root.Span)
	}
	leases := eventsNamed(events, "lease")
	if len(leases) == 0 {
		t.Fatal("no lease spans recorded")
	}
	for _, l := range leases {
		if l.Trace != root.Trace {
			t.Fatalf("lease span on trace %s, want %s", l.Trace, root.Trace)
		}
		if l.Parent != run.Span {
			t.Fatalf("lease parent %s, want the dist-run span %s", l.Parent, run.Span)
		}
		if l.Lane < 1 {
			t.Fatalf("lease lane %d, want >= 1 (lane 0 is the coordinator)", l.Lane)
		}
		if l.Str("worker") == "" {
			t.Fatal("lease span has no worker attribute")
		}
	}
	execs := eventsNamed(events, "worker-exec")
	if len(execs) == 0 {
		t.Fatal("no worker-exec spans recorded (loopback leaseMeta not stamped)")
	}
	leaseIDs := map[trace.SpanID]bool{}
	for _, l := range leases {
		leaseIDs[l.Span] = true
	}
	for _, ex := range execs {
		if !leaseIDs[ex.Parent] {
			t.Fatalf("worker-exec parent %s is not a lease span", ex.Parent)
		}
	}
}

func TestStealLeaseSpanLinksVictim(t *testing.T) {
	job := testJob(34)
	lb := NewLoopback()
	lb.AddWorker("fast", ExecOptions{})
	lb.AddWorker("slow", ExecOptions{})
	lb.Delay("fast", 2*time.Millisecond)
	lb.Delay("slow", 300*time.Millisecond)

	co := mustNew(t, Config{
		Transport:          lb,
		Logger:             quietLogger(),
		BatchSize:          4,
		StealDelay:         50 * time.Millisecond,
		MembershipInterval: 10 * time.Millisecond,
	})
	co.AddWorker("fast")
	co.AddWorker("slow")

	ctx, rec, _ := tracedCtx(t)
	res, err := co.Run(ctx, job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals == 0 {
		t.Fatal("no lease was stolen; nothing to assert")
	}
	events := rec.Snapshot()
	leases := eventsNamed(events, "lease")
	byID := map[trace.SpanID]trace.Event{}
	for _, l := range leases {
		byID[l.Span] = l
	}
	linked := 0
	for _, l := range leases {
		if !l.Link.Valid() {
			continue
		}
		linked++
		victim, ok := byID[l.Link.Span]
		if !ok {
			t.Fatalf("steal lease links span %s, which is not a recorded lease", l.Link.Span)
		}
		if victim.Span == l.Span {
			t.Fatal("steal lease links itself")
		}
	}
	if linked == 0 {
		t.Fatalf("run reported %d steals but no lease span carries a victim link", res.Steals)
	}
}

// TestChaosTimelineCoversCoordinatorWallClock is the acceptance criterion:
// a distributed run that loses half its fleet mid-run must still leave a
// merged fleet timeline in the caller's recorder — one lane per worker —
// whose spans account for >= 95%% of the coordinator's wall clock (every
// moment of the run is attributable to waiting, executing or merging — no
// dark time).
func TestChaosTimelineCoversCoordinatorWallClock(t *testing.T) {
	// Standard cutting keeps every crossing gate a separate cut, so the
	// prefix space splits into dozens of single-prefix leases — enough
	// rounds that the doomed workers reach their kill threshold mid-run.
	job := &Job{QASM: testQASM(10, 14, 52), Method: "standard", CutPos: 4}
	lb := NewLoopback()
	for _, w := range []string{"w0", "w1", "w2", "w3"} {
		lb.AddWorker(w, ExecOptions{})
		// A small reply delay keeps all four workers in rotation long
		// enough that the doomed ones reach their second lease.
		lb.Delay(w, 5*time.Millisecond)
	}
	// Half the fleet dies after its first lease; the survivors absorb the
	// reassigned batches.
	chaos := NewChaos(lb, ChaosConfig{
		Seed:            1,
		KillAfterLeases: map[string]int{"w1": 1, "w3": 1},
	})
	co := mustNew(t, Config{
		Transport: chaos,
		Logger:    quietLogger(),
		BatchSize: 1, // one prefix per lease, so every worker sees several leases
	})
	for _, w := range []string{"w0", "w1", "w2", "w3"} {
		co.AddWorker(w)
	}

	ctx, rec, sc := tracedCtx(t)
	res, err := co.Run(ctx, job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if chaos.Kills != 2 {
		t.Fatalf("chaos killed %d workers, want 2", chaos.Kills)
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)

	// The run's trace holds one timeline lane per worker: every worker —
	// the two killed after their first lease too — executed at least once,
	// each on its own stable lane; the coordinator keeps lane 0.
	events := rec.SnapshotTrace(sc.Trace)
	lanes := map[string]int32{}
	for _, ev := range eventsNamed(events, "worker-exec") {
		w := ev.Str("worker")
		if l, seen := lanes[w]; seen && l != ev.Lane {
			t.Fatalf("worker %q on lanes %d and %d", w, l, ev.Lane)
		}
		lanes[w] = ev.Lane
	}
	used := map[int32]bool{}
	for _, w := range []string{"w0", "w1", "w2", "w3"} {
		l, ok := lanes[w]
		if !ok || l < 1 || l > 4 || used[l] {
			t.Fatalf("worker-exec lanes %v: want w0..w3 on four distinct lanes in 1..4", lanes)
		}
		used[l] = true
	}
	if len(lanes) != 4 {
		t.Fatalf("worker-exec lanes %v: want exactly the four workers", lanes)
	}

	// Coverage: the union of all child spans must account for >= 95% of the
	// dist-run root span's duration.
	runs := eventsNamed(events, "dist-run")
	if len(runs) != 1 {
		t.Fatalf("dist-run spans = %d, want 1", len(runs))
	}
	root := runs[0]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, ev := range events {
		if ev.Name == "dist-run" || ev.Name == "test-root" {
			continue
		}
		a, b := ev.Start, ev.End()
		if a < root.Start {
			a = root.Start
		}
		if b > root.End() {
			b = root.End()
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, k int) bool { return ivs[i].a < ivs[k].a })
	var covered, cursor int64
	for _, v := range ivs {
		if v.a > cursor {
			cursor = v.a
		}
		if v.b > cursor {
			covered += v.b - cursor
			cursor = v.b
		}
	}
	if root.Dur <= 0 {
		t.Fatal("dist-run span has no duration")
	}
	pct := float64(covered) / float64(root.Dur) * 100
	if pct < 95 {
		t.Fatalf("timeline spans cover %.1f%% of the coordinator wall clock, want >= 95%%", pct)
	}
}
