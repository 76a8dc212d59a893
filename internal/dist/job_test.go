package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"hsfsim"
	"hsfsim/internal/hsf"
)

// TestJobOptionsRoundTrip: NewJob → JSON → decode → Options returns every
// field a Job carries, across both methods and strategies, and a cascade
// joint job encodes exactly as the hand-written conversions it replaced did
// (strategy absent).
func TestJobOptionsRoundTrip(t *testing.T) {
	const src = "qreg q[4]; h q[0]; cx q[0],q[1];"
	for _, method := range []hsfsim.Method{hsfsim.StandardHSF, hsfsim.JointHSF} {
		for _, strategy := range []hsfsim.BlockStrategy{hsfsim.BlockCascade, hsfsim.BlockWindow} {
			want := hsfsim.Options{
				Method:          method,
				CutPos:          2,
				BlockStrategy:   strategy,
				MaxBlockQubits:  6,
				Tol:             1.5e-11,
				MaxAmplitudes:   32,
				FusionMaxQubits: -1,
			}
			job, err := NewJob(src, want)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := json.Marshal(job)
			if err != nil {
				t.Fatal(err)
			}
			var back Job
			if err := json.Unmarshal(wire, &back); err != nil {
				t.Fatal(err)
			}
			got, err := back.Options()
			if err != nil {
				t.Fatalf("%s: %v", wire, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:\n got %+v\nwant %+v", wire, got, want)
			}
		}
	}

	job, err := NewJob(src, hsfsim.Options{
		Method: hsfsim.JointHSF, CutPos: 1, BlockStrategy: hsfsim.BlockCascade,
		MaxBlockQubits: 4, Tol: 1e-12, MaxAmplitudes: 8, FusionMaxQubits: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	const pinned = `{"qasm":"qreg q[4]; h q[0]; cx q[0],q[1];","method":"joint","cut_pos":1,` +
		`"max_block_qubits":4,"tol":1e-12,"max_amplitudes":8,"fusion_max_qubits":3}`
	if string(wire) != pinned {
		t.Fatalf("wire form changed:\n got %s\nwant %s", wire, pinned)
	}

	if _, err := NewJob(src, hsfsim.Options{Method: hsfsim.Schrodinger}); err == nil {
		t.Fatal("NewJob accepted a Schrodinger run")
	}
	if _, err := (&Job{QASM: src, Method: "schrodinger"}).Options(); err == nil {
		t.Fatal("Options accepted a Schrodinger job")
	}
}

// TestWorkerPlanCacheCompilesOnce: with its own plan cache, each worker of a
// three-worker fleet compiles the job once however many leases it serves,
// the merged amplitudes still equal the single-process run, and a lease
// whose plan hash disagrees is refused as permanent on the warm cache.
func TestWorkerPlanCacheCompilesOnce(t *testing.T) {
	// Standard cutting keeps every crossing gate a rank-2 cut: enough
	// prefixes for dozens of one-prefix leases.
	job := &Job{QASM: testQASM(10, 24, 11), Method: "standard", CutPos: 4}
	lb := NewLoopback()
	co := mustNew(t, Config{Transport: lb, Logger: quietLogger(), BatchSize: 1})
	names := []string{"w0", "w1", "w2"}
	caches := make(map[string]*hsfsim.PlanCache)
	for _, name := range names {
		caches[name] = hsfsim.NewPlanCache(4)
		lb.AddWorker(name, ExecOptions{Workers: 1, Plans: caches[name]})
		// A short reply delay interleaves the lease loops, so every worker
		// serves a share of the one-prefix leases.
		lb.Delay(name, time.Millisecond)
		co.AddWorker(name)
	}
	res, err := co.Run(context.Background(), job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)
	for _, name := range names {
		runs := int64(lb.Runs(name))
		if runs < 4 {
			t.Fatalf("%s served %d of %d leases, want ≥ 4", name, runs, res.Batches)
		}
		hits, misses, _ := caches[name].Stats()
		if misses != 1 || hits != runs-1 {
			t.Fatalf("%s: %d leases gave %d misses and %d hits, want 1 and %d", name, runs, misses, hits, runs-1)
		}
	}

	req := &RunRequest{
		Job:         *job,
		PlanHash:    hsf.PlanHash(jobPlan(t, job)) + 1,
		SplitLevels: 0,
		Prefixes:    [][]int{{}},
	}
	_, err = ExecuteRun(context.Background(), req, ExecOptions{Plans: caches["w0"]})
	if !errors.Is(err, ErrPlanMismatch) || !IsPermanent(err) {
		t.Fatalf("got %v, want permanent ErrPlanMismatch", err)
	}
	if _, misses, _ := caches["w0"].Stats(); misses != 1 {
		t.Fatalf("mismatched lease recompiled: %d misses", misses)
	}
}

// FuzzRunRequest feeds arbitrary bytes through what /dist/run does before
// planning: the strict decoder, RunRequest.Validate and Job.Options. None
// may panic, and a request they accept must describe a valid distributed
// run that survives NewJob unchanged. The "backend" seed is a rejection case:
// the field is gone, so the strict decoder refuses it.
func FuzzRunRequest(f *testing.F) {
	seed, err := json.Marshal(RunRequest{Job: *testJob(1), PlanHash: 42, SplitLevels: 1, Prefixes: [][]int{{0}, {1}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"job":{"qasm":"qreg q[2];","method":"standard","strategy":"window","backend":"dd"},"plan_hash":"7","split_levels":0,"prefixes":[[]]}`))
	f.Add([]byte(`{"job":{"qasm":"qreg q[2];","method":"schrodinger"},"split_levels":0,"prefixes":[[]]}`))
	f.Add([]byte(`{"job":{"qasm":"x","tol":-1,"fusion_max_qubits":-3},"split_levels":2,"prefixes":[[0,1]],"lease_ms":5,"allow_partial":true}`))
	f.Add([]byte(`{"job":{"qasm":"x"},"extra":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req RunRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil || req.Validate() != nil {
			return
		}
		opts, err := req.Job.Options()
		if err != nil {
			return
		}
		if opts.Method != hsfsim.StandardHSF && opts.Method != hsfsim.JointHSF {
			t.Fatalf("accepted method %v", opts.Method)
		}
		if opts.BlockStrategy != hsfsim.BlockCascade && opts.BlockStrategy != hsfsim.BlockWindow {
			t.Fatalf("accepted strategy %v", opts.BlockStrategy)
		}
		job, err := NewJob(req.Job.QASM, opts)
		if err != nil {
			t.Fatalf("accepted options rejected by NewJob: %v", err)
		}
		back, err := job.Options()
		if err != nil || !reflect.DeepEqual(back, opts) {
			t.Fatalf("NewJob round trip: got %+v, %v; want %+v", back, err, opts)
		}
	})
}
