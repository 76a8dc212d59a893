package hsf

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
	"hsfsim/internal/telemetry/trace"
)

// heldRun runs plan under opts with a flight recorder attached and returns the
// amplitudes and the "fold" span's nodes and tiles, -1 and -1 when the run
// held no nodes.
func heldRun(t *testing.T, plan *cut.Plan, opts Options) (amps []complex128, nodes, tiles int64) {
	t.Helper()
	trc := trace.NewRecorder(1024)
	ctx := trace.NewContext(context.Background(), trc, trace.SpanContext{})
	res, err := RunContext(ctx, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	nodes, tiles = -1, -1
	for _, ev := range trc.Snapshot() {
		if ev.Name == "fold" {
			nodes, tiles = ev.Int("nodes", -1), ev.Int("tiles", -1)
		}
	}
	return res.Amplitudes, nodes, tiles
}

// firstBitDiff returns the first amplitude at which a and b differ bit for
// bit, -1 when none does.
func firstBitDiff(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// TestHeldRunBitIdenticalAcrossWorkers runs q22-3 unobserved at 2^18 and 2^20
// amplitudes, where the run holds its 32 level-5 nodes, on one to four
// workers and on two workers sharing GOMAXPROCS 1. Every node's row table is
// the sum of its own leaves in walk order, and the fold pass gives every
// amplitude the nodes in node order and the epilogue once, whoever walked
// which node and whichever worker folds which tile, so the amplitudes are the
// same bits every time. (A worker that folds its nodes into a scratch of its
// own sums them per worker, and the merge order follows the clock.) The
// amplitudes match a run that folds each node into a scratch, which a
// checkpoint reader keeps doing, at 1e-12.
func TestHeldRunBitIdenticalAcrossWorkers(t *testing.T) {
	plan := q22Plan(t)
	for _, m := range []int{1 << 18, 1 << 20} {
		var want []complex128
		run := func(name string, workers int) {
			amps, nodes, tiles := heldRun(t, plan, Options{Workers: workers, MaxAmplitudes: m})
			if nodes != 32 || tiles < 1 {
				t.Fatalf("m = %d, %s: fold span reports %d nodes in %d tiles, want 32 nodes held", m, name, nodes, tiles)
			}
			if want == nil {
				want = amps
				return
			}
			if i := firstBitDiff(amps, want); i >= 0 {
				t.Fatalf("m = %d, %s: amplitude %d is %v, one worker gives %v", m, name, i, amps[i], want[i])
			}
		}
		for workers := 1; workers <= 4; workers++ {
			run(fmt.Sprintf("%d workers", workers), workers)
		}
		prev := runtime.GOMAXPROCS(1)
		run("GOMAXPROCS 1, 2 workers", 2)
		runtime.GOMAXPROCS(prev)
		observed, nodes, _ := heldRun(t, plan, Options{Workers: 2, MaxAmplitudes: m, OnCheckpoint: func(*Checkpoint) {}})
		if nodes != -1 {
			t.Fatalf("m = %d: a run with a checkpoint reader held its nodes", m)
		}
		if d := statevec.MaxAbsDiff(want, observed); d > 1e-12 {
			t.Fatalf("m = %d: off the run that folds every node into a scratch by %g", m, d)
		}
	}
}

// The held suite's instances: sixteen qubits cut after qubit 10, so halves of
// 2^11 lower and 2^5 upper amplitudes, and 32 rows at the full output.
const heldN, heldCut = 16, 10

// heldCircuit builds a heldN-qubit circuit whose lower side ends in RZZ
// crossings on lower qubits 9 and 10, each followed by an RX on an upper
// qubit, after kept crossings on lower qubit 0 turned by an RX each. An RX
// layer closes it; its lower mixers sink, and the tail fires over qubits 9
// and 10, where a node's row table is a small part of its lower half, so an
// unobserved run at the full output holds its nodes.
func heldCircuit(rng *rand.Rand, kept, tail int) *circuit.Circuit {
	c := circuit.New(heldN)
	for q := range heldN {
		c.Append(gate.H(q))
	}
	up := func() int { return heldCut + 1 + rng.Intn(heldN-heldCut-1) }
	angle := func() float64 { return 0.2 + 2*rng.Float64() }
	for range kept {
		c.Append(gate.RZZ(angle(), 0, up()), gate.RX(angle(), 0))
	}
	for range tail {
		c.Append(gate.RZZ(angle(), 9+rng.Intn(2), up()), gate.RX(angle(), up()))
	}
	for q := range heldN {
		c.Append(gate.RX(angle(), q))
	}
	return c
}

// TestHeldRunMatchesOracle is the held path's equivalence matrix: generated
// plans on every kernel arm, on one, two and three workers, at the full
// output, at 14 rows (whose last tile has two rows) and at 8 rows (where the
// tail fires but its nodes do not fit, so each folds into a scratch). Each
// runs unobserved, with an OnCheckpoint reader, with a CheckpointWriter and
// as a RunPrefixesContext partial, none of which but the first may hold, and
// unobserved again resumed from a partial holding the first half of the
// tasks, which the held run adds its half into. All equal the Schrödinger
// oracle at 1e-12. The cases must cover held runs, a held run's short last
// tile, a held resume, and a tail whose nodes are too large to hold.
func TestHeldRunMatchesOracle(t *testing.T) {
	type heldCase struct {
		name string
		plan *cut.Plan
		want statevec.State
	}
	var cases []heldCase
	for i, kt := range [][2]int{{2, 5}, {1, 6}, {3, 4}} {
		c := heldCircuit(rand.New(rand.NewSource(int64(5+i))), kt[0], kt[1])
		cases = append(cases, heldCase{fmt.Sprintf("kept %d, tail %d", kt[0], kt[1]), buildPlan(t, c, heldCut, cut.StrategyNone), schrodinger(c)})
	}
	seen := map[string]int{}
	eachArm(t, func(t *testing.T) {
		clear(seen)
		for _, tc := range cases {
			for _, workers := range []int{1, 2, 3} {
				split := ChooseSplitLevels(tc.plan, 4*workers)
				prefixes := EnumeratePrefixes(tc.plan, split)
				for _, m := range []int{1 << heldN, 14 << (heldCut + 1), 8 << (heldCut + 1)} {
					name := fmt.Sprintf("%s/m=%d/workers %d", tc.name, m, workers)
					check := func(how string, amps []complex128, nodes int64, mayHold bool) {
						t.Helper()
						if nodes >= 0 && !mayHold {
							t.Fatalf("%s, %s: the run held %d nodes", name, how, nodes)
						}
						if d := statevec.MaxAbsDiff(amps, tc.want[:m]); d > 1e-12 {
							t.Fatalf("%s, %s: off the oracle by %g", name, how, d)
						}
					}
					opts := Options{Workers: workers, MaxAmplitudes: m}
					amps, nodes, _ := heldRun(t, tc.plan, opts)
					check("unobserved", amps, nodes, true)
					switch {
					case nodes >= 0 && m%(statevec.FoldRowBlock<<(heldCut+1)) != 0:
						seen["held, short last tile"]++
					case nodes >= 0:
						seen["held"]++
					case compiledFor(tc.plan, m, 0, split).tail.level >= 0:
						seen["nodes too large"]++
					}

					observed := opts
					observed.OnCheckpoint = func(*Checkpoint) {}
					amps, nodes, _ = heldRun(t, tc.plan, observed)
					check("OnCheckpoint", amps, nodes, false)
					observed = opts
					observed.CheckpointWriter = io.Discard
					amps, nodes, _ = heldRun(t, tc.plan, observed)
					check("CheckpointWriter", amps, nodes, false)
					trc := trace.NewRecorder(1024)
					ctx := trace.NewContext(context.Background(), trc, trace.SpanContext{})
					first, err := RunPrefixesContext(ctx, tc.plan, opts, split, prefixes[:len(prefixes)/2])
					if err != nil {
						t.Fatal(err)
					}
					for _, ev := range trc.Snapshot() {
						if ev.Name == "fold" {
							t.Fatalf("%s: a partial held its nodes", name)
						}
					}

					resumed := opts
					resumed.Resume = first
					amps, nodes, _ = heldRun(t, tc.plan, resumed)
					check("resumed", amps, nodes, true)
					if nodes >= 0 {
						seen["held resume"]++
					}
				}
			}
		}
		for _, what := range []string{"held", "held, short last tile", "held resume", "nodes too large"} {
			if seen[what] == 0 {
				t.Errorf("no case covers %s", what)
			}
		}
		t.Logf("cases: %v", seen)
	})
}

// TestHeldRunCancelledLeavesSeed cancels a held run resumed from a partial of
// half the tasks, halfway through the other half: its checkpoint comes back
// as the seed was, bit for bit, with the seed's prefixes and paths, because a
// held run merges its nodes only once every task is done. Uncancelled, the
// same run holds its nodes.
func TestHeldRunCancelledLeavesSeed(t *testing.T) {
	plan := buildPlan(t, heldCircuit(rand.New(rand.NewSource(5)), 2, 5), heldCut, cut.StrategyNone)
	for _, workers := range []int{1, 2} {
		split := ChooseSplitLevels(plan, 4*workers)
		prefixes := EnumeratePrefixes(plan, split)
		seed, err := RunPrefixesContext(context.Background(), plan, Options{Workers: workers}, split, prefixes[:len(prefixes)/2])
		if err != nil {
			t.Fatal(err)
		}
		if _, nodes, _ := heldRun(t, plan, Options{Workers: workers, Resume: seed}); nodes < 0 {
			t.Fatalf("%d workers: the resumed run does not hold its nodes", workers)
		}
		ctx, cancel := context.WithCancel(context.Background())
		stopAt := seed.PathsSimulated / 2
		opts := Options{Workers: workers, testHookLeaf: func(leaves int64) {
			if leaves == stopAt {
				cancel()
			}
		}}
		ck, _, err := execute(ctx, plan, opts, false, func(m, _ int) (*Checkpoint, [][]int, error) {
			return Seed(plan, m, split, seed)
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: err = %v, want context.Canceled", workers, err)
		}
		if i := firstBitDiff(ck.Acc, seed.Acc); i >= 0 {
			t.Fatalf("%d workers: amplitude %d is %v after the cancelled run, the seed holds %v", workers, i, ck.Acc[i], seed.Acc[i])
		}
		if ck.PathsSimulated != seed.PathsSimulated || fmt.Sprint(ck.Prefixes) != fmt.Sprint(seed.Prefixes) {
			t.Fatalf("%d workers: checkpoint lists %d paths in %v, the seed %d in %v",
				workers, ck.PathsSimulated, ck.Prefixes, seed.PathsSimulated, seed.Prefixes)
		}
	}
}
