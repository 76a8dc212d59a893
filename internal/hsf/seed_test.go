package hsf

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hsfsim/internal/cut"
)

// TestSeedResumesTaskSet pins the one resume seed: without a checkpoint the
// task set is the whole enumeration and costs no more than building it; with
// one, the set keeps the checkpoint's split depth, starts from a copy of its
// state and leaves exactly the missing prefixes pending; a checkpoint of
// another accumulator length is a mismatch.
func TestSeedResumesTaskSet(t *testing.T) {
	plan := buildPlan(t, manyCutCircuit(10, 6), 4, cut.StrategyNone)
	m := AccumulatorLen(plan, 0)
	all := EnumeratePrefixes(plan, 3)

	ck, pending, err := Seed(plan, m, 3, nil)
	if err != nil || len(pending) != len(all) || len(ck.Prefixes) != 0 || ck.SplitLevels != 3 || len(ck.Acc) != m {
		t.Fatalf("fresh seed: %d pending of %d, %d merged, split %d, err %v", len(pending), len(all), len(ck.Prefixes), ck.SplitLevels, err)
	}
	fresh := testing.AllocsPerRun(10, func() { ck, pending, _ = Seed(plan, m, 3, nil) })
	build := testing.AllocsPerRun(10, func() { ck, pending = newCheckpoint(plan, m, 3), EnumeratePrefixes(plan, 3) })
	if fresh > build {
		t.Fatalf("fresh seed allocates %v objects, building the task set %v", fresh, build)
	}

	part, err := RunPrefixesContext(context.Background(), plan, Options{Workers: 1}, 3, all[:3])
	if err != nil {
		t.Fatal(err)
	}
	ck, pending, err = Seed(plan, m, 1, part) // the checkpoint's depth wins
	if err != nil {
		t.Fatal(err)
	}
	if ck.SplitLevels != 3 || len(ck.Prefixes) != 3 || ck.PathsSimulated != part.PathsSimulated || len(pending) != len(all)-3 {
		t.Fatalf("resumed seed: split %d, %d merged, %d paths, %d pending", ck.SplitLevels, len(ck.Prefixes), ck.PathsSimulated, len(pending))
	}
	for i, p := range pending {
		if PrefixKey(p) != PrefixKey(all[i+3]) {
			t.Fatalf("pending prefix %d is %v, want %v", i, p, all[i+3])
		}
	}
	ck.Acc[0] += 1
	if ck.Acc[0] == part.Acc[0] {
		t.Fatal("seeded checkpoint shares its accumulator with the resume")
	}
	if _, _, err := Seed(plan, m/2, 3, part); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resume of another M: %v, want ErrCheckpointMismatch", err)
	}
}

// TestFlusherRateLimitsAndStops: one snapshot per interval reaches save, as
// a copy of the live checkpoint; nothing is saved after Stop returns, and a
// nil Flusher is inert.
func TestFlusherRateLimitsAndStops(t *testing.T) {
	var mu sync.Mutex
	var saved []*Checkpoint
	f := NewFlusher(time.Hour, func(ck *Checkpoint) {
		mu.Lock()
		saved = append(saved, ck)
		mu.Unlock()
	})
	live := &Checkpoint{M: 1, Acc: []complex128{1}, PathsSimulated: 1}
	f.Hook(live)
	live.Acc[0], live.PathsSimulated = 2, 2
	f.Hook(live) // inside the interval: dropped
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(saved)
		mu.Unlock()
		if n == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	f.Stop()
	f.Hook(live) // after Stop: never saved
	mu.Lock()
	defer mu.Unlock()
	if len(saved) != 1 || saved[0].PathsSimulated != 1 || saved[0].Acc[0] != 1 {
		t.Fatalf("saved %d snapshots (first %+v), want the one taken before the interval", len(saved), saved)
	}
	var none *Flusher
	none.Hook(live)
	none.Stop()
}
