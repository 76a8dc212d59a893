package hsfsim_test

import (
	"sync"
	"testing"

	"hsfsim"
)

// TestPlanCacheSingleFlight: concurrent Gets of one circuit compile it once
// and share the plan, a different plan option keys apart, the LRU evicts
// past its size, and a nil cache compiles every call.
func TestPlanCacheSingleFlight(t *testing.T) {
	c := hsfsim.NewCircuit(4)
	c.Append(hsfsim.H(0), hsfsim.RZZ(0.8, 1, 2), hsfsim.RZZ(0.3, 1, 3))
	opts := hsfsim.Options{Method: hsfsim.JointHSF, CutPos: 1}
	pc := hsfsim.NewPlanCache(1)

	const n = 8
	plans := make([]*hsfsim.CompiledPlan, n)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cp, _, err := pc.Get(c, opts)
			if err != nil {
				t.Error(err)
			}
			plans[i] = cp
		}(i)
	}
	wg.Wait()
	for _, cp := range plans[1:] {
		if cp != plans[0] {
			t.Fatal("concurrent Gets returned different plans")
		}
	}
	if hits, misses, _ := pc.Stats(); misses != 1 || hits != n-1 {
		t.Fatalf("%d hits, %d misses; want %d and 1", hits, misses, n-1)
	}

	std := opts
	std.Method = hsfsim.StandardHSF
	if cp, shared, err := pc.Get(c, std); err != nil || shared || cp == plans[0] {
		t.Fatalf("standard plan: shared=%v err=%v, want a fresh compile", shared, err)
	}
	if _, shared, _ := pc.Get(c, opts); shared {
		t.Fatal("joint plan survived a size-1 cache after another plan was added")
	}
	if _, misses, evictions := pc.Stats(); misses != 3 || evictions != 2 {
		t.Fatalf("%d misses, %d evictions; want 3 and 2", misses, evictions)
	}

	var none *hsfsim.PlanCache
	if cp, shared, err := none.Get(c, opts); err != nil || shared || cp == nil {
		t.Fatalf("nil cache: plan=%v shared=%v err=%v", cp, shared, err)
	}
}
