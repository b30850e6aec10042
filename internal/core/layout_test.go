package core

import (
	"testing"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
)

// fig1Queries is a small batch over the paper's worked example: the
// Example 1 query plus star/backward-ish variants so the gate exercises
// the whole join surface.
func fig1Queries(t testing.TB) []rpq.Expr {
	t.Helper()
	var qs []rpq.Expr
	for _, s := range []string{"d.(b.c)+.c", "a.(b.c)*", "d.(b.c)+", "(b.c)+.c"} {
		qs = append(qs, rpq.MustParse(s))
	}
	return qs
}

// layoutAllocs measures steady-state allocations per batch evaluation on
// a warm engine of the given configuration.
func layoutAllocs(t testing.TB, opts Options) float64 {
	t.Helper()
	g := fixtures.Figure1()
	e := New(g, opts)
	qs := fig1Queries(t)
	run := func() {
		for _, q := range qs {
			if _, err := e.Evaluate(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm caches, pools and evaluators
	return testing.AllocsPerRun(50, run)
}

// TestLayoutAllocGateFigure1 is the CI allocation gate of the columnar
// refactor: on the paper's Fig. 1 fixture the columnar executor must
// never allocate more than the seed's map executor per warm batch —
// with both the BFS and the bitset closure. A regression here means the
// pooling broke or a hot path regained a per-call allocation.
func TestLayoutAllocGateFigure1(t *testing.T) {
	mapAllocs := layoutAllocs(t, Options{Layout: LayoutMapSet})
	colAllocs := layoutAllocs(t, Options{Layout: LayoutColumnar})
	colBitsetAllocs := layoutAllocs(t, Options{Layout: LayoutColumnar, TCAlgo: rtc.BitsetClosure})
	t.Logf("allocs per warm batch: map+bfs=%.1f columnar+bfs=%.1f columnar+bitset=%.1f",
		mapAllocs, colAllocs, colBitsetAllocs)
	if colAllocs > mapAllocs {
		t.Errorf("columnar layout allocates more than the map layout: %.1f > %.1f", colAllocs, mapAllocs)
	}
	if colBitsetAllocs > mapAllocs {
		t.Errorf("columnar+bitset allocates more than the map layout: %.1f > %.1f", colBitsetAllocs, mapAllocs)
	}
}

// Warm columnar evaluation through the public Evaluate must be close to
// allocation-free: the stamp sets, tuple buffers, builders and
// evaluators are all pooled, and the result is the memoised sealed
// relation itself, so the steady state allocates only per-query
// bookkeeping scraps. The bound is
// deliberately loose (it is a regression tripwire, not a spec), but it
// is far below what any per-tuple or per-vertex allocation would cost.
func TestColumnarSteadyStateAllocations(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{})
	q := rpq.MustParse("d.(b.c)+.c")
	if _, err := e.Evaluate(q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Evaluate(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 60 {
		t.Errorf("warm columnar Evaluate allocates %.1f objects per query, want ≤ 60", allocs)
	}
}

// A memo-warm query crosses the public boundary without a copy: Evaluate
// hands back the very relation the result memo holds, whether it lives
// in the shared relation region or in the engine's overflow memo.
func TestEvaluateReturnsMemoisedRelation(t *testing.T) {
	for _, overflow := range []bool{false, true} {
		e := New(fixtures.Figure1(), Options{})
		if overflow {
			e.cache.relPairs.Store(relBudgetPairs)
		}
		q := rpq.MustParse("d.(b.c)+.c")
		first, err := e.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		cached, _, ok := e.CachedResult(q)
		if !ok {
			t.Fatalf("overflow=%v: CachedResult missed after Evaluate", overflow)
		}
		again, err := e.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		if first != cached || again != cached {
			t.Errorf("overflow=%v: Evaluate returned %p then %p, memo holds %p; want the memoised relation every time",
				overflow, first, again, cached)
		}
	}
}

// When the shared relation region's budget is exhausted, the engine
// falls back to its own overflow memo: sub-queries still evaluate once
// per engine (the seed's discipline), never once per batch unit.
func TestRelationOverflowMemo(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{})
	e.cache.relPairs.Store(relBudgetPairs) // exhaust the region up front

	for i := 0; i < 2; i++ {
		if _, err := e.Evaluate(rpq.MustParse("d.(b.c)+.c")); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Evaluate(rpq.MustParse("a.(b.c)+.c")); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.cache.RelLen(); got != 0 {
		t.Errorf("relation region retained %d entries despite exhausted budget", got)
	}
	e.version().subMu.Lock()
	overflow := len(e.version().subRels)
	e.version().subMu.Unlock()
	if overflow == 0 {
		t.Error("overflow memo empty: declined relations were not kept engine-locally")
	}
	// Each distinct sub-query sealed at most twice (the in-flight
	// singleflight plus one race-free local store): the second round of
	// queries must hit the overflow memo, so the relation region's miss
	// counter stops growing.
	missesAfterWarm := e.cache.Counters().RelMisses
	if _, err := e.Evaluate(rpq.MustParse("d.(b.c)+.c")); err != nil {
		t.Fatal(err)
	}
	if got := e.cache.Counters().RelMisses; got != missesAfterWarm {
		t.Errorf("warm query recomputed sub-relations: RelMisses %d → %d", missesAfterWarm, got)
	}
}
