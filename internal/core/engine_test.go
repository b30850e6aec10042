package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rtcshare/internal/eval"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
)

func strategies() []Strategy {
	return []Strategy{RTCSharing, FullSharing, NoSharing}
}

// TestPaperExample1AllStrategies: (d·(b·c)+·c)_G = {(v7,v5), (v7,v3)} under
// every engine.
func TestPaperExample1AllStrategies(t *testing.T) {
	g := fixtures.Figure1()
	want := pairs.FromPairs(pairs.Pair{Src: 7, Dst: 5}, pairs.Pair{Src: 7, Dst: 3})
	for _, s := range strategies() {
		e := New(g, Options{Strategy: s})
		got, err := e.EvaluateQuery("d.(b.c)+.c")
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !got.EqualSet(want) {
			t.Errorf("%v: got %v, want %v", s, got.Sorted(), want.Sorted())
		}
	}
}

// TestPaperExample7Sharing reproduces the sharing pattern of Example 7 /
// Fig. 7: evaluating a, then a·(a·b)+·b, then (a·b)*·b+·(a·b+·c)+ computes
// RTCs for exactly {a·b, b, a·b+·c} and reuses a·b and b once each.
func TestPaperExample7Sharing(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{Strategy: RTCSharing})

	for _, q := range []string{"a", "a.(a.b)+.b", "(a.b)*.b+.(a.b+.c)+"} {
		if _, err := e.EvaluateQuery(q); err != nil {
			t.Fatalf("evaluate %q: %v", q, err)
		}
	}
	st := e.Stats()
	if st.CacheMisses != 3 {
		t.Errorf("cache misses = %d, want 3 (a·b, b, a·b+·c)", st.CacheMisses)
	}
	if st.CacheHits != 2 {
		t.Errorf("cache hits = %d, want 2 (a·b reused in (a·b)*, b reused in (a·b+·c)+)", st.CacheHits)
	}
	keys := make(map[string]bool)
	for _, s := range e.SharedSummaries() {
		keys[s.R] = true
	}
	for _, want := range []string{"a.b", "b", "a.b+.c"} {
		if !keys[want] {
			t.Errorf("RTC for %q missing; cached: %v", want, keys)
		}
	}
}

func TestQueriesWithoutKleene(t *testing.T) {
	g := fixtures.Figure1()
	want := eval.Evaluate(g, rpq.MustParse("b.c"))
	for _, s := range strategies() {
		e := New(g, Options{Strategy: s})
		got, err := e.EvaluateQuery("b.c")
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !got.EqualSet(want) {
			t.Errorf("%v: KC-free query wrong", s)
		}
	}
}

func TestStarQuery(t *testing.T) {
	g := fixtures.Figure1()
	want := eval.Evaluate(g, rpq.MustParse("d.(b.c)*.c"))
	for _, s := range strategies() {
		e := New(g, Options{Strategy: s})
		got, err := e.EvaluateQuery("d.(b.c)*.c")
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !got.EqualSet(want) {
			t.Errorf("%v: got %v, want %v", s, got.Sorted(), want.Sorted())
		}
	}
}

func TestBareKleeneQuery(t *testing.T) {
	// Pre = ε exercises the identity relation path.
	g := fixtures.Figure1()
	wantPlus := eval.Evaluate(g, rpq.MustParse("(b.c)+"))
	wantStar := eval.Evaluate(g, rpq.MustParse("(b.c)*"))
	for _, s := range strategies() {
		e := New(g, Options{Strategy: s})
		if got, err := e.EvaluateQuery("(b.c)+"); err != nil || !got.EqualSet(wantPlus) {
			t.Errorf("%v: (b.c)+ wrong (err=%v)", s, err)
		}
		if got, err := e.EvaluateQuery("(b.c)*"); err != nil || !got.EqualSet(wantStar) {
			t.Errorf("%v: (b.c)* wrong (err=%v)", s, err)
		}
	}
}

func TestAlternationAndOptional(t *testing.T) {
	g := fixtures.Figure1()
	for _, q := range []string{"(d|a).(b.c)+.c", "d?.(b.c)+", "a|b+|c*"} {
		want := eval.Evaluate(g, rpq.MustParse(q))
		for _, s := range strategies() {
			e := New(g, Options{Strategy: s})
			got, err := e.EvaluateQuery(q)
			if err != nil {
				t.Fatalf("%v %q: %v", s, q, err)
			}
			if !got.EqualSet(want) {
				t.Errorf("%v: %q = %v, want %v", s, q, got.Sorted(), want.Sorted())
			}
		}
	}
}

func TestNestedKleene(t *testing.T) {
	g := fixtures.Figure1()
	for _, q := range []string{"(b.c+)+", "(b+.c)+.c", "((a.b)+)*"} {
		want := eval.Evaluate(g, rpq.MustParse(q))
		for _, s := range strategies() {
			e := New(g, Options{Strategy: s})
			got, err := e.EvaluateQuery(q)
			if err != nil {
				t.Fatalf("%v %q: %v", s, q, err)
			}
			if !got.EqualSet(want) {
				t.Errorf("%v: %q = %v, want %v", s, q, got.Sorted(), want.Sorted())
			}
		}
	}
}

func TestParseErrorPropagates(t *testing.T) {
	e := New(fixtures.Figure1(), Options{})
	if _, err := e.EvaluateQuery("(a"); err == nil {
		t.Error("want parse error")
	}
}

func TestDNFLimitPropagates(t *testing.T) {
	e := New(fixtures.Figure1(), Options{MaxDNFClauses: 2})
	if _, err := e.EvaluateQuery("(a|b).(a|b).(a|b)"); err == nil {
		t.Error("want DNF limit error")
	}
}

func TestStatsAccounting(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{Strategy: RTCSharing})
	if _, err := e.EvaluateQuery("d.(b.c)+.c"); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Queries != 1 {
		t.Errorf("Queries = %d, want 1", st.Queries)
	}
	if st.Total() != st.SharedData+st.PreJoin+st.Remainder {
		t.Error("Total() must be the sum of the three parts")
	}
	if st.CacheMisses != 1 {
		t.Errorf("CacheMisses = %d, want 1", st.CacheMisses)
	}
	e.ResetStats()
	if e.Stats().Queries != 0 {
		t.Error("ResetStats did not zero")
	}
	// Cache persists across ResetStats: the repeated query is answered
	// from the memoised result relation outright — no structure lookup
	// happens at all, the hit lands on the relation region.
	relHits := e.Cache().Counters().RelHits
	if _, err := e.EvaluateQuery("d.(b.c)+.c"); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Errorf("repeated query stats = %+v, want no structure lookups (result relation reused)", st)
	}
	if got := e.Cache().Counters().RelHits; got <= relHits {
		t.Errorf("RelHits = %d, want > %d (result served from the relation region)", got, relHits)
	}
	e.ClearCaches()
	e.ResetStats()
	if _, err := e.EvaluateQuery("d.(b.c)+.c"); err != nil {
		t.Fatal(err)
	}
	if e.Stats().CacheHits != 0 {
		t.Error("ClearCaches did not drop the RTC cache")
	}
}

func TestNoSharingNeverCaches(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{Strategy: NoSharing})
	for i := 0; i < 3; i++ {
		if _, err := e.EvaluateQuery("d.(b.c)+.c"); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.CacheHits != 0 {
		t.Errorf("CacheHits = %d, want 0: NoSharing must not reuse closures", st.CacheHits)
	}
	if st.CacheMisses != 3 {
		t.Errorf("CacheMisses = %d, want 3 (one closure per query)", st.CacheMisses)
	}
}

func TestNoSharingMatchesFullSharingOnSingleQuery(t *testing.T) {
	// The paper's Fig. 14 anchor: with one query there is nothing to
	// share, so NoSharing and FullSharing do identical work.
	g := fixtures.Figure1()
	eNo := New(g, Options{Strategy: NoSharing})
	eFull := New(g, Options{Strategy: FullSharing})
	rNo, err := eNo.EvaluateQuery("d.(b.c)+.c")
	if err != nil {
		t.Fatal(err)
	}
	rFull, err := eFull.EvaluateQuery("d.(b.c)+.c")
	if err != nil {
		t.Fatal(err)
	}
	if !rNo.Equal(rFull) {
		t.Error("results differ")
	}
	if eNo.Stats().CacheMisses != eFull.Stats().CacheMisses {
		t.Error("single-query closure computations differ")
	}
	if eNo.SharedPairsTotal() != eFull.SharedPairsTotal() {
		t.Errorf("closure sizes differ: No=%d Full=%d",
			eNo.SharedPairsTotal(), eFull.SharedPairsTotal())
	}
}

func TestDisableCache(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{Strategy: RTCSharing, DisableCache: true})
	for i := 0; i < 2; i++ {
		if _, err := e.EvaluateQuery("d.(b.c)+.c"); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().CacheHits != 0 {
		t.Errorf("CacheHits = %d, want 0 with cache disabled", e.Stats().CacheHits)
	}
	if e.Stats().CacheMisses != 2 {
		t.Errorf("CacheMisses = %d, want 2", e.Stats().CacheMisses)
	}
}

func TestSharedSummaries(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{Strategy: RTCSharing})
	if _, err := e.EvaluateQuery("d.(b.c)+.c"); err != nil {
		t.Fatal(err)
	}
	sums := e.SharedSummaries()
	if len(sums) != 1 {
		t.Fatalf("summaries = %d, want 1", len(sums))
	}
	s := sums[0]
	// Example 5/6: G_{b·c} has 5 vertices, 3 SCCs, |TC(Ḡ)| = 3.
	if s.R != "b.c" || s.SharedPairs != 3 || s.ReducedVertices != 3 || s.EdgeReducedVertices != 5 {
		t.Errorf("summary = %+v", s)
	}
	if s.AvgSCCSize != 5.0/3.0 {
		t.Errorf("AvgSCCSize = %v, want 5/3", s.AvgSCCSize)
	}
	if e.SharedPairsTotal() != 3 {
		t.Errorf("SharedPairsTotal = %d, want 3", e.SharedPairsTotal())
	}

	// FullSharing's shared structure is the full 10-pair closure.
	ef := New(g, Options{Strategy: FullSharing})
	if _, err := ef.EvaluateQuery("d.(b.c)+.c"); err != nil {
		t.Fatal(err)
	}
	if got := ef.SharedPairsTotal(); got != 10 {
		t.Errorf("FullSharing shared pairs = %d, want 10 (Example 4)", got)
	}
}

func TestTCAlgoOptions(t *testing.T) {
	g := fixtures.Figure1()
	want := eval.Evaluate(g, rpq.MustParse("d.(b.c)+.c"))
	for _, algo := range []rtc.TCAlgorithm{rtc.BFSClosure, rtc.PurdomClosure, rtc.NuutilaClosure} {
		e := New(g, Options{Strategy: RTCSharing, TCAlgo: algo})
		got, err := e.EvaluateQuery("d.(b.c)+.c")
		if err != nil || !got.EqualSet(want) {
			t.Errorf("algo %v wrong (err=%v)", algo, err)
		}
	}
}

func TestUseDFAOption(t *testing.T) {
	g := fixtures.Figure1()
	want := eval.Evaluate(g, rpq.MustParse("d.(b.c)+.c"))
	for _, s := range strategies() {
		e := New(g, Options{Strategy: s, UseDFA: true})
		got, err := e.EvaluateQuery("d.(b.c)+.c")
		if err != nil || !got.EqualSet(want) {
			t.Errorf("%v with DFA wrong (err=%v)", s, err)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if RTCSharing.String() != "RTC" || FullSharing.String() != "Full" || NoSharing.String() != "No" {
		t.Error("Strategy strings wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy should format")
	}
}

// The end-to-end equivalence theorem: on random graphs and random
// queries, all three engines agree with the compositional reference.
func TestEnginesAgreeWithReference(t *testing.T) {
	labels := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := fixtures.RandomGraph(rng, 1+rng.Intn(10), rng.Intn(25), labels)
		e := rpq.RandomExpr(rng, labels, 3)
		want := eval.Reference(g, e)
		for _, s := range strategies() {
			eng := New(g, Options{Strategy: s})
			got, err := eng.Evaluate(e)
			if err != nil {
				return true // DNF limit explosion: acceptable rejection
			}
			if !got.EqualSet(want) {
				t.Logf("strategy=%v expr=%q |got|=%d |want|=%d", s, e, got.Len(), want.Len())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: engines agree on batch-unit workloads (the exact query shape
// of Section V) across random graphs, including cache reuse across a set.
func TestEnginesAgreeOnBatchUnits(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := fixtures.RandomGraph(rng, 2+rng.Intn(15), rng.Intn(60), labels)
		// A query set sharing one R, as in the experiments.
		rLen := 1 + rng.Intn(3)
		rParts := make([]rpq.Expr, rLen)
		for i := range rParts {
			rParts[i] = rpq.Label{Name: labels[rng.Intn(len(labels))]}
		}
		r := rpq.NewConcat(rParts...)
		var queries []rpq.Expr
		for i := 0; i < 3; i++ {
			pre := rpq.Label{Name: labels[rng.Intn(len(labels))]}
			post := rpq.Label{Name: labels[rng.Intn(len(labels))]}
			var mid rpq.Expr
			if rng.Intn(2) == 0 {
				mid = rpq.Plus{Sub: r}
			} else {
				mid = rpq.Star{Sub: r}
			}
			queries = append(queries, rpq.NewConcat(pre, mid, post))
		}
		engines := make(map[Strategy][]*pairs.Relation)
		for _, s := range strategies() {
			eng := New(g, Options{Strategy: s})
			res, err := eng.EvaluateSet(queries)
			if err != nil {
				return false
			}
			engines[s] = res
		}
		for i := range queries {
			if !engines[RTCSharing][i].Equal(engines[NoSharing][i]) ||
				!engines[FullSharing][i].Equal(engines[NoSharing][i]) {
				t.Logf("disagreement on %q", queries[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCachedResultFastPath(t *testing.T) {
	g := fixtures.Figure1()
	q := rpq.MustParse("d·(b·c)+·c")

	e := New(g, Options{})
	if _, _, ok := e.CachedResult(q); ok {
		t.Fatal("cold engine reported a cached result")
	}
	want, err := e.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	rel, epoch, ok := e.CachedResult(q)
	if !ok || rel != want || epoch != e.Epoch() {
		t.Fatalf("warm CachedResult: ok=%v epoch=%d", ok, epoch)
	}

	// An update touching the query's labels invalidates the memo.
	if _, err := e.ApplyUpdates([]GraphUpdate{InsertEdge(0, "b", 1)}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := e.CachedResult(q); ok {
		t.Fatal("stale epoch served from CachedResult")
	}

	// Non-caching configurations always miss, even warm.
	for _, opts := range []Options{
		{DisableCache: true},
		{Strategy: NoSharing},
		{Layout: LayoutMapSet},
	} {
		ne := New(g, opts)
		if _, err := ne.Evaluate(q); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := ne.CachedResult(q); ok {
			t.Fatalf("options %+v reported a cached result", opts)
		}
	}
}
