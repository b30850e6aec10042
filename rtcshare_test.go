package rtcshare_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"

	"rtcshare"
)

// fig1 builds the paper's running example graph through the public API.
func fig1(t testing.TB) *rtcshare.Graph {
	t.Helper()
	b := rtcshare.NewGraphBuilder(10)
	edges := []struct {
		src   rtcshare.VID
		label string
		dst   rtcshare.VID
	}{
		{7, "d", 4}, {4, "b", 1}, {1, "c", 2}, {2, "c", 5}, {2, "b", 5},
		{2, "b", 3}, {3, "b", 2}, {5, "b", 6}, {5, "c", 6}, {5, "c", 4},
		{6, "c", 3}, {0, "a", 1}, {7, "a", 8}, {8, "e", 9}, {9, "f", 8},
	}
	for _, e := range edges {
		b.MustAddEdge(e.src, e.label, e.dst)
	}
	return b.Build()
}

func TestPublicQuickstart(t *testing.T) {
	g := fig1(t)
	res, err := rtcshare.Evaluate(g, "d·(b·c)+·c")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || !res.Contains(7, 5) || !res.Contains(7, 3) {
		t.Fatalf("got %v, want {(7,5),(7,3)}", res.Sorted())
	}
}

func TestPublicStrategies(t *testing.T) {
	g := fig1(t)
	for _, s := range []rtcshare.Strategy{rtcshare.RTCSharing, rtcshare.FullSharing, rtcshare.NoSharing} {
		e := rtcshare.NewEngine(g, rtcshare.Options{Strategy: s})
		res, err := e.EvaluateQuery("d.(b.c)+.c")
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Len() != 2 {
			t.Errorf("%v: %d pairs, want 2", s, res.Len())
		}
	}
}

func TestPublicEngineStats(t *testing.T) {
	g := fig1(t)
	e := rtcshare.NewEngine(g, rtcshare.Options{})
	queries := []string{"a.(b.c)+.c", "d.(b.c)+.c", "(b.c)*.c"}
	for _, q := range queries {
		if _, err := e.EvaluateQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Queries != len(queries) {
		t.Errorf("Queries = %d, want %d", st.Queries, len(queries))
	}
	if st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 2/1 (b·c shared)", st.CacheHits, st.CacheMisses)
	}
	sums := e.SharedSummaries()
	if len(sums) != 1 || sums[0].R != "b.c" {
		t.Errorf("summaries = %+v", sums)
	}
}

func TestPublicGraphIO(t *testing.T) {
	g := fig1(t)
	var buf bytes.Buffer
	if err := rtcshare.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := rtcshare.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rtcshare.Evaluate(g2, "d.(b.c)+.c")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("round-tripped graph gives %d pairs, want 2", res.Len())
	}
}

func TestPublicParseQuery(t *testing.T) {
	e, err := rtcshare.ParseQuery("a.(b|c)+")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "a.(b|c)+" {
		t.Errorf("String = %q", e.String())
	}
	if _, err := rtcshare.ParseQuery("(("); err == nil {
		t.Error("want parse error")
	}
}

func TestPublicGenerateRMAT(t *testing.T) {
	g, err := rtcshare.GenerateRMAT(rtcshare.RMATConfig{Vertices: 64, Edges: 256, Labels: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 256 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	eng := rtcshare.NewEngine(g, rtcshare.Options{})
	if _, err := eng.EvaluateQuery("l0.l1+.l2"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicEvaluateParallel(t *testing.T) {
	g := fig1(t)
	want, err := rtcshare.Evaluate(g, "d.(b.c)+.c")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rtcshare.EvaluateParallel(g, "d.(b.c)+.c", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("parallel %v != serial %v", got.Sorted(), want.Sorted())
	}
	if _, err := rtcshare.EvaluateParallel(g, "((", 2); err == nil {
		t.Error("want parse error")
	}
}

// The Result ordering contract: Each yields the pairs in ascending
// (src, dst) order, which is exactly Sorted(), and an unbounded Page
// from offset 0 is the same sequence.
func TestPublicResultOrder(t *testing.T) {
	g := fig1(t)
	res, err := rtcshare.Evaluate(g, "(b|c)+")
	if err != nil {
		t.Fatal(err)
	}
	var each []rtcshare.Pair
	res.Each(func(src, dst rtcshare.VID) bool {
		each = append(each, rtcshare.Pair{Src: src, Dst: dst})
		return true
	})
	sorted := res.Sorted()
	if len(sorted) < 2 {
		t.Fatalf("result has %d pairs; the order check needs several", len(sorted))
	}
	for i := 1; i < len(sorted); i++ {
		a, b := sorted[i-1], sorted[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Dst >= b.Dst) {
			t.Fatalf("Sorted() out of (src, dst) order at %d: %v then %v", i, a, b)
		}
	}
	if !slices.Equal(each, sorted) {
		t.Errorf("Each order %v != Sorted() %v", each, sorted)
	}
	if page := res.Page(0, 0); !slices.Equal(page, sorted) {
		t.Errorf("Page(0, 0) = %v, want Sorted() %v", page, sorted)
	}
}

func TestPublicExplain(t *testing.T) {
	g := fig1(t)
	e := rtcshare.NewEngine(g, rtcshare.Options{})
	plan, err := e.ExplainQuery("d.(b.c)+.c")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clauses) != 1 || plan.Clauses[0].R != "b.c" {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.String() == "" {
		t.Error("empty plan rendering")
	}
}

func TestPublicPlannerModes(t *testing.T) {
	g := fig1(t)
	want, err := rtcshare.Evaluate(g, "d.(b.c)+.c")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []rtcshare.PlannerMode{rtcshare.PlannerHeuristic, rtcshare.PlannerCostBased} {
		e := rtcshare.NewEngine(g, rtcshare.Options{Planner: mode})
		got, err := e.EvaluateQuery("d.(b.c)+.c")
		if err != nil {
			t.Fatalf("planner %v: %v", mode, err)
		}
		if !got.Equal(want) {
			t.Errorf("planner %v: %d pairs, want %d", mode, got.Len(), want.Len())
		}
		plan, err := e.ExplainAnalyzeQuery("d.(b.c)+.c")
		if err != nil {
			t.Fatalf("planner %v explain analyze: %v", mode, err)
		}
		if !plan.Analyzed || plan.ActualResultPairs != want.Len() {
			t.Errorf("planner %v: analyzed plan %+v, want %d actual pairs", mode, plan, want.Len())
		}
		if plan.Clauses[0].Kind == "" || plan.Clauses[0].Direction == "" {
			t.Errorf("planner %v: plan missing kind/direction: %+v", mode, plan.Clauses[0])
		}
	}
}

func TestPublicInverseLabels(t *testing.T) {
	g := fig1(t)
	res, err := rtcshare.Evaluate(g, "^d")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Contains(4, 7) {
		t.Fatalf("(^d)_G = %v, want {(4,7)}", res.Sorted())
	}
}

func TestPublicTCAlgorithms(t *testing.T) {
	g := fig1(t)
	for _, algo := range []rtcshare.TCAlgorithm{rtcshare.BFSClosure, rtcshare.PurdomClosure, rtcshare.NuutilaClosure} {
		e := rtcshare.NewEngine(g, rtcshare.Options{TCAlgo: algo})
		res, err := e.EvaluateQuery("d.(b.c)+.c")
		if err != nil || res.Len() != 2 {
			t.Errorf("algo %v: res=%v err=%v", algo, res, err)
		}
	}
}

func TestPublicEvaluateBatch(t *testing.T) {
	g := fig1(t)
	queries := []string{"d.(b.c)+.c", "a.(b.c)+.b", "d.(b.c)+.c", "(b.c)+"}
	got, err := rtcshare.EvaluateBatch(g, queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(queries) {
		t.Fatalf("results = %d, want %d", len(got), len(queries))
	}
	for i, q := range queries {
		want, err := rtcshare.Evaluate(g, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].Equal(want) {
			t.Errorf("query %d (%s): batch %d pairs, serial %d pairs", i, q, got[i].Len(), want.Len())
		}
	}
}

func TestPublicSharedCacheAcrossEngines(t *testing.T) {
	g := fig1(t)
	cache := rtcshare.NewSharedCache()
	a := rtcshare.NewEngineWithCache(g, rtcshare.Options{}, cache)
	b := rtcshare.NewEngineWithCache(g, rtcshare.Options{}, cache)

	if _, err := a.EvaluateQuery("d.(b.c)+.c"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EvaluateQuery("a.(b.c)+.b"); err != nil {
		t.Fatal(err)
	}
	// Engine b must have reused a's RTC for (b.c).
	if st := b.Stats(); st.CacheHits != 1 || st.CacheMisses != 0 {
		t.Errorf("engine b stats = %+v, want the shared RTC reused (1 hit, 0 misses)", st)
	}
	var c rtcshare.CacheCounters = cache.Counters()
	if c.Misses == 0 {
		t.Errorf("cache counters = %+v, want at least one computation recorded", c)
	}

	// A fork of a shares the same cache.
	f := a.Fork()
	if _, err := f.EvaluateQuery("(b.c)+"); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.CacheHits != 1 {
		t.Errorf("forked engine stats = %+v, want 1 hit", st)
	}
}

func TestPublicApplyUpdates(t *testing.T) {
	g := fig1(t)
	engine := rtcshare.NewEngine(g, rtcshare.Options{})
	before, err := engine.EvaluateQuery("d.(b.c)+.c")
	if err != nil {
		t.Fatal(err)
	}

	res, err := engine.ApplyUpdates([]rtcshare.GraphUpdate{
		rtcshare.InsertEdge(0, "d", 4),
		rtcshare.DeleteEdge(7, "d", 4),
		rtcshare.InsertEdge(3, "g", 7), // brand-new label
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 2 || res.Deleted != 1 || res.Epoch == 0 {
		t.Fatalf("update result = %+v", res)
	}
	if engine.Epoch() != res.Epoch {
		t.Fatalf("engine epoch %d, result epoch %d", engine.Epoch(), res.Epoch)
	}

	after, err := engine.EvaluateQuery("d.(b.c)+.c")
	if err != nil {
		t.Fatal(err)
	}
	// The d-anchored paths moved from source 7 to source 0.
	if after.Len() != before.Len() {
		t.Fatalf("result size changed: %d → %d", before.Len(), after.Len())
	}
	if !after.Contains(0, 5) || after.Contains(7, 5) {
		t.Fatalf("updated results wrong: %v", after)
	}
	if res, err := engine.EvaluateQuery("b.g"); err != nil || res.Len() != 1 {
		t.Fatalf("new-label query = %v, %v", res, err)
	}
}

func TestPublicMutableGraph(t *testing.T) {
	m := rtcshare.NewMutableGraph(4)
	if _, err := m.InsertEdge(0, "follows", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.InsertEdge(1, "follows", 2); err != nil {
		t.Fatal(err)
	}
	if removed, err := m.DeleteEdge(0, "follows", 1); err != nil || !removed {
		t.Fatalf("delete: %v %v", removed, err)
	}
	g := m.Freeze()
	if g.NumEdges() != 1 {
		t.Fatalf("frozen edges = %d, want 1", g.NumEdges())
	}
	m2 := rtcshare.MutableFromGraph(g)
	if m2.NumEdges() != 1 {
		t.Fatalf("round-trip edges = %d, want 1", m2.NumEdges())
	}
}

// TestPublicServe boots the HTTP service through the public surface
// (NewEngine + ServeListener), issues a query and an update,
// and shuts down cleanly.
func TestPublicServe(t *testing.T) {
	g := fig1(t)
	engine := rtcshare.NewEngine(g, rtcshare.Options{})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- rtcshare.ServeListener(ctx, l, engine, rtcshare.ServerOptions{})
	}()

	resp, err := http.Post(base+"/query", "application/json",
		strings.NewReader(`{"query":"d·(b·c)+·c"}`))
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Total int      `json:"total"`
		Epoch uint64   `json:"epoch"`
		Pairs [][2]int `json:"pairs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.Total != 2 {
		t.Fatalf("query: status %d, total %d (want 2)", resp.StatusCode, qr.Total)
	}

	resp, err = http.Post(base+"/update", "application/json",
		strings.NewReader(`{"updates":[{"op":"insert","src":6,"label":"b","dst":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var ur struct {
		Epoch    uint64 `json:"epoch"`
		Inserted int    `json:"inserted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ur.Inserted != 1 || ur.Epoch != qr.Epoch+1 {
		t.Fatalf("update: %+v (query epoch %d)", ur, qr.Epoch)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("ServeListener: %v", err)
	}
}
