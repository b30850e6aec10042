package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/workload"
)

// testServer starts an httptest server over g and returns it with the
// underlying Server.
func testServer(t *testing.T, g *graph.Graph, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(core.New(g, core.Options{}), opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postQuery issues one POST /query and decodes the response.
func postQuery(t *testing.T, base string, req QueryRequest) (QueryResponse, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return QueryResponse{}, resp.StatusCode
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /query response: %v", err)
	}
	return out, resp.StatusCode
}

// pairsOf converts a response page to a pair list.
func pairsOf(resp QueryResponse) []pairs.Pair {
	out := make([]pairs.Pair, len(resp.Pairs))
	for i, p := range resp.Pairs {
		out[i] = pairs.Pair{Src: p[0], Dst: p[1]}
	}
	return out
}

// TestServerQueryMatchesSerial is the integration identity gate: many
// concurrent HTTP clients issuing a sharing-heavy workload must receive
// exactly what serial Engine.Evaluate computes, pair for pair.
func TestServerQueryMatchesSerial(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 256, Edges: 1024, Labels: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(4, 17)
	wcfg.MaxRPQs = 6
	sets, err := workload.GenerateOver([]string{"l0", "l1", "l2", "l3"}, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var queries []string
	for _, s := range sets {
		for _, q := range s.Queries {
			queries = append(queries, q.String())
		}
	}

	serial := core.New(g, core.Options{})
	want := make(map[string]*pairs.Relation, len(queries))
	for _, q := range queries {
		rel, err := serial.Evaluate(rpq.MustParse(q))
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		want[q] = rel
	}

	_, ts := testServer(t, g, Options{})

	const clients = 16
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < len(queries); i++ {
				q := queries[(i+c)%len(queries)]
				resp, status := postQuery(t, ts.URL, QueryRequest{Query: q})
				if status != http.StatusOK {
					errc <- fmt.Errorf("client %d: %s: status %d", c, q, status)
					return
				}
				wantRel := want[q]
				if resp.Total != wantRel.Len() || len(resp.Pairs) != wantRel.Len() {
					errc <- fmt.Errorf("client %d: %s: got %d pairs, want %d", c, q, len(resp.Pairs), wantRel.Len())
					return
				}
				for _, p := range pairsOf(resp) {
					if !wantRel.Contains(p.Src, p.Dst) {
						errc <- fmt.Errorf("client %d: %s: unexpected pair (%d,%d)", c, q, p.Src, p.Dst)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestServerPaging walks a multi-pair result page by page and must
// reassemble exactly the full (src, dst)-ordered result.
func TestServerPaging(t *testing.T) {
	g := fixtures.Figure1()
	serial := core.New(g, core.Options{})
	const q = "(b·c)+"
	full, err := serial.Evaluate(rpq.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < 4 {
		t.Fatalf("fixture query too small to page: %d pairs", full.Len())
	}

	_, ts := testServer(t, g, Options{})
	var got []pairs.Pair
	for offset := 0; ; {
		resp, status := postQuery(t, ts.URL, QueryRequest{Query: q, Limit: 2, Offset: offset})
		if status != http.StatusOK {
			t.Fatalf("page offset=%d: status %d", offset, status)
		}
		if resp.Total != full.Len() {
			t.Fatalf("page offset=%d: total %d, want %d", offset, resp.Total, full.Len())
		}
		if resp.Count == 0 {
			break
		}
		got = append(got, pairsOf(resp)...)
		offset += resp.Count
	}
	wantPairs := full.Sorted()
	if len(got) != len(wantPairs) {
		t.Fatalf("reassembled %d pairs, want %d", len(got), len(wantPairs))
	}
	for i := range got {
		if got[i] != wantPairs[i] {
			t.Fatalf("pair %d: got %v, want %v", i, got[i], wantPairs[i])
		}
	}
}

// TestServerUpdateEndpoint drives POST /update and checks the new path
// is visible to subsequent queries, with an advanced epoch.
func TestServerUpdateEndpoint(t *testing.T) {
	g := fixtures.Figure1()
	_, ts := testServer(t, g, Options{})

	before, status := postQuery(t, ts.URL, QueryRequest{Query: "e+"})
	if status != http.StatusOK {
		t.Fatalf("query before update: status %d", status)
	}

	body, _ := json.Marshal(UpdateRequest{Updates: []EdgeUpdate{
		{Op: "insert", Src: 9, Label: "e", Dst: 0},
	}})
	resp, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ur UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ur.Inserted != 1 {
		t.Fatalf("update: status %d, inserted %d", resp.StatusCode, ur.Inserted)
	}
	if ur.Epoch <= before.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", before.Epoch, ur.Epoch)
	}

	after, status := postQuery(t, ts.URL, QueryRequest{Query: "e+"})
	if status != http.StatusOK {
		t.Fatalf("query after update: status %d", status)
	}
	if after.Epoch != ur.Epoch {
		t.Fatalf("post-update query epoch %d, want %d", after.Epoch, ur.Epoch)
	}
	hasNew := false
	for _, p := range pairsOf(after) {
		if p == (pairs.Pair{Src: 8, Dst: 0}) {
			hasNew = true
		}
	}
	if !hasNew {
		t.Fatalf("inserted edge not reflected in e+: %v", after.Pairs)
	}

	// Unknown op and out-of-range endpoint are rejected.
	for _, bad := range []EdgeUpdate{
		{Op: "upsert", Src: 0, Label: "e", Dst: 1},
		{Op: "insert", Src: 0, Label: "e", Dst: 10_000},
	} {
		body, _ := json.Marshal(UpdateRequest{Updates: []EdgeUpdate{bad}})
		resp, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad update %+v: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestServerEndpoints smoke-tests /healthz, /metrics, /explain, the GET
// /query form, and the error statuses.
func TestServerEndpoints(t *testing.T) {
	g := fixtures.Figure1()
	_, ts := testServer(t, g, Options{})

	var health HealthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("healthz: %+v", health)
	}

	if resp, status := postQuery(t, ts.URL, QueryRequest{Query: "d·(b·c)+·c"}); status != http.StatusOK || resp.Total != 2 {
		t.Fatalf("paper query: status %d, total %d (want 2)", status, resp.Total)
	}

	// GET form with paging parameters.
	r, err := http.Get(ts.URL + "/query?q=" + "(b·c)%2B" + "&limit=1&offset=1")
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(r.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK || qr.Count != 1 || qr.Offset != 1 {
		t.Fatalf("GET /query: status %d, %+v", r.StatusCode, qr)
	}

	var ex ExplainResponse
	getJSON(t, ts.URL+"/explain?q=d·(b·c)%2B·c", &ex)
	if len(ex.Clauses) == 0 || ex.Strategy != "RTC" {
		t.Fatalf("explain: %+v", ex)
	}

	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Graph.Vertices != 10 || m.Coalescer.Submitted == 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.Cache.CrossEpochHits != 0 {
		t.Fatalf("cross-epoch hits on a static graph: %d", m.Cache.CrossEpochHits)
	}

	// Error statuses: missing query, bad syntax, bad paging, bad method.
	if _, status := postQuery(t, ts.URL, QueryRequest{}); status != http.StatusBadRequest {
		t.Fatalf("missing query: status %d", status)
	}
	if _, status := postQuery(t, ts.URL, QueryRequest{Query: "(((("}); status != http.StatusBadRequest {
		t.Fatalf("syntax error: status %d", status)
	}
	if _, status := postQuery(t, ts.URL, QueryRequest{Query: "a", Offset: -1}); status != http.StatusBadRequest {
		t.Fatalf("negative offset: status %d", status)
	}
	resp, err := http.Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update: status %d, want 405", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestCoalescerDedup: concurrent requests for the same query share one
// evaluation through the engine's shared cache — no server-side dedup —
// and receive the same sealed relation.
func TestCoalescerDedup(t *testing.T) {
	g := fixtures.Figure1()
	const q = "d·(b·c)+·c"
	ref := core.New(g, core.Options{})
	if _, err := ref.Evaluate(rpq.MustParse(q)); err != nil {
		t.Fatal(err)
	}
	want := ref.Cache().Counters()

	engine := core.New(g, core.Options{})
	// Both requests are evaluated (neither is a memo hit): each enters
	// the engine and waits in the hook until the other has too.
	var arrived sync.WaitGroup
	arrived.Add(2)
	engine.SetEvalHook(func(string) {
		arrived.Done()
		arrived.Wait()
	})
	c := newCoalescer(engine, Options{MaxInFlight: 2}.withDefaults())
	defer c.close()

	var wg sync.WaitGroup
	results := make([]result, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.submit(context.Background(), q, rpq.MustParse(q), time.Now())
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.path != pathEvaluated {
			t.Fatalf("request %d took path %v, want evaluated", i, r.path)
		}
	}
	if results[0].rel != results[1].rel || results[0].epoch != results[1].epoch {
		t.Fatal("concurrent identical requests got different relations or epochs")
	}
	got := engine.Cache().Counters()
	if got.Misses != want.Misses || got.RelMisses != want.RelMisses {
		t.Fatalf("two concurrent requests computed %d structures and %d relations, one evaluation computes %d and %d",
			got.Misses, got.RelMisses, want.Misses, want.RelMisses)
	}
}

// TestCoalescerAdmission: with the only evaluation slot busy and the
// waiter bound full, one more request is rejected with ErrOverloaded;
// the waiters are then served, and after close submits are rejected with
// ErrShuttingDown.
func TestCoalescerAdmission(t *testing.T) {
	eng := newGatedEngine(fixtures.Figure1())
	c := newCoalescer(eng, Options{MaxInFlight: 1}.withDefaults())

	var wg sync.WaitGroup
	errs := make(chan error, waitersPerSlot+1)
	for i := 0; i <= waitersPerSlot; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r := c.submit(context.Background(), "a", rpq.MustParse("a"), time.Now()); r.err != nil {
				errs <- r.err
			}
		}()
	}
	<-eng.entered
	eventually(t, 5*time.Second, "waiter bound filled", func() bool {
		return c.waiting.Load() == waitersPerSlot
	})
	r := c.submit(context.Background(), "b", rpq.MustParse("b"), time.Now())
	if !errors.Is(r.err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", r.err)
	}
	if st := c.stats(); st.Rejected != 1 {
		t.Fatalf("rejection not counted: %+v", st)
	}

	close(eng.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("a waiter within the bound failed: %v", err)
	}
	c.close()
	r = c.submit(context.Background(), "a", rpq.MustParse("a"), time.Now())
	if !errors.Is(r.err, ErrShuttingDown) {
		t.Fatalf("expected ErrShuttingDown after close, got %v", r.err)
	}
}

// TestCoalescerRequestTimeout: a request whose deadline passes
// mid-evaluation leaves with the deadline error, is counted abandoned
// rather than as an evaluation error, and frees its slot.
func TestCoalescerRequestTimeout(t *testing.T) {
	eng := newGatedEngine(fixtures.Figure1())
	c := newCoalescer(eng, Options{MaxInFlight: 1}.withDefaults())
	defer c.close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	r := c.submit(ctx, "a", rpq.MustParse("a"), start)
	if !errors.Is(r.err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", r.err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timed-out request did not return promptly")
	}
	if st := c.stats(); st.Abandoned != 1 || st.EvalErrors != 0 {
		t.Fatalf("timeout accounting: %+v, want 1 abandoned and no eval errors", st)
	}

	close(eng.gate)
	if r := c.submit(context.Background(), "a", rpq.MustParse("a"), time.Now()); r.err != nil {
		t.Fatalf("the slot was not freed: %v", r.err)
	}
}

// TestServerCloseFlushesPending: Close drains — a query already
// evaluating finishes with its real result, a query arriving during the
// drain is rejected with 503, and Close returns only after the
// in-flight one has answered.
func TestServerCloseFlushesPending(t *testing.T) {
	g := fixtures.Figure1()
	eng := newGatedEngine(g)
	srv := New(eng, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	got := make(chan QueryResponse, 1)
	status := make(chan int, 1)
	go func() {
		resp, st := postQuery(t, ts.URL, QueryRequest{Query: "d·(b·c)+·c"})
		got <- resp
		status <- st
	}()
	<-eng.entered // the query holds a slot inside the engine

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	eventually(t, 5*time.Second, "admission closed", func() bool {
		srv.coal.mu.Lock()
		defer srv.coal.mu.Unlock()
		return srv.coal.closed
	})
	if _, st := postQuery(t, ts.URL, QueryRequest{Query: "a"}); st != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status %d, want 503", st)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a query was still evaluating")
	default:
	}

	close(eng.gate)
	select {
	case resp := <-got:
		if st := <-status; st != http.StatusOK || resp.Total != 2 {
			t.Fatalf("drained query: status %d, total %d", st, resp.Total)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight query never answered")
	}
	<-closed
	if _, st := postQuery(t, ts.URL, QueryRequest{Query: "a"}); st != http.StatusServiceUnavailable {
		t.Fatalf("post-close query: status %d, want 503", st)
	}
}

// TestCoalescerFastPath: a result memoised at the current epoch is
// served without an evaluation slot or an engine evaluation.
func TestCoalescerFastPath(t *testing.T) {
	g := fixtures.Figure1()
	c := newCoalescer(core.New(g, core.Options{}), Options{}.withDefaults())
	defer c.close()

	const q = "d·(b·c)+·c"
	first := c.submit(context.Background(), q, rpq.MustParse(q), time.Now())
	if first.err != nil {
		t.Fatal(first.err)
	}
	second := c.submit(context.Background(), q, rpq.MustParse(q), time.Now())
	if second.err != nil {
		t.Fatal(second.err)
	}
	if first.path != pathEvaluated || second.path != pathFastPath {
		t.Fatalf("paths %v then %v, want evaluated then fast_path", first.path, second.path)
	}
	if st := c.stats(); st.FastPathHits != 1 {
		t.Fatalf("expected one fast-path hit: %+v", st)
	}
	if second.rel != first.rel {
		t.Fatalf("fast path returned a different relation")
	}
}

// TestServerAccessorsAndParamErrors covers the small surface the other
// tests skip: the accessors, GET-parameter validation, and the explain
// error paths.
func TestServerAccessorsAndParamErrors(t *testing.T) {
	g := fixtures.Figure1()
	srv, ts := testServer(t, g, Options{})

	if srv.Engine() == nil || srv.Engine().Graph().NumVertices() != 10 {
		t.Fatal("Engine accessor broken")
	}
	if got := srv.Options(); got.MaxInFlight != runtime.GOMAXPROCS(0) || got.RequestTimeout != 30*time.Second {
		t.Fatalf("Options accessor lost the effective options: %+v", got)
	}

	for _, url := range []string{
		ts.URL + "/query?q=a&limit=banana",
		ts.URL + "/query?q=a&offset=banana",
		ts.URL + "/explain",
		ts.URL + "/explain?q=((((",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", url, resp.StatusCode)
		}
	}

	// Malformed JSON bodies.
	for _, path := range []string{"/query", "/update"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s malformed: status %d, want 400", path, resp.StatusCode)
		}
	}

	// An effective no-op update batch keeps the epoch.
	body, _ := json.Marshal(UpdateRequest{Updates: []EdgeUpdate{
		{Op: "delete", Src: 0, Label: "a", Dst: 3}, // absent edge
	}})
	resp, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ur UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !ur.EffectiveNoOp || ur.Epoch != 0 {
		t.Fatalf("no-op update: %+v", ur)
	}
}

// TestCoalescerErrorIsolation: a query failing at evaluation time must
// not fail the valid queries served concurrently with it — each request
// gets its own outcome.
func TestCoalescerErrorIsolation(t *testing.T) {
	g := fixtures.Figure1()
	// MaxDNFClauses 1 makes any alternation-heavy query fail at
	// evaluation (parse-valid, DNF-bound error).
	engine := core.New(g, core.Options{MaxDNFClauses: 1})
	c := newCoalescer(engine, Options{}.withDefaults())
	defer c.close()

	queries := []string{"a", "(a|b)·(c|d)", "b·c"}
	results := make([]result, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			results[i] = c.submit(context.Background(), q, rpq.MustParse(q), time.Now())
		}(i, q)
	}
	wg.Wait()

	if results[1].err == nil {
		t.Fatal("DNF-bound query did not fail")
	}
	for _, i := range []int{0, 2} {
		if results[i].err != nil {
			t.Fatalf("valid query %q failed with its neighbour's error: %v", queries[i], results[i].err)
		}
		if results[i].rel == nil {
			t.Fatalf("valid query %q got no relation", queries[i])
		}
	}
	if st := c.stats(); st.EvalErrors != 1 {
		t.Fatalf("expected one recorded eval error: %+v", st)
	}
}

// TestCoalescerClosedAllPaths: after close, both admission paths — the
// fast path (warm memo) and evaluation (cold query) — reject with
// ErrShuttingDown.
func TestCoalescerClosedAllPaths(t *testing.T) {
	g := fixtures.Figure1()
	const q = "d·(b·c)+·c"

	engine := core.New(g, core.Options{})
	c := newCoalescer(engine, Options{}.withDefaults())
	// Warm the result memo so a post-close submit would hit the fast
	// path if it were allowed to.
	if r := c.submit(context.Background(), q, rpq.MustParse(q), time.Now()); r.err != nil {
		t.Fatal(r.err)
	}
	if _, _, ok := engine.CachedResult(rpq.MustParse(q)); !ok {
		t.Fatal("memo did not warm")
	}
	c.close()
	for _, q := range []string{q, "b·c"} {
		if r := c.submit(context.Background(), q, rpq.MustParse(q), time.Now()); !errors.Is(r.err, ErrShuttingDown) {
			t.Fatalf("%s served after close: %v", q, r.err)
		}
	}
	if st := c.stats(); st.Rejected != 2 {
		t.Fatalf("post-close rejections not counted: %+v", st)
	}
}

// TestServerHugeLimit: a pathological limit must page safely, not
// panic the handler.
func TestServerHugeLimit(t *testing.T) {
	g := fixtures.Figure1()
	_, ts := testServer(t, g, Options{})
	resp, status := postQuery(t, ts.URL, QueryRequest{Query: "(b·c)+", Limit: int(^uint(0) >> 1), Offset: 1})
	if status != http.StatusOK {
		t.Fatalf("huge limit: status %d", status)
	}
	if resp.Count != resp.Total-1 {
		t.Fatalf("huge limit: count %d, total %d", resp.Count, resp.Total)
	}
}
