package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
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

	_, ts := testServer(t, g, Options{Window: time.Millisecond})

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

	_, ts := testServer(t, g, Options{Window: time.Millisecond})
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
	_, ts := testServer(t, g, Options{Window: time.Millisecond})

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
	_, ts := testServer(t, g, Options{Window: time.Millisecond})

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

// TestCoalescerWindowPartialBatch: the window timer must seal and
// evaluate a partial batch (far below MaxBatch).
func TestCoalescerWindowPartialBatch(t *testing.T) {
	g := fixtures.Figure1()
	c := newCoalescer(core.New(g, core.Options{}), Options{
		Window: 20 * time.Millisecond, MaxBatch: 100, Workers: 2,
		MaxInFlight: 1, MaxQueuedBatches: 4,
	})
	defer c.close()

	var wg sync.WaitGroup
	queries := []string{"a", "b·c", "e·f"}
	results := make([]result, len(queries))
	start := time.Now()
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			results[i] = c.submit(context.Background(), q, rpq.MustParse(q))
		}(i, q)
	}
	wg.Wait()
	elapsed := time.Since(start)

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("query %d: %v", i, r.err)
		}
	}
	st := c.stats()
	if st.Batches != 1 || st.SealedByWindow != 1 || st.BatchDistinct != 3 {
		t.Fatalf("expected one window-sealed batch of 3: %+v", st)
	}
	if elapsed < 15*time.Millisecond {
		t.Fatalf("batch sealed before the window expired: %v", elapsed)
	}
}

// TestCoalescerDedup: two waiters on the same query string must ride
// ONE evaluation and receive the same sealed relation.
func TestCoalescerDedup(t *testing.T) {
	g := fixtures.Figure1()
	engine := core.New(g, core.Options{})
	c := newCoalescer(engine, Options{
		Window: 15 * time.Millisecond, MaxBatch: 100, Workers: 2,
		MaxInFlight: 1, MaxQueuedBatches: 4,
	})
	defer c.close()

	const q = "d·(b·c)+·c"
	var wg sync.WaitGroup
	results := make([]result, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.submit(context.Background(), q, rpq.MustParse(q))
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("waiter %d: %v", i, r.err)
		}
	}
	if results[0].rel != results[1].rel {
		t.Fatalf("dedup waiters got different relations")
	}
	if results[0].epoch != results[1].epoch {
		t.Fatalf("dedup waiters got different epochs")
	}
	st := c.stats()
	if st.DedupHits != 1 || st.BatchDistinct != 1 || st.BatchQueries != 2 {
		t.Fatalf("expected 1 dedup hit on 1 distinct query with 2 waiters: %+v", st)
	}
}

// TestCoalescerSizeSeal: reaching MaxBatch distinct queries seals the
// batch long before the window expires.
func TestCoalescerSizeSeal(t *testing.T) {
	g := fixtures.Figure1()
	c := newCoalescer(core.New(g, core.Options{}), Options{
		Window: 10 * time.Second, MaxBatch: 2, Workers: 2,
		MaxInFlight: 1, MaxQueuedBatches: 4,
	})
	defer c.close()

	var wg sync.WaitGroup
	for _, q := range []string{"a", "b"} {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			if r := c.submit(context.Background(), q, rpq.MustParse(q)); r.err != nil {
				t.Errorf("%s: %v", q, r.err)
			}
		}(q)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("size-capped batch did not seal before the window")
	}
	if st := c.stats(); st.SealedBySize != 1 {
		t.Fatalf("expected a size seal: %+v", st)
	}
}

// TestCoalescerAdmission: with zero evaluation slots and a zero-length
// queue, a sealed batch is rejected with ErrOverloaded; after close,
// submits are rejected with ErrShuttingDown.
func TestCoalescerAdmission(t *testing.T) {
	g := fixtures.Figure1()
	c := newCoalescer(core.New(g, core.Options{}), Options{
		Window: time.Millisecond, MaxBatch: 1, Workers: 1,
		MaxInFlight: 0, MaxQueuedBatches: 0,
	})
	r := c.submit(context.Background(), "a", rpq.MustParse("a"))
	if !errors.Is(r.err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", r.err)
	}
	if st := c.stats(); st.Rejected == 0 {
		t.Fatalf("rejection not counted: %+v", st)
	}
	c.close()
	r = c.submit(context.Background(), "a", rpq.MustParse("a"))
	if !errors.Is(r.err, ErrShuttingDown) {
		t.Fatalf("expected ErrShuttingDown after close, got %v", r.err)
	}
}

// TestCoalescerRequestTimeout: a waiter whose context expires while the
// window is still open walks away with the context error.
func TestCoalescerRequestTimeout(t *testing.T) {
	g := fixtures.Figure1()
	c := newCoalescer(core.New(g, core.Options{}), Options{
		Window: 500 * time.Millisecond, MaxBatch: 100, Workers: 1,
		MaxInFlight: 1, MaxQueuedBatches: 4,
	})
	defer c.close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	r := c.submit(ctx, "a", rpq.MustParse("a"))
	if !errors.Is(r.err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", r.err)
	}
	if time.Since(start) > 200*time.Millisecond {
		t.Fatalf("timed-out waiter blocked for the whole window")
	}
	if st := c.stats(); st.Abandoned != 1 {
		t.Fatalf("abandonment not counted: %+v", st)
	}
}

// TestServerCloseFlushesPending: Close must flush the open window —
// already-admitted waiters get real results, later submits are
// rejected.
func TestServerCloseFlushesPending(t *testing.T) {
	g := fixtures.Figure1()
	srv := New(core.New(g, core.Options{}), Options{Window: 10 * time.Second, MaxBatch: 100})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	got := make(chan QueryResponse, 1)
	status := make(chan int, 1)
	go func() {
		resp, st := postQuery(t, ts.URL, QueryRequest{Query: "d·(b·c)+·c"})
		got <- resp
		status <- st
	}()
	// Wait for the request to land in the window, then close.
	deadline := time.Now().Add(5 * time.Second)
	for srv.coal.stats().Submitted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()

	select {
	case resp := <-got:
		if st := <-status; st != http.StatusOK || resp.Total != 2 {
			t.Fatalf("flushed query: status %d, total %d", st, resp.Total)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flushed waiter never answered")
	}
	if _, st := postQuery(t, ts.URL, QueryRequest{Query: "a"}); st != http.StatusServiceUnavailable {
		t.Fatalf("post-close query: status %d, want 503", st)
	}
}

// TestCoalescerFastPath: a result memoised at the current epoch is
// served without forming a batch at all.
func TestCoalescerFastPath(t *testing.T) {
	g := fixtures.Figure1()
	c := newCoalescer(core.New(g, core.Options{}), Options{
		Window: time.Millisecond, MaxBatch: 100, Workers: 1,
		MaxInFlight: 1, MaxQueuedBatches: 4,
	})
	defer c.close()

	const q = "d·(b·c)+·c"
	first := c.submit(context.Background(), q, rpq.MustParse(q))
	if first.err != nil {
		t.Fatal(first.err)
	}
	batchesBefore := c.stats().Batches
	second := c.submit(context.Background(), q, rpq.MustParse(q))
	if second.err != nil {
		t.Fatal(second.err)
	}
	st := c.stats()
	if st.FastPathHits != 1 {
		t.Fatalf("expected one fast-path hit: %+v", st)
	}
	if st.Batches != batchesBefore {
		t.Fatalf("fast path formed a batch: %+v", st)
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
	srv, ts := testServer(t, g, Options{Window: time.Millisecond})

	if srv.Engine() == nil || srv.Engine().Graph().NumVertices() != 10 {
		t.Fatal("Engine accessor broken")
	}
	if got := srv.Options(); got.Window != time.Millisecond || got.MaxBatch != 64 {
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
// not fail the valid queries co-batched with it — each waiter gets its
// own per-query outcome.
func TestCoalescerErrorIsolation(t *testing.T) {
	g := fixtures.Figure1()
	// MaxDNFClauses 1 makes any alternation-heavy query fail at
	// evaluation (parse-valid, DNF-bound error).
	engine := core.New(g, core.Options{MaxDNFClauses: 1})
	c := newCoalescer(engine, Options{
		Window: 15 * time.Millisecond, MaxBatch: 100, Workers: 2,
		MaxInFlight: 1, MaxQueuedBatches: 4,
	})
	defer c.close()

	queries := []string{"a", "(a|b)·(c|d)", "b·c"}
	results := make([]result, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			results[i] = c.submit(context.Background(), q, rpq.MustParse(q))
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

// TestCoalescerClosedAllPaths: after close, every admission path —
// window, fast path (warm memo), and DisableCoalescing — rejects with
// ErrShuttingDown.
func TestCoalescerClosedAllPaths(t *testing.T) {
	g := fixtures.Figure1()
	const q = "d·(b·c)+·c"

	engine := core.New(g, core.Options{})
	c := newCoalescer(engine, Options{
		Window: time.Millisecond, MaxBatch: 100, Workers: 1,
		MaxInFlight: 1, MaxQueuedBatches: 4,
	})
	// Warm the result memo so a post-close submit would hit the fast
	// path if it were allowed to.
	if r := c.submit(context.Background(), q, rpq.MustParse(q)); r.err != nil {
		t.Fatal(r.err)
	}
	if _, _, ok := engine.CachedResult(rpq.MustParse(q)); !ok {
		t.Fatal("memo did not warm")
	}
	c.close()
	if r := c.submit(context.Background(), q, rpq.MustParse(q)); !errors.Is(r.err, ErrShuttingDown) {
		t.Fatalf("fast path served after close: %v", r.err)
	}

	d := newCoalescer(core.New(g, core.Options{}), Options{
		Window: time.Millisecond, MaxBatch: 100, Workers: 1,
		MaxInFlight: 1, MaxQueuedBatches: 4, DisableCoalescing: true,
	})
	d.close()
	if r := d.submit(context.Background(), q, rpq.MustParse(q)); !errors.Is(r.err, ErrShuttingDown) {
		t.Fatalf("DisableCoalescing path served after close: %v", r.err)
	}
}

// TestServerHugeLimit: a pathological limit must page safely, not
// panic the handler.
func TestServerHugeLimit(t *testing.T) {
	g := fixtures.Figure1()
	_, ts := testServer(t, g, Options{Window: time.Millisecond})
	resp, status := postQuery(t, ts.URL, QueryRequest{Query: "(b·c)+", Limit: int(^uint(0) >> 1), Offset: 1})
	if status != http.StatusOK {
		t.Fatalf("huge limit: status %d", status)
	}
	if resp.Count != resp.Total-1 {
		t.Fatalf("huge limit: count %d, total %d", resp.Count, resp.Total)
	}
}
