package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// metricsOf fetches and decodes GET /metrics.
func metricsOf(t *testing.T, base string) Metrics {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	return m
}

// TestServerCursorPaging pages one result through the opaque-cursor
// chain and must reassemble exactly the full (src, dst)-ordered result;
// the final page carries no cursor.
func TestServerCursorPaging(t *testing.T) {
	g := fixtures.Figure1()
	serial := core.New(g, core.Options{})
	const query = "(b.c)+"
	want, err := serial.Evaluate(rpq.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() < 4 {
		t.Fatalf("fixture result too small to page: %d pairs", want.Len())
	}

	srv, ts := testServer(t, g, Options{})

	first, status := postQuery(t, ts.URL, QueryRequest{Query: query, Limit: 3})
	if status != http.StatusOK {
		t.Fatalf("first page: status %d", status)
	}
	if first.NextCursor == "" {
		t.Fatalf("first page of %d pairs with limit 3 carried no cursor", want.Len())
	}
	got := pairsOf(first)
	cursor := first.NextCursor
	pages := 1
	for cursor != "" {
		resp, status := postQuery(t, ts.URL, QueryRequest{Query: query, Limit: 3, Cursor: cursor})
		if status != http.StatusOK {
			t.Fatalf("page %d: status %d", pages+1, status)
		}
		if resp.Epoch != first.Epoch {
			t.Fatalf("page %d epoch %d, first page epoch %d", pages+1, resp.Epoch, first.Epoch)
		}
		got = append(got, pairsOf(resp)...)
		cursor = resp.NextCursor
		pages++
		if pages > want.Len() {
			t.Fatalf("cursor chain did not terminate after %d pages", pages)
		}
	}
	sorted := want.Sorted()
	if len(got) != len(sorted) {
		t.Fatalf("cursor chain yielded %d pairs, want %d", len(got), len(sorted))
	}
	for i, p := range sorted {
		if got[i] != p {
			t.Fatalf("pair %d = (%d,%d), want (%d,%d)", i, got[i].Src, got[i].Dst, p.Src, p.Dst)
		}
	}
	if pages < 2 {
		t.Fatalf("paging exercised only %d page(s)", pages)
	}
	if n := srv.cursorResumes.Load(); n != int64(pages-1) {
		t.Fatalf("cursorResumes = %d, want %d", n, pages-1)
	}
}

// TestServerCursorInvalid: garbage, tampered and wrong-query tokens are
// all structured 410s — and the decode happens before evaluation, so
// the rejection is cheap.
func TestServerCursorInvalid(t *testing.T) {
	g := fixtures.Figure1()
	_, ts := testServer(t, g, Options{})
	const query = "(b.c)+"

	valid := encodeCursor(0, 2, query)
	for name, tok := range map[string]string{
		"garbage":     "!!!not-a-cursor!!!",
		"truncated":   valid[:10],
		"wrong query": encodeCursor(0, 2, "a.b"),
	} {
		resp, status := postQuery(t, ts.URL, QueryRequest{Query: query, Limit: 3, Cursor: tok})
		if status != http.StatusGone {
			t.Fatalf("%s cursor: status %d (resp %+v), want 410", name, status, resp)
		}
	}

	// Position beyond the result is 410 too: the page it names does not
	// exist at this epoch.
	_, status := postQuery(t, ts.URL, QueryRequest{Query: query, Limit: 3, Cursor: encodeCursor(0, 1<<40, query)})
	if status != http.StatusGone {
		t.Fatalf("out-of-range cursor: status %d, want 410", status)
	}
}

// TestServerCursorEpochGone: a cursor minted before an update names a
// page of a graph that no longer exists — resuming it is a 410, never a
// page inconsistent with the earlier ones.
func TestServerCursorEpochGone(t *testing.T) {
	g := fixtures.Figure1()
	srv, ts := testServer(t, g, Options{})
	const query = "(b.c)+"

	first, status := postQuery(t, ts.URL, QueryRequest{Query: query, Limit: 3})
	if status != http.StatusOK || first.NextCursor == "" {
		t.Fatalf("first page: status %d, cursor %q", status, first.NextCursor)
	}

	up, upResp := postUpdate(t, ts.URL, UpdateRequest{Updates: []EdgeUpdate{{Op: "insert", Src: 0, Label: "b", Dst: 7}}})
	if upResp.StatusCode != http.StatusOK {
		t.Fatalf("POST /update: status %d", upResp.StatusCode)
	}
	if up.Epoch == first.Epoch {
		t.Fatalf("update did not advance the epoch: %d", up.Epoch)
	}

	if _, status := postQuery(t, ts.URL, QueryRequest{Query: query, Limit: 3, Cursor: first.NextCursor}); status != http.StatusGone {
		t.Fatalf("stale-epoch cursor: status %d, want 410", status)
	}
	if n := srv.epochAborts.Load(); n == 0 {
		t.Fatal("epoch abort not counted")
	}

	// A fresh page sequence on the new graph works.
	fresh, status := postQuery(t, ts.URL, QueryRequest{Query: query, Limit: 3})
	if status != http.StatusOK {
		t.Fatalf("fresh page after update: status %d", status)
	}
	if fresh.Epoch != up.Epoch {
		t.Fatalf("fresh page epoch %d, want %d", fresh.Epoch, up.Epoch)
	}
}

// streamRecords parses one NDJSON /query/stream response body into its
// meta record, concatenated pairs, and done/error records.
type streamRecords struct {
	meta   streamMeta
	pairs  []pairs.Pair
	done   *streamDone
	fail   *streamError
	chunks int
}

func parseNDJSON(t *testing.T, body []byte) streamRecords {
	t.Helper()
	var out streamRecords
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case first:
			if err := json.Unmarshal(line, &out.meta); err != nil {
				t.Fatalf("bad meta record: %v", err)
			}
			first = false
		case probe["pairs"] != nil:
			var c streamChunk
			if err := json.Unmarshal(line, &c); err != nil {
				t.Fatalf("bad pairs record: %v", err)
			}
			for _, p := range c.Pairs {
				out.pairs = append(out.pairs, pairs.Pair{Src: p[0], Dst: p[1]})
			}
			out.chunks++
		case probe["done"] != nil:
			out.done = &streamDone{}
			if err := json.Unmarshal(line, out.done); err != nil {
				t.Fatalf("bad done record: %v", err)
			}
		case probe["error"] != nil:
			out.fail = &streamError{}
			if err := json.Unmarshal(line, out.fail); err != nil {
				t.Fatalf("bad error record: %v", err)
			}
		default:
			t.Fatalf("unrecognised NDJSON record %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerStreamNDJSON is the streamed half of the differential
// identity gate: for a spread of queries over a random graph, the
// concatenated /query/stream chunks must equal the sealed evaluation
// pair for pair, in order, with the meta and done records consistent.
func TestServerStreamNDJSON(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 128, Edges: 512, Labels: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	serial := core.New(g, core.Options{})
	queries := []string{"l0", "l0.l1", "(l0|l1).l2*", "l1+", "l2.(l0|l1)+", "l9"}

	srv, ts := testServer(t, g, Options{StreamChunk: 16})

	for _, q := range queries {
		want, err := serial.Evaluate(rpq.MustParse(q))
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		sorted := want.Sorted()

		resp, err := http.Get(ts.URL + "/query/stream?q=" + url.QueryEscape(q))
		if err != nil {
			t.Fatalf("GET /query/stream %s: %v", q, err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("%s: Content-Type %q", q, ct)
		}
		rec := parseNDJSON(t, body)
		if rec.fail != nil {
			t.Fatalf("%s: stream error: %+v", q, rec.fail)
		}
		if rec.meta.Query != q {
			t.Fatalf("meta query %q, want %q", rec.meta.Query, q)
		}
		if rec.done == nil || !rec.done.Done {
			t.Fatalf("%s: missing done record", q)
		}
		if rec.done.PairsSent != int64(len(rec.pairs)) {
			t.Fatalf("%s: done reports %d pairs, body carried %d", q, rec.done.PairsSent, len(rec.pairs))
		}
		if rec.done.Epoch != rec.meta.Epoch {
			t.Fatalf("%s: meta epoch %d != done epoch %d", q, rec.meta.Epoch, rec.done.Epoch)
		}
		if len(rec.pairs) != len(sorted) {
			t.Fatalf("%s: streamed %d pairs, want %d", q, len(rec.pairs), len(sorted))
		}
		for i, p := range sorted {
			if rec.pairs[i] != p {
				t.Fatalf("%s: pair %d = (%d,%d), want (%d,%d)", q, i, rec.pairs[i].Src, rec.pairs[i].Dst, p.Src, p.Dst)
			}
		}
		if want.Len() > 16 && rec.chunks < 2 {
			t.Fatalf("%s: %d pairs arrived in %d chunk(s) with StreamChunk=16", q, want.Len(), rec.chunks)
		}
	}

	// Limit is an exact prefix through the POST body form.
	q := "(l0|l1).l2*"
	want := mustEval(t, serial, q).Sorted()
	k := len(want) / 2
	body, _ := json.Marshal(QueryRequest{Query: q, Limit: k})
	resp, err := http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rec := parseNDJSON(t, readAll(t, resp))
	if len(rec.pairs) != k {
		t.Fatalf("limit %d streamed %d pairs", k, len(rec.pairs))
	}
	for i := 0; i < k; i++ {
		if rec.pairs[i] != want[i] {
			t.Fatalf("limited pair %d = %v, want %v", i, rec.pairs[i], want[i])
		}
	}

	if n := srv.streams.Load(); n != int64(len(queries)+1) {
		t.Fatalf("streams counter = %d, want %d", n, len(queries)+1)
	}
}

func mustEval(t *testing.T, e *core.Engine, q string) *pairs.Relation {
	t.Helper()
	rel, err := e.Evaluate(rpq.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// parseSSE splits a text/event-stream body into (event, data) records.
func parseSSE(t *testing.T, body []byte) []struct{ event, data string } {
	t.Helper()
	var out []struct{ event, data string }
	var ev, data string
	flush := func() {
		if ev != "" || data != "" {
			out = append(out, struct{ event, data string }{ev, data})
		}
		ev, data = "", ""
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			flush()
		case strings.HasPrefix(line, "event: "):
			ev = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		default:
			t.Fatalf("unrecognised SSE line %q", line)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerSSE: the /query/sse framing carries the identical result —
// meta, pairs and done events parse back to exactly the sealed
// evaluation.
func TestServerSSE(t *testing.T) {
	g := fixtures.Figure1()
	serial := core.New(g, core.Options{})
	const q = "(b.c)+"
	want := mustEval(t, serial, q).Sorted()

	_, ts := testServer(t, g, Options{StreamChunk: 4})

	resp, err := http.Get(ts.URL + "/query/sse?q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	events := parseSSE(t, body)
	if len(events) < 2 {
		t.Fatalf("only %d SSE events", len(events))
	}
	if events[0].event != "meta" {
		t.Fatalf("first event %q, want meta", events[0].event)
	}
	var meta streamMeta
	if err := json.Unmarshal([]byte(events[0].data), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Query != q {
		t.Fatalf("meta query %q", meta.Query)
	}
	var got []pairs.Pair
	var done *streamDone
	for _, e := range events[1:] {
		switch e.event {
		case "pairs":
			var c streamChunk
			if err := json.Unmarshal([]byte(e.data), &c); err != nil {
				t.Fatal(err)
			}
			for _, p := range c.Pairs {
				got = append(got, pairs.Pair{Src: p[0], Dst: p[1]})
			}
		case "done":
			done = &streamDone{}
			if err := json.Unmarshal([]byte(e.data), done); err != nil {
				t.Fatal(err)
			}
		case "error":
			t.Fatalf("error event: %s", e.data)
		default:
			t.Fatalf("unexpected event %q", e.event)
		}
	}
	if done == nil || done.PairsSent != int64(len(got)) {
		t.Fatalf("done = %+v with %d pairs received", done, len(got))
	}
	if len(got) != len(want) {
		t.Fatalf("SSE streamed %d pairs, want %d", len(got), len(want))
	}
	for i, p := range want {
		if got[i] != p {
			t.Fatalf("pair %d = %v, want %v", i, got[i], p)
		}
	}
}

// recordingSink captures the drain loop's records for the epoch-lag
// unit test.
type recordingSink struct {
	metas  []streamMeta
	chunks []streamChunk
	dones  []streamDone
	fails  []streamError
}

func (r *recordingSink) meta(m streamMeta) error   { r.metas = append(r.metas, m); return nil }
func (r *recordingSink) chunk(c streamChunk) error { r.chunks = append(r.chunks, c); return nil }
func (r *recordingSink) done(d streamDone) error   { r.dones = append(r.dones, d); return nil }
func (r *recordingSink) fail(e streamError) error  { r.fails = append(r.fails, e); return nil }

// TestServerStreamEpochLagAbort: with StreamMaxLag configured, a
// pinned stream whose engine races ahead is aborted with the
// structured epoch_lag record naming both epochs.
func TestServerStreamEpochLagAbort(t *testing.T) {
	g := fixtures.Figure1()
	engine := core.New(g, core.Options{})
	srv := New(engine, Options{StreamMaxLag: 1, StreamChunk: 2})
	defer srv.Close()

	stream, err := engine.OpenStream(context.Background(), rpq.MustParse("(b.c)+"), core.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Advance the engine two epochs past the pinned stream: lag 2 > max 1.
	for i := 0; i < 2; i++ {
		if _, err := engine.ApplyUpdates([]core.GraphUpdate{
			{Op: core.OpInsertEdge, Src: 0, Label: "a", Dst: graph.VID(8 + i)},
		}); err != nil {
			t.Fatal(err)
		}
	}

	sink := &recordingSink{}
	srv.drainToSink(stream, "(b.c)+", sink, time.Now())
	if len(sink.fails) != 1 {
		t.Fatalf("fails = %+v, want exactly one", sink.fails)
	}
	fail := sink.fails[0]
	if fail.Code != "epoch_lag" {
		t.Fatalf("code %q, want epoch_lag", fail.Code)
	}
	if fail.PinnedEpoch != stream.Epoch() || fail.CurrentEpoch != engine.Epoch() {
		t.Fatalf("epochs (%d, %d), want (%d, %d)", fail.PinnedEpoch, fail.CurrentEpoch, stream.Epoch(), engine.Epoch())
	}
	if len(sink.dones) != 0 {
		t.Fatalf("aborted stream still sent done: %+v", sink.dones)
	}
	if srv.epochAborts.Load() == 0 {
		t.Fatal("epoch abort not counted")
	}

	// Under the lag bound the same drain completes normally.
	stream2, err := engine.OpenStream(context.Background(), rpq.MustParse("(b.c)+"), core.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sink2 := &recordingSink{}
	srv.drainToSink(stream2, "(b.c)+", sink2, time.Now())
	if len(sink2.fails) != 0 || len(sink2.dones) != 1 {
		t.Fatalf("current-epoch stream: fails %+v dones %+v", sink2.fails, sink2.dones)
	}
}

// TestServerAsk drives /query?ask=1 through both HTTP forms and checks
// the short-circuit bookkeeping: found matches the sealed result,
// memo-warm asks scan zero rows, and the ask path has its own
// histogram row.
func TestServerAsk(t *testing.T) {
	g := fixtures.Figure1()
	srv, ts := testServer(t, g, Options{})

	askGet := func(q string) AskResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query?ask=1&q=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ask %s: status %d: %s", q, resp.StatusCode, body)
		}
		var out AskResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	nonEmpty := askGet("d.(b.c)+.c")
	if !nonEmpty.Found || nonEmpty.Path != "ask" {
		t.Fatalf("non-empty ask: %+v", nonEmpty)
	}
	empty := askGet("f.f")
	if empty.Found {
		t.Fatalf("empty ask reported found: %+v", empty)
	}

	// POST form.
	body, _ := json.Marshal(QueryRequest{Query: "d.(b.c)+.c", Ask: true})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var posted AskResponse
	if err := json.Unmarshal(readAll(t, resp), &posted); err != nil {
		t.Fatal(err)
	}
	if !posted.Found || posted.Path != "ask" {
		t.Fatalf("POST ask: %+v", posted)
	}

	// After a full evaluation the memo answers: zero rows scanned.
	if _, status := postQuery(t, ts.URL, QueryRequest{Query: "(b.c)+"}); status != http.StatusOK {
		t.Fatalf("warming query: status %d", status)
	}
	warm := askGet("(b.c)+")
	if !warm.Found || warm.RowsScanned != 0 {
		t.Fatalf("memo-warm ask: %+v, want found with rows_scanned 0", warm)
	}

	m := metricsOf(t, ts.URL)
	if m.Streaming.Asks != 4 {
		t.Fatalf("metrics asks = %d, want 4", m.Streaming.Asks)
	}
	if m.Latency.Ask.Count != 4 {
		t.Fatalf("ask histogram count = %d, want 4", m.Latency.Ask.Count)
	}
	_ = srv
}

// TestServerWitness drives /query?witness=1: a member pair yields a
// shortest label path that starts at the right label, a non-member
// yields found=false, and the witness path has its own histogram row.
func TestServerWitness(t *testing.T) {
	g := fixtures.Figure1()
	_, ts := testServer(t, g, Options{})

	get := func(q string, src, dst int, wantStatus int) WitnessResponse {
		t.Helper()
		u := fmt.Sprintf("%s/query?witness=1&q=%s&src=%d&dst=%d", ts.URL, url.QueryEscape(q), src, dst)
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != wantStatus {
			t.Fatalf("witness %s (%d,%d): status %d, want %d: %s", q, src, dst, resp.StatusCode, wantStatus, body)
		}
		var out WitnessResponse
		if wantStatus == http.StatusOK {
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	// (7,5) ∈ d·(b·c)+·c via p(v7,d,v4,b,v1,c,v2,c,v5): 4 labels.
	member := get("d.(b.c)+.c", 7, 5, http.StatusOK)
	if !member.Found || member.Witness == nil {
		t.Fatalf("member witness: %+v", member)
	}
	if member.Path != "witness" {
		t.Fatalf("path %q, want witness", member.Path)
	}
	if len(member.Witness.Labels) != 4 || member.Witness.Labels[0] != "d" {
		t.Fatalf("witness labels %v, want the 4-label d.b.c.c path", member.Witness.Labels)
	}
	if member.Witness.Src != 7 || member.Witness.Dst != 5 {
		t.Fatalf("witness endpoints (%d,%d)", member.Witness.Src, member.Witness.Dst)
	}

	// Walk the witness over the real graph: it must reach dst.
	frontier := map[graph.VID]bool{7: true}
	for _, label := range member.Witness.Labels {
		lid, ok := g.Dict().Lookup(label)
		if !ok {
			t.Fatalf("witness label %q not in the graph", label)
		}
		next := map[graph.VID]bool{}
		for v := range frontier {
			for _, d := range g.Successors(v, lid) {
				next[d] = true
			}
		}
		frontier = next
	}
	if !frontier[5] {
		t.Fatalf("witness labels %v do not lead 7→5 in the graph", member.Witness.Labels)
	}

	nonMember := get("d.(b.c)+.c", 0, 1, http.StatusOK)
	if nonMember.Found || nonMember.Witness != nil {
		t.Fatalf("non-member witness: %+v", nonMember)
	}

	m := metricsOf(t, ts.URL)
	if m.Streaming.Witnesses != 2 {
		t.Fatalf("metrics witnesses = %d, want 2", m.Streaming.Witnesses)
	}
	if m.Latency.Witness.Count != 2 {
		t.Fatalf("witness histogram count = %d, want 2", m.Latency.Witness.Count)
	}
}

// TestServerMetricsStreaming: after streamed traffic the /metrics
// streaming section and the streamed histogram row reflect it.
func TestServerMetricsStreaming(t *testing.T) {
	g := fixtures.Figure1()
	serial := core.New(g, core.Options{})
	want := mustEval(t, serial, "(b.c)+").Len()

	_, ts := testServer(t, g, Options{StreamChunk: 4})

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/query/stream?q=" + url.QueryEscape("(b.c)+"))
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
	}

	m := metricsOf(t, ts.URL)
	if m.Streaming.Streams != 3 {
		t.Fatalf("streams = %d, want 3", m.Streaming.Streams)
	}
	if m.Streaming.StreamedPairs != int64(3*want) {
		t.Fatalf("streamed_pairs = %d, want %d", m.Streaming.StreamedPairs, 3*want)
	}
	if m.Latency.Streamed.Count != 3 {
		t.Fatalf("streamed histogram count = %d, want 3", m.Latency.Streamed.Count)
	}
}

// TestServerStreamRequestErrors: every malformed stream request is a
// plain 400 before any stream opens, on both framings and both HTTP
// methods.
func TestServerStreamRequestErrors(t *testing.T) {
	_, ts := testServer(t, fixtures.Figure1(), Options{})

	cases := []struct {
		name, method, path, body string
	}{
		{"missing q", http.MethodGet, "/query/stream", ""},
		{"bad limit", http.MethodGet, "/query/stream?q=a&limit=xyz", ""},
		{"negative limit", http.MethodGet, "/query/stream?q=a&limit=-3", ""},
		{"unparsable query", http.MethodGet, "/query/stream?q=" + url.QueryEscape("(("), ""},
		{"sse missing q", http.MethodGet, "/query/sse", ""},
		{"sse bad limit", http.MethodGet, "/query/sse?q=a&limit=no", ""},
		{"post bad json", http.MethodPost, "/query/stream", "{"},
		{"post negative limit", http.MethodPost, "/query/stream", `{"query":"a","limit":-1}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if c.method == http.MethodGet {
				resp, err = http.Get(ts.URL + c.path)
			} else {
				resp, err = http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s: status %d (%s), want 400", c.method, c.path, resp.StatusCode, body)
			}
		})
	}
}

// TestServerStreamDraining: once Close has flipped the server into
// draining, stream opens are shed with 503 + Retry-After before any
// engine work happens — same shedding contract as /query.
func TestServerStreamDraining(t *testing.T) {
	eng := core.New(fixtures.Figure1(), core.Options{})
	srv := New(eng, Options{})
	srv.Close()

	for _, path := range []string{
		"/query/stream?q=" + url.QueryEscape("(b.c)+"),
		"/query/sse?q=" + url.QueryEscape("(b.c)+"),
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s while draining: status %d, want 503", path, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s while draining: no Retry-After header", path)
		}
	}
}

// TestServerStreamLagOverHTTPSinks drives the epoch-lag abort through
// the real NDJSON and SSE framings (not the recording sink): the last
// NDJSON record must be the structured error, and the SSE body must end
// with an "error" event naming both epochs.
func TestServerStreamLagOverHTTPSinks(t *testing.T) {
	g := fixtures.Figure1()
	engine := core.New(g, core.Options{})
	srv := New(engine, Options{StreamMaxLag: 1, StreamChunk: 4})
	defer srv.Close()

	q := rpq.MustParse("(b.c)+")
	s1, err := engine.OpenStream(context.Background(), q, core.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := engine.OpenStream(context.Background(), q, core.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := engine.ApplyUpdates([]core.GraphUpdate{
			{Op: core.OpInsertEdge, Src: 0, Label: "a", Dst: graph.VID(8 + i)},
		}); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	srv.drainToSink(s1, "(b.c)+", newNDJSONSink(rec), time.Now())
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("ndjson Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var failRec streamError
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &failRec); err != nil {
		t.Fatalf("last ndjson line %q: %v", lines[len(lines)-1], err)
	}
	if failRec.Code != "epoch_lag" || failRec.CurrentEpoch != engine.Epoch() {
		t.Fatalf("ndjson abort record = %+v, want epoch_lag at epoch %d", failRec, engine.Epoch())
	}

	rec2 := httptest.NewRecorder()
	srv.drainToSink(s2, "(b.c)+", newSSESink(rec2), time.Now())
	body := rec2.Body.String()
	if !strings.Contains(body, "event: error\n") {
		t.Fatalf("sse abort body missing error event:\n%s", body)
	}
	if !strings.Contains(body, `"code":"epoch_lag"`) {
		t.Fatalf("sse abort body missing epoch_lag code:\n%s", body)
	}
}
