// Package server implements rpqd's HTTP/JSON query service over a
// single epoch-versioned core.Engine.
//
// Every POST /query is served by direct evaluation (coalescer.go): a
// memo-warm query is answered from the engine's epoch-tagged result
// memo, any other waits for one of MaxInFlight evaluation slots and is
// evaluated on the shared engine under its own request's context. The
// sharing the paper's RTCSharing is built for happens in the engine's
// shared cache, which builds each R_G / R+ structure and each result
// once per graph epoch for every concurrent caller. Results are paged
// per request with limit/offset over the sealed columnar relations.
// POST /update drives Engine.ApplyUpdates, and every evaluation is
// pinned to one graph epoch; GET /explain plans without executing;
// GET /healthz and GET /metrics expose liveness, the engine's cache
// counters and the admission statistics. See DESIGN.md §10.
//
// The package is internal; the public surface is rtcshare.NewServer,
// rtcshare.Serve and rtcshare.ServerOptions.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
	"rtcshare/internal/store"
)

// Options configure a Server. The zero value gets the documented
// defaults, filled in by NewServer.
type Options struct {
	// MaxInFlight is the number of /query evaluations running at once —
	// the evaluation slots of the admission control. At most 64
	// requests per slot may wait for one; beyond that a request is
	// refused with 503. Default GOMAXPROCS.
	MaxInFlight int
	// RequestTimeout bounds one /query request, slot wait and
	// evaluation together; an expired request answers 503 and its
	// evaluation stops at the engine's next checkpoint. Default 30s.
	RequestTimeout time.Duration
	// Persist, when set, routes POST /update through the persistent
	// engine (apply + durable WAL append, plus its automatic-snapshot
	// policy) and enables POST /admin/snapshot and the /metrics
	// persistence section. The wrapped engine must be the same one the
	// server evaluates on.
	Persist *store.Persistent
	// ProbeInterval is how often the server probes a degraded persistent
	// engine to re-arm updates (the degradation ladder's automatic
	// recovery). Default 1s; ignored when Persist is nil. The probe is
	// a no-op while the engine is healthy, so the loop costs nothing in
	// the steady state.
	ProbeInterval time.Duration
	// StreamChunk is how many pairs each /query/stream line or
	// /query/sse event carries. Default 512.
	StreamChunk int
	// StreamMaxLag bounds how many epochs the engine may advance past a
	// stream's pinned epoch before the server aborts the stream with a
	// structured error event. A pinned stream stays correct at any lag
	// (its engine version is immutable), but a client that has been
	// paging for a thousand updates is reading an increasingly stale
	// answer and holding the old version's structures live; the lag
	// bound turns that into an explicit, resumable failure. 0 (the
	// default) never aborts.
	StreamMaxLag uint64
}

// withDefaults fills the zero fields with the documented defaults.
func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.StreamChunk <= 0 {
		o.StreamChunk = 512
	}
	return o
}

// Server is the rpqd HTTP handler: the /query admission path plus the
// /query, /update, /explain, /healthz and /metrics endpoints over one
// engine. Create one with New, serve it with net/http, and Close it to
// drain in-flight queries on shutdown.
type Server struct {
	engine Engine
	opts   Options
	coal   *coalescer
	mux    *http.ServeMux
	start  time.Time
	lat    latencyRecorder

	// draining flips on Close so /healthz reports the shutdown to load
	// balancers while in-flight queries finish.
	draining atomic.Bool

	// Streaming-delivery counters, published under /metrics "streaming".
	streams       atomic.Int64
	streamedPairs atomic.Int64
	asks          atomic.Int64
	witnesses     atomic.Int64
	cursorResumes atomic.Int64
	epochAborts   atomic.Int64

	// probeStop ends the degraded-probe loop; probeWG waits it out.
	probeStop chan struct{}
	probeWG   sync.WaitGroup

	closeOnce sync.Once
}

// New returns a Server over engine — a *core.Engine, or anything
// satisfying the Engine surface. The engine may
// be shared with non-HTTP users; ApplyUpdates through either side keeps
// both epoch-consistent.
func New(engine Engine, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		engine:    engine,
		opts:      opts,
		coal:      newCoalescer(engine, opts),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		probeStop: make(chan struct{}),
	}
	s.route("/query", methods{"GET": s.handleQuery, "POST": s.handleQuery})
	s.route("/query/stream", methods{"GET": s.handleQueryStream, "POST": s.handleQueryStream})
	s.route("/query/sse", methods{"GET": s.handleQuerySSE})
	s.route("/update", methods{"POST": s.handleUpdate})
	s.route("/explain", methods{"GET": s.handleExplain})
	s.route("/healthz", methods{"GET": s.handleHealthz})
	s.route("/metrics", methods{"GET": s.handleMetrics})
	s.route("/admin/snapshot", methods{"POST": s.handleSnapshot})
	if opts.Persist != nil {
		// The degradation ladder's re-arm: periodically ask the store
		// whether it can commit again. Persist.Probe is free while the
		// engine is healthy, so the ticker costs nothing until a
		// persistence failure actually flips the degraded flag.
		s.probeWG.Add(1)
		go s.probeLoop()
	}
	return s
}

// probeLoop periodically re-probes a degraded persistent engine until
// Close. Probe errors are expected while the fault persists; the loop
// just tries again next tick.
func (s *Server) probeLoop() {
	defer s.probeWG.Done()
	t := time.NewTicker(s.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.probeStop:
			return
		case <-t.C:
			_ = s.opts.Persist.Probe()
		}
	}
}

// methods maps HTTP methods to their handler for one path.
type methods map[string]http.HandlerFunc

// route registers each method's handler under Go 1.22+ "METHOD path"
// patterns, plus a method-less fallback for the same path. The mux
// prefers the method-specific patterns, so the fallback fires exactly
// when the path is right and the method is wrong — where it answers
// with a JSON 405 and an Allow header listing what the endpoint
// accepts, instead of the mux's bare text default. (A wrong method must
// never read as "no such endpoint" or, worse, execute: GET /update
// returns 405, not a mutation.)
func (s *Server) route(path string, m methods) {
	allowed := make([]string, 0, len(m))
	for method, h := range m {
		s.mux.HandleFunc(method+" "+path, h)
		allowed = append(allowed, method)
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed,
			fmt.Errorf("method %s not allowed on %s (allowed: %s)", r.Method, path, allow))
	})
}

// Engine returns the engine the server evaluates on.
func (s *Server) Engine() Engine { return s.engine }

// Options returns the server's effective (default-filled) options.
func (s *Server) Options() Options { return s.opts }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains the server: in-flight queries finish and answer their
// clients, new queries are rejected with 503, /healthz flips to
// "draining", and the degraded-probe loop stops. It does not
// close HTTP listeners — pair it with http.Server.Shutdown, as
// rtcshare.Serve does.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		close(s.probeStop)
		s.probeWG.Wait()
		s.coal.close()
	})
	return nil
}

// QueryRequest is the body of POST /query (or the q/limit/offset/
// cursor/ask/witness/src/dst query parameters of GET /query). It is
// also the body of POST /query/stream (which honours Query and Limit).
type QueryRequest struct {
	// Query is the RPQ, in the rpq concrete syntax.
	Query string `json:"query"`
	// Limit caps the returned pairs; 0 means all (from Offset on).
	Limit int `json:"limit"`
	// Offset skips that many pairs of the (src, dst)-ordered result.
	Offset int `json:"offset"`
	// Cursor, when set, resumes paging from an opaque token a previous
	// response's next_cursor carried. The token pins the graph epoch: if
	// the graph has moved on, the request fails with a structured 410
	// instead of serving a page inconsistent with the earlier ones.
	// Cursor overrides Offset.
	Cursor string `json:"cursor,omitempty"`
	// Ask turns the request into an existence probe: the response
	// reports found true/false, computed with the engine's short-circuit
	// ASK evaluator instead of materialising the result.
	Ask bool `json:"ask,omitempty"`
	// Witness asks for one shortest label-path witnessing (Src, Dst) in
	// the query's result.
	Witness bool      `json:"witness,omitempty"`
	Src     graph.VID `json:"src,omitempty"`
	Dst     graph.VID `json:"dst,omitempty"`
}

// QueryResponse is the body of a successful /query: one page of the
// result plus the paging bookkeeping and the graph epoch the evaluation
// was pinned to. Two responses with the same epoch describe the same
// graph version; a client paging a result can compare epochs to detect
// an update landing between pages.
type QueryResponse struct {
	Query string `json:"query"`
	// Epoch is the graph epoch the evaluation ran at.
	Epoch uint64 `json:"epoch"`
	// Total is the full result size, before paging.
	Total int `json:"total"`
	// Offset echoes the effective offset; Count is len(Pairs).
	Offset int `json:"offset"`
	Count  int `json:"count"`
	// Path is how the request was served: "fast_path" (result memo) or
	// "evaluated" (an evaluation slot and the engine).
	Path string `json:"path"`
	// Stages is the per-stage latency breakdown of this request: the
	// stages are consecutive intervals of WallNS and partition it.
	Stages core.StageTimer `json:"stages"`
	// WallNS is the server-measured wall time of the request, from
	// handler entry to response encoding.
	WallNS int64 `json:"wall_ns"`
	// Pairs is the page: [start, end] vertex pairs in (src, dst) order.
	Pairs [][2]graph.VID `json:"pairs"`
	// NextCursor is an opaque resumable token for the next page, present
	// when the page did not exhaust the result. Resume by sending it
	// back as "cursor" with the same query.
	NextCursor string `json:"next_cursor,omitempty"`
}

// AskResponse is the body of /query?ask=1: existence instead of pairs,
// plus the rows-scanned instrumentation the short-circuit tests pin.
type AskResponse struct {
	Query string `json:"query"`
	Epoch uint64 `json:"epoch"`
	Found bool   `json:"found"`
	// RowsScanned counts the join/traversal tuples the probe touched
	// before stopping — 0 for a memo-warm answer, far below the full
	// evaluation's row count whenever the answer is non-empty.
	RowsScanned int64  `json:"rows_scanned"`
	Path        string `json:"path"`
	WallNS      int64  `json:"wall_ns"`
}

// WitnessResponse is the body of /query?witness=1&src=…&dst=…: one
// shortest label-path witnessing the pair, or found=false.
type WitnessResponse struct {
	Query   string            `json:"query"`
	Epoch   uint64            `json:"epoch"`
	Found   bool              `json:"found"`
	Witness *core.WitnessPath `json:"witness,omitempty"`
	Path    string            `json:"path"`
	WallNS  int64             `json:"wall_ns"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// maxRequestBody bounds /query and /update request bodies (16 MiB —
// room for very large update batches, far beyond any sane query), so a
// single connection cannot stream unbounded JSON into memory.
const maxRequestBody = 16 << 20

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	handlerStart := time.Now()
	req, expr, ok := s.decodeQueryRequest(w, r)
	if !ok {
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()

	if req.Witness {
		s.serveWitness(w, req, expr, ctx, handlerStart)
		return
	}
	if req.Ask {
		s.serveAsk(w, req, expr, ctx, handlerStart)
		return
	}

	// A cursor pins the epoch and the position; decode before evaluating
	// so a garbage token never costs an evaluation.
	var cur *cursorToken
	if req.Cursor != "" {
		c, err := decodeCursor(req.Cursor, req.Query)
		if err != nil {
			writeError(w, http.StatusGone, err)
			return
		}
		cur = &c
	}

	// The stages are consecutive intervals of one clock: decode runs to
	// here, submit covers queue and engine up to res.done, and page runs
	// from there to the wall-clock stop.
	decoded := time.Now()
	res := s.coal.submit(ctx, req.Query, expr, decoded)
	res.stages.DecodeNS = decoded.Sub(handlerStart).Nanoseconds()
	if res.err != nil {
		status := queryStatus(res.err)
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", retryAfterSeconds)
		}
		writeError(w, status, res.err)
		return
	}
	offset := req.Offset
	if cur != nil {
		if cur.epoch != res.epoch {
			s.epochAborts.Add(1)
			writeError(w, http.StatusGone, fmt.Errorf(
				"cursor pinned to epoch %d, result now at epoch %d: restart the page sequence", cur.epoch, res.epoch))
			return
		}
		if cur.pos > uint64(res.rel.Len()) {
			writeError(w, http.StatusGone, fmt.Errorf(
				"cursor position %d beyond result size %d", cur.pos, res.rel.Len()))
			return
		}
		offset = int(cur.pos)
		s.cursorResumes.Add(1)
	}

	page := res.rel.Page(offset, req.Limit)
	pairs := make([][2]graph.VID, len(page))
	for i, p := range page {
		pairs[i] = [2]graph.VID{p.Src, p.Dst}
	}
	next := ""
	if end := offset + len(page); end < res.rel.Len() && req.Limit > 0 {
		next = encodeCursor(res.epoch, uint64(end), req.Query)
	}
	stop := time.Now()
	res.stages.PageNS = stop.Sub(res.done).Nanoseconds()
	wall := stop.Sub(handlerStart)
	s.lat.observe(res.path, wall, &res.stages)
	writeJSON(w, http.StatusOK, QueryResponse{
		Query:      req.Query,
		Epoch:      res.epoch,
		Total:      res.rel.Len(),
		Offset:     offset,
		Count:      len(pairs),
		Path:       res.path.String(),
		Stages:     res.stages,
		WallNS:     wall.Nanoseconds(),
		Pairs:      pairs,
		NextCursor: next,
	})
}

// decodeQueryRequest parses a GET's query parameters or a POST's JSON
// body into a QueryRequest, writing the 400 itself on failure.
func (s *Server) decodeQueryRequest(w http.ResponseWriter, r *http.Request) (QueryRequest, rpq.Expr, bool) {
	var req QueryRequest
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		req.Query = q.Get("q")
		req.Cursor = q.Get("cursor")
		for _, p := range []struct {
			name string
			dst  *int
		}{{"limit", &req.Limit}, {"offset", &req.Offset}} {
			if v := q.Get(p.name); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil {
					writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", p.name, err))
					return req, nil, false
				}
				*p.dst = n
			}
		}
		for _, p := range []struct {
			name string
			dst  *bool
		}{{"ask", &req.Ask}, {"witness", &req.Witness}} {
			switch v := q.Get(p.name); v {
			case "", "0", "false":
			case "1", "true":
				*p.dst = true
			default:
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s value %q (want 0 or 1)", p.name, v))
				return req, nil, false
			}
		}
		for _, p := range []struct {
			name string
			dst  *graph.VID
		}{{"src", &req.Src}, {"dst", &req.Dst}} {
			if v := q.Get(p.name); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil {
					writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", p.name, err))
					return req, nil, false
				}
				*p.dst = graph.VID(n)
			}
		}
	} else if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return req, nil, false
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing query"))
		return req, nil, false
	}
	expr, err := rpq.Parse(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return req, nil, false
	}
	if req.Offset < 0 || req.Limit < 0 {
		writeError(w, http.StatusBadRequest, errors.New("limit and offset must be non-negative"))
		return req, nil, false
	}
	return req, expr, true
}

// serveAsk answers /query?ask=1 through the engine's short-circuit
// existence probe — no result is materialised or cached.
func (s *Server) serveAsk(w http.ResponseWriter, req QueryRequest, expr rpq.Expr, ctx context.Context, handlerStart time.Time) {
	found, epoch, rows, err := s.engine.AskCounted(ctx, expr)
	if err != nil {
		status := queryStatus(err)
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", retryAfterSeconds)
		}
		writeError(w, status, err)
		return
	}
	s.asks.Add(1)
	wall := time.Since(handlerStart)
	s.lat.observe(pathAsk, wall, &core.StageTimer{})
	writeJSON(w, http.StatusOK, AskResponse{
		Query:       req.Query,
		Epoch:       epoch,
		Found:       found,
		RowsScanned: rows,
		Path:        pathAsk.String(),
		WallNS:      wall.Nanoseconds(),
	})
}

// serveWitness answers /query?witness=1&src=…&dst=….
func (s *Server) serveWitness(w http.ResponseWriter, req QueryRequest, expr rpq.Expr, ctx context.Context, handlerStart time.Time) {
	wp, found, err := s.engine.Witness(ctx, expr, req.Src, req.Dst)
	if err != nil {
		writeError(w, queryStatus(err), err)
		return
	}
	s.witnesses.Add(1)
	resp := WitnessResponse{
		Query:  req.Query,
		Epoch:  wp.Epoch,
		Found:  found,
		Path:   pathWitness.String(),
		WallNS: time.Since(handlerStart).Nanoseconds(),
	}
	if found {
		resp.Witness = &wp
	} else {
		resp.Epoch = s.engine.Epoch()
	}
	s.lat.observe(pathWitness, time.Since(handlerStart), &core.StageTimer{})
	writeJSON(w, http.StatusOK, resp)
}

// retryAfterSeconds is the Retry-After value sent with every 503 shed
// (overload, shutdown, degraded writes): transient conditions a client
// should retry after a short backoff rather than treat as failure.
const retryAfterSeconds = "1"

// queryStatus maps a submit error to its HTTP status.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, ErrShuttingDown), errors.Is(err, ErrOverloaded),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrQuarantined):
		// The request is well-formed but the server refuses to evaluate
		// this exact string again after repeated evaluator crashes. Not
		// transient (no Retry-After): retrying gets the same answer.
		return http.StatusUnprocessableEntity
	case isPanicError(err):
		// A recovered evaluator panic is a server bug surfaced as a
		// per-query error, not a client mistake.
		return http.StatusInternalServerError
	default:
		// Evaluation-time query errors (e.g. the DNF bound).
		return http.StatusBadRequest
	}
}

// isPanicError reports whether err is a recovered evaluator panic.
func isPanicError(err error) bool {
	var pe *core.QueryPanicError
	return errors.As(err, &pe)
}

// UpdateRequest is the body of POST /update: a batch of edge updates
// applied atomically as one Engine.ApplyUpdates call (one epoch
// advance).
type UpdateRequest struct {
	Updates []EdgeUpdate `json:"updates"`
}

// EdgeUpdate is one edge mutation: op "insert" or "delete".
type EdgeUpdate struct {
	Op    string    `json:"op"`
	Src   graph.VID `json:"src"`
	Label string    `json:"label"`
	Dst   graph.VID `json:"dst"`
}

// UpdateResponse reports what the batch did — Engine.UpdateResult plus
// the migration wall-clocks, in milliseconds.
type UpdateResponse struct {
	Epoch            uint64  `json:"epoch"`
	Inserted         int     `json:"inserted"`
	Deleted          int     `json:"deleted"`
	Carried          int     `json:"carried"`
	Patched          int     `json:"patched"`
	Dropped          int     `json:"dropped"`
	RelCarried       int     `json:"rel_carried"`
	RelDropped       int     `json:"rel_dropped"`
	FreezeMillis     float64 `json:"freeze_ms"`
	MigrateMillis    float64 `json:"migrate_ms"`
	EffectiveNoOp    bool    `json:"effective_noop"`
	AppliedUpdateOps int     `json:"applied_update_ops"`
	RequestedUpdates int     `json:"requested_updates"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	updates := make([]core.GraphUpdate, len(req.Updates))
	for i, u := range req.Updates {
		switch u.Op {
		case "insert":
			updates[i] = core.InsertEdge(u.Src, u.Label, u.Dst)
		case "delete":
			updates[i] = core.DeleteEdge(u.Src, u.Label, u.Dst)
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("update %d: unknown op %q (want insert or delete)", i, u.Op))
			return
		}
	}
	// Through the persistent engine when configured, so the batch is in
	// the WAL before the client hears 200; the plain engine otherwise.
	apply := s.engine.ApplyUpdates
	if s.opts.Persist != nil {
		apply = s.opts.Persist.ApplyUpdates
	}
	res, err := apply(updates)
	if err != nil {
		// The degradation ladder's write rung: while persistence cannot
		// commit — including the very call that flipped the flag — the
		// update was observably never accepted, and the client should
		// retry after the probe loop re-arms. Anything else is a client
		// error (validation), reported as 400.
		if s.opts.Persist != nil {
			if degraded, _, _ := s.opts.Persist.Degraded(); degraded {
				w.Header().Set("Retry-After", retryAfterSeconds)
				writeError(w, http.StatusServiceUnavailable, err)
				return
			}
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, UpdateResponse{
		Epoch:            res.Epoch,
		Inserted:         res.Inserted,
		Deleted:          res.Deleted,
		Carried:          res.Carried,
		Patched:          res.Patched,
		Dropped:          res.Dropped,
		RelCarried:       res.RelCarried,
		RelDropped:       res.RelDropped,
		FreezeMillis:     float64(res.FreezeTime) / float64(time.Millisecond),
		MigrateMillis:    float64(res.MigrateTime) / float64(time.Millisecond),
		EffectiveNoOp:    res.Inserted+res.Deleted == 0,
		AppliedUpdateOps: res.Inserted + res.Deleted,
		RequestedUpdates: len(req.Updates),
	})
}

// ExplainResponse is the body of GET /explain?q=…: the engine's plan
// for the query. Plain explain never executes; with analyze=1 the
// query runs and the Analyzed/Actual* fields report measured
// cardinalities — each analyzed clause also feeds the planner's cost
// calibration.
type ExplainResponse struct {
	Query    string          `json:"query"`
	Strategy string          `json:"strategy"`
	Planner  string          `json:"planner"`
	Analyzed bool            `json:"analyzed"`
	Clauses  []ExplainClause `json:"clauses"`
	// ActualResultPairs and ActualMillis are set when Analyzed.
	ActualResultPairs int     `json:"actual_result_pairs,omitempty"`
	ActualMillis      float64 `json:"actual_ms,omitempty"`
}

// ExplainClause is one DNF clause of an ExplainResponse.
type ExplainClause struct {
	Clause       string  `json:"clause"`
	Pre          string  `json:"pre,omitempty"`
	R            string  `json:"r,omitempty"`
	Type         string  `json:"type,omitempty"`
	Post         string  `json:"post,omitempty"`
	Kind         string  `json:"kind"`
	Direction    string  `json:"direction,omitempty"`
	SharedCached bool    `json:"shared_cached"`
	EstCost      float64 `json:"est_cost"`
	EstOutPairs  float64 `json:"est_out_pairs"`
	// ActualPairs and ActualMillis are set when the plan was analyzed.
	ActualPairs  int     `json:"actual_pairs,omitempty"`
	ActualMillis float64 `json:"actual_ms,omitempty"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing q parameter"))
		return
	}
	explain := s.engine.ExplainQuery
	switch v := r.URL.Query().Get("analyze"); v {
	case "", "0", "false":
	case "1", "true":
		explain = s.engine.ExplainAnalyzeQuery
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad analyze value %q (want 0 or 1)", v))
		return
	}
	plan, err := explain(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := ExplainResponse{
		Query:    plan.Query,
		Strategy: plan.Strategy.String(),
		Planner:  plan.Planner.String(),
		Analyzed: plan.Analyzed,
	}
	if plan.Analyzed {
		resp.ActualResultPairs = plan.ActualResultPairs
		resp.ActualMillis = float64(plan.ActualTime) / nsPerMS
	}
	for _, c := range plan.Clauses {
		ec := ExplainClause{
			Clause:       c.Clause,
			Pre:          c.Pre,
			R:            c.R,
			Type:         c.Type,
			Post:         c.Post,
			Kind:         c.Kind,
			Direction:    c.Direction,
			SharedCached: c.SharedCached,
			EstCost:      c.EstCost,
			EstOutPairs:  c.EstOut,
		}
		if plan.Analyzed {
			ec.ActualPairs = c.ActualPairs
			ec.ActualMillis = float64(c.ActualTime) / nsPerMS
		}
		resp.Clauses = append(resp.Clauses, ec)
	}
	writeJSON(w, http.StatusOK, resp)
}

// HealthResponse is the body of GET /healthz. Status is the ladder
// rung: "ok" (fully serving), "degraded" (read-only — queries serve the
// last durable epoch, updates are 503 until persistence recovers) or
// "draining" (Close ran; in-flight work finishes, new queries are shed).
type HealthResponse struct {
	Status       string  `json:"status"`
	Epoch        uint64  `json:"epoch"`
	UptimeMillis float64 `json:"uptime_ms"`
	// Reason explains a non-ok status; DegradedSince stamps when the
	// degraded rung was entered.
	Reason        string    `json:"reason,omitempty"`
	DegradedSince time.Time `json:"degraded_since,omitzero"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:       "ok",
		Epoch:        s.engine.Epoch(),
		UptimeMillis: float64(time.Since(s.start)) / float64(time.Millisecond),
	}
	status := http.StatusOK
	switch {
	case s.draining.Load():
		// Draining outranks degraded: the process is leaving the pool
		// either way, and a load balancer must stop routing to it.
		resp.Status = "draining"
		resp.Reason = "server closing: in-flight queries finishing, new queries shed"
		status = http.StatusServiceUnavailable
	case s.opts.Persist != nil:
		if degraded, reason, since := s.opts.Persist.Degraded(); degraded {
			// Still 200: the node serves queries (the last durable
			// epoch) and must stay in read pools; the status string and
			// /metrics carry the read-only warning.
			resp.Status = "degraded"
			resp.Reason = reason
			resp.DegradedSince = since
		}
	}
	writeJSON(w, status, resp)
}

// GraphInfo summarises the served graph for /metrics.
type GraphInfo struct {
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	Labels   int `json:"labels"`
}

// TimingInfo is the engine's accumulated three-part split, in
// milliseconds, plus its query and cache counters and the planner's
// cost-calibration state.
type TimingInfo struct {
	Queries          int     `json:"queries"`
	SharedDataMillis float64 `json:"shared_data_ms"`
	PreJoinMillis    float64 `json:"pre_join_ms"`
	RemainderMillis  float64 `json:"remainder_ms"`
	CacheHits        int     `json:"cache_hits"`
	CacheMisses      int     `json:"cache_misses"`
	// CostCalibrationFactor is the planner's measured-cardinality
	// correction (1 = uncalibrated); CostCalibrationSamples the
	// ExplainAnalyze observations behind it.
	CostCalibrationFactor  float64 `json:"cost_calibration_factor"`
	CostCalibrationSamples int     `json:"cost_calibration_samples"`
}

// LatencyInfo is the /metrics latency section: request-latency
// histograms, overall, split by serving path, and per pipeline stage.
// All fields are HistogramStats; the section's key set is stable
// whether or not any requests have been observed.
type LatencyInfo struct {
	// Overall covers every /query request; FastPath, Evaluated, Ask,
	// Streamed and Witness split it by serving path.
	Overall   HistogramStats `json:"overall"`
	FastPath  HistogramStats `json:"fast_path"`
	Evaluated HistogramStats `json:"evaluated"`
	Ask       HistogramStats `json:"ask"`
	Streamed  HistogramStats `json:"streamed"`
	Witness   HistogramStats `json:"witness"`
	// Stages holds one histogram per pipeline stage, counting requests
	// in which the stage ran.
	Stages StageHistograms `json:"stages"`
}

// RuntimeInfo is the /metrics runtime section: the Go runtime's vitals,
// so latency spikes can be correlated with GC pauses and goroutine
// growth.
type RuntimeInfo struct {
	Goroutines     int     `json:"goroutines"`
	HeapInuseBytes uint64  `json:"heap_inuse_bytes"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	NumGC          uint32  `json:"num_gc"`
	LastGCPauseMS  float64 `json:"last_gc_pause_ms"`
	GCCPUFraction  float64 `json:"gc_cpu_fraction"`
}

// runtimeInfo snapshots the Go runtime for /metrics.
func runtimeInfo() RuntimeInfo {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	info := RuntimeInfo{
		Goroutines:     runtime.NumGoroutine(),
		HeapInuseBytes: ms.HeapInuse,
		HeapAllocBytes: ms.HeapAlloc,
		NumGC:          ms.NumGC,
		GCCPUFraction:  ms.GCCPUFraction,
	}
	if ms.NumGC > 0 {
		info.LastGCPauseMS = float64(ms.PauseNs[(ms.NumGC+255)%256]) / nsPerMS
	}
	return info
}

// Metrics is the body of GET /metrics: the admission statistics, the
// shared cache's counters (including the epoch and the CrossEpochHits
// tripwire), the engine's timing split and the graph shape.
type Metrics struct {
	Epoch     uint64             `json:"epoch"`
	Graph     GraphInfo          `json:"graph"`
	Coalescer CoalescerStats     `json:"coalescer"`
	Cache     core.CacheCounters `json:"cache"`
	Timing    TimingInfo         `json:"timing"`
	Latency   LatencyInfo        `json:"latency"`
	Streaming StreamingInfo      `json:"streaming"`
	Runtime   RuntimeInfo        `json:"runtime"`
	// Persistence reports the store's bookkeeping and how the engine
	// booted; nil (omitted) when the server runs without -data.
	Persistence *store.PersistInfo `json:"persistence,omitempty"`
}

// MetricsSnapshot returns what GET /metrics serves, for in-process
// consumers (the serve benchmark reads CrossEpochHits through it).
func (s *Server) MetricsSnapshot() Metrics {
	g := s.engine.Graph()
	st := s.engine.Stats()
	calibFactor, calibSamples := s.engine.CostCalibration()
	return Metrics{
		Epoch: s.engine.Epoch(),
		Graph: GraphInfo{
			Vertices: g.NumVertices(),
			Edges:    g.NumEdges(),
			Labels:   g.NumLabels(),
		},
		Coalescer:   s.coal.stats(),
		Cache:       s.engine.Cache().Counters(),
		Persistence: s.persistInfo(),
		Timing: TimingInfo{
			Queries:                st.Queries,
			SharedDataMillis:       float64(st.SharedData) / float64(time.Millisecond),
			PreJoinMillis:          float64(st.PreJoin) / float64(time.Millisecond),
			RemainderMillis:        float64(st.Remainder) / float64(time.Millisecond),
			CacheHits:              st.CacheHits,
			CacheMisses:            st.CacheMisses,
			CostCalibrationFactor:  calibFactor,
			CostCalibrationSamples: calibSamples,
		},
		Latency: LatencyInfo{
			Overall:   s.lat.overall.snapshot(),
			FastPath:  s.lat.fastPath.snapshot(),
			Evaluated: s.lat.evaluated.snapshot(),
			Ask:       s.lat.ask.snapshot(),
			Streamed:  s.lat.streamed.snapshot(),
			Witness:   s.lat.witness.snapshot(),
			Stages:    s.lat.stages(),
		},
		Streaming: StreamingInfo{
			Streams:       s.streams.Load(),
			StreamedPairs: s.streamedPairs.Load(),
			Asks:          s.asks.Load(),
			Witnesses:     s.witnesses.Load(),
			CursorResumes: s.cursorResumes.Load(),
			EpochAborts:   s.epochAborts.Load(),
		},
		Runtime: runtimeInfo(),
	}
}

// StreamingInfo is the /metrics streaming-delivery section.
type StreamingInfo struct {
	// Streams counts /query/stream and /query/sse streams opened;
	// StreamedPairs the pairs they delivered.
	Streams       int64 `json:"streams"`
	StreamedPairs int64 `json:"streamed_pairs"`
	// Asks and Witnesses count the /query?ask=1 and /query?witness=1
	// probes served.
	Asks      int64 `json:"asks"`
	Witnesses int64 `json:"witnesses"`
	// CursorResumes counts pages served from a presented cursor;
	// EpochAborts counts cursor or stream deliveries refused because the
	// graph epoch had moved past the pinned one.
	CursorResumes int64 `json:"cursor_resumes"`
	EpochAborts   int64 `json:"epoch_aborts"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

// persistInfo returns the /metrics persistence section, or nil when the
// server runs without a persistent engine.
func (s *Server) persistInfo() *store.PersistInfo {
	if s.opts.Persist == nil {
		return nil
	}
	info := s.opts.Persist.Metrics()
	return &info
}

// SnapshotErrorResponse is the body of a failed POST /admin/snapshot:
// the error plus the degradation state the failure left behind, so an
// operator sees "the snapshot failed AND the node is now read-only" in
// one response instead of having to correlate with /metrics.
type SnapshotErrorResponse struct {
	Error          string    `json:"error"`
	Degraded       bool      `json:"degraded"`
	DegradedReason string    `json:"degraded_reason,omitempty"`
	DegradedSince  time.Time `json:"degraded_since,omitzero"`
	// SnapshotErrors counts snapshot-commit failures over the process
	// lifetime (this one included).
	SnapshotErrors int `json:"snapshot_errors"`
}

// handleSnapshot serves POST /admin/snapshot: capture the engine's
// current state, write it as the new snapshot and reset the update log.
// Without persistence configured the endpoint exists but refuses with
// 409 — a deliberate "the server cannot do that", distinct from both
// 404 (no such endpoint) and 405 (wrong method). A mid-commit failure
// returns a structured JSON error body carrying the degradation state
// it caused, and is counted on /metrics (snapshot_errors, last_error).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.opts.Persist == nil {
		writeError(w, http.StatusConflict, errors.New("persistence not enabled (start rpqd with -data)"))
		return
	}
	info, err := s.opts.Persist.Snapshot()
	if err != nil {
		degraded, reason, since := s.opts.Persist.Degraded()
		writeJSON(w, http.StatusInternalServerError, SnapshotErrorResponse{
			Error:          err.Error(),
			Degraded:       degraded,
			DegradedReason: reason,
			DegradedSince:  since,
			SnapshotErrors: s.opts.Persist.Metrics().SnapshotErrors,
		})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
