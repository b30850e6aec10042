package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// Streaming delivery: GET/POST /query/stream sends the result as
// newline-delimited JSON chunks, GET /query/sse as Server-Sent Events.
// Both open one epoch-pinned pull stream (Engine.OpenStream) and drain
// it chunk by chunk, so the response starts after the shared inputs
// resolve — before the first pair /query would have to seal a full
// relation for — and the server's peak memory per stream is one
// chunk, not one result.
//
// Epoch semantics: the stream answers entirely at the graph epoch
// current when it opened (the pinned engine version is immutable), so a
// client always reads one consistent result no matter how many updates
// land mid-stream. Options.StreamMaxLag bounds how stale that is allowed
// to get: when the engine's epoch advances more than the lag past the
// pinned one, the server aborts with a structured error record carrying
// both epochs, and the client restarts on the current graph.

// streamMeta is the first NDJSON record / the "meta" SSE event.
type streamMeta struct {
	Query string `json:"query"`
	Epoch uint64 `json:"epoch"`
}

// streamChunk is one NDJSON pairs record / one "pairs" SSE event.
type streamChunk struct {
	Pairs [][2]graph.VID `json:"pairs"`
}

// streamDone is the final NDJSON record / the "done" SSE event.
type streamDone struct {
	Done      bool   `json:"done"`
	PairsSent int64  `json:"pairs_sent"`
	Epoch     uint64 `json:"epoch"`
	WallNS    int64  `json:"wall_ns"`
}

// streamError is a mid-stream NDJSON error record / an "error" SSE
// event. Code "epoch_lag" marks the StreamMaxLag abort; "evaluation"
// everything else.
type streamError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// PinnedEpoch and CurrentEpoch are set on epoch_lag aborts.
	PinnedEpoch  uint64 `json:"pinned_epoch,omitempty"`
	CurrentEpoch uint64 `json:"current_epoch,omitempty"`
}

// decodeStreamRequest parses q/limit from GET parameters or the
// QueryRequest JSON body, writing the 400 itself on failure.
func (s *Server) decodeStreamRequest(w http.ResponseWriter, r *http.Request) (string, rpq.Expr, int, bool) {
	var query string
	var limit int
	if r.Method == http.MethodGet {
		p := r.URL.Query()
		query = p.Get("q")
		if v := p.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit: %w", err))
				return "", nil, 0, false
			}
			limit = n
		}
	} else {
		var req QueryRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return "", nil, 0, false
		}
		query, limit = req.Query, req.Limit
	}
	if query == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing query"))
		return "", nil, 0, false
	}
	if limit < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("limit must be non-negative"))
		return "", nil, 0, false
	}
	expr, err := rpq.Parse(query)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return "", nil, 0, false
	}
	return query, expr, limit, true
}

// streamSink abstracts the NDJSON and SSE framings over one drain loop.
type streamSink interface {
	meta(streamMeta) error
	chunk(streamChunk) error
	done(streamDone) error
	fail(streamError) error
}

// drainToSink runs the shared drain loop: open-time errors were already
// handled; this delivers chunks until done, limit, epoch-lag abort or a
// stream error. Returns the pairs sent.
func (s *Server) drainToSink(stream *core.ResultStream, query string, sink streamSink, start time.Time) int64 {
	defer stream.Close()
	if err := sink.meta(streamMeta{Query: query, Epoch: stream.Epoch()}); err != nil {
		return 0
	}
	buf := make([]pairs.Pair, s.opts.StreamChunk)
	var sent int64
	for {
		// The lag guard: a pinned stream is always self-consistent, but
		// past the configured lag the answer is declared too stale to
		// keep delivering.
		if lag := s.opts.StreamMaxLag; lag > 0 {
			if cur := s.engine.Epoch(); cur > stream.Epoch()+lag {
				s.epochAborts.Add(1)
				_ = sink.fail(streamError{
					Error: fmt.Sprintf("stream pinned to epoch %d fell %d epochs behind (max lag %d): restart on the current graph",
						stream.Epoch(), cur-stream.Epoch(), lag),
					Code:         "epoch_lag",
					PinnedEpoch:  stream.Epoch(),
					CurrentEpoch: cur,
				})
				return sent
			}
		}
		n, done, err := stream.Next(buf)
		if err != nil {
			_ = sink.fail(streamError{Error: err.Error(), Code: "evaluation"})
			return sent
		}
		if n > 0 {
			out := make([][2]graph.VID, n)
			for i, p := range buf[:n] {
				out[i] = [2]graph.VID{p.Src, p.Dst}
			}
			if err := sink.chunk(streamChunk{Pairs: out}); err != nil {
				return sent // client went away
			}
			sent += int64(n)
		}
		if done {
			_ = sink.done(streamDone{
				Done:      true,
				PairsSent: sent,
				Epoch:     stream.Epoch(),
				WallNS:    time.Since(start).Nanoseconds(),
			})
			return sent
		}
	}
}

// openStream opens the engine stream, mapping open-time failures to the
// usual /query statuses (the stream has not started, so a plain HTTP
// error is still possible).
func (s *Server) openStream(w http.ResponseWriter, r *http.Request, expr rpq.Expr, limit int) (*core.ResultStream, bool) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusServiceUnavailable, ErrShuttingDown)
		return nil, false
	}
	stream, err := s.engine.OpenStream(r.Context(), expr, core.StreamOptions{Limit: limit})
	if err != nil {
		status := queryStatus(err)
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", retryAfterSeconds)
		}
		writeError(w, status, err)
		return nil, false
	}
	return stream, true
}

// ndjsonSink frames records as newline-delimited JSON, flushing after
// every record so chunks reach the client as they are produced.
type ndjsonSink struct {
	w   http.ResponseWriter
	f   http.Flusher
	enc *json.Encoder
}

func newNDJSONSink(w http.ResponseWriter) *ndjsonSink {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	f, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return &ndjsonSink{w: w, f: f, enc: enc}
}

func (n *ndjsonSink) write(v any) error {
	if err := n.enc.Encode(v); err != nil {
		return err
	}
	if n.f != nil {
		n.f.Flush()
	}
	return nil
}

func (n *ndjsonSink) meta(m streamMeta) error   { return n.write(m) }
func (n *ndjsonSink) chunk(c streamChunk) error { return n.write(c) }
func (n *ndjsonSink) done(d streamDone) error   { return n.write(d) }
func (n *ndjsonSink) fail(e streamError) error  { return n.write(e) }

// sseSink frames records as Server-Sent Events: named events with one
// JSON data line each.
type sseSink struct {
	w http.ResponseWriter
	f http.Flusher
}

func newSSESink(w http.ResponseWriter) *sseSink {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	f, _ := w.(http.Flusher)
	return &sseSink{w: w, f: f}
}

func (s *sseSink) event(name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data); err != nil {
		return err
	}
	if s.f != nil {
		s.f.Flush()
	}
	return nil
}

func (s *sseSink) meta(m streamMeta) error   { return s.event("meta", m) }
func (s *sseSink) chunk(c streamChunk) error { return s.event("pairs", c) }
func (s *sseSink) done(d streamDone) error   { return s.event("done", d) }
func (s *sseSink) fail(e streamError) error  { return s.event("error", e) }

// handleQueryStream serves GET/POST /query/stream: the result as NDJSON
// — a meta record, pairs records, then a done or error record.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	query, expr, limit, ok := s.decodeStreamRequest(w, r)
	if !ok {
		return
	}
	stream, ok := s.openStream(w, r, expr, limit)
	if !ok {
		return
	}
	s.streams.Add(1)
	sent := s.drainToSink(stream, query, newNDJSONSink(w), start)
	s.streamedPairs.Add(sent)
	s.lat.observe(pathStreamed, time.Since(start), &core.StageTimer{})
}

// handleQuerySSE serves GET /query/sse: the same drain framed as
// Server-Sent Events (meta, pairs, done/error events).
func (s *Server) handleQuerySSE(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	query, expr, limit, ok := s.decodeStreamRequest(w, r)
	if !ok {
		return
	}
	stream, ok := s.openStream(w, r, expr, limit)
	if !ok {
		return
	}
	s.streams.Add(1)
	sent := s.drainToSink(stream, query, newSSESink(w), start)
	s.streamedPairs.Add(sent)
	s.lat.observe(pathStreamed, time.Since(start), &core.StageTimer{})
}
