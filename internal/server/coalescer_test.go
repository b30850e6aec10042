package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// gatedEngine is a *core.Engine whose evaluations wait at a gate: each
// signals entered, then blocks until gate closes or its context ends.
// It counts the evaluations running at once and their peak.
type gatedEngine struct {
	*core.Engine
	gate    chan struct{}
	entered chan struct{}
	running atomic.Int64
	peak    atomic.Int64
}

func newGatedEngine(g *graph.Graph) *gatedEngine {
	return &gatedEngine{
		Engine:  core.New(g, core.Options{}),
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 1024),
	}
}

func (e *gatedEngine) EvaluateRelTimedCtx(ctx context.Context, q rpq.Expr, st *core.StageTimer) (*pairs.Relation, uint64, error) {
	n := e.running.Add(1)
	defer e.running.Add(-1)
	for p := e.peak.Load(); n > p && !e.peak.CompareAndSwap(p, n); p = e.peak.Load() {
	}
	select {
	case e.entered <- struct{}{}:
	default:
	}
	select {
	case <-e.gate:
	case <-ctx.Done():
		return nil, e.Epoch(), ctx.Err()
	}
	return e.Engine.EvaluateRelTimedCtx(ctx, q, st)
}

// TestMaxInFlightBound: at most MaxInFlight evaluations run at once, at
// most waitersPerSlot × MaxInFlight requests wait for a slot, and the
// request beyond that bound answers 503 with Retry-After. Once the
// evaluations proceed, every admitted request is served.
func TestMaxInFlightBound(t *testing.T) {
	const slots = 2
	eng := newGatedEngine(fixtures.Figure1())
	srv := New(eng, Options{MaxInFlight: slots})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	post := func(q string) (*http.Response, error) {
		body, _ := json.Marshal(QueryRequest{Query: q})
		return http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	}
	queries := []string{"a", "b", "c", "b·c", "d·(b·c)+·c"}
	admitted := slots + waitersPerSlot*slots
	statuses := make(chan int, admitted)
	var wg sync.WaitGroup
	for i := 0; i < admitted; i++ {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			resp, err := post(q)
			if err != nil {
				statuses <- -1
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}(queries[i%len(queries)])
	}
	eventually(t, 10*time.Second, "slots and waiter bound filled", func() bool {
		return eng.running.Load() == slots && srv.coal.waiting.Load() == int64(waitersPerSlot*slots)
	})

	resp, err := post("a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("request beyond the waiter bound: status %d, Retry-After %q, want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	close(eng.gate)
	wg.Wait()
	close(statuses)
	for st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("admitted request answered %d, want 200", st)
		}
	}
	if p := eng.peak.Load(); p != slots {
		t.Fatalf("peak concurrent evaluations = %d, want MaxInFlight = %d", p, slots)
	}
	if st := srv.coal.stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
}
