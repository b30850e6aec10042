package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/graph"
)

// TestServerUpdateQueryStorm is the serving-layer -race stress test:
// concurrent clients hammer /query (all closing over the ingest label,
// so every update invalidates their results) while a mutator streams
// /update batches. The epoch machinery must hold end to end over HTTP:
//
//   - every query and update succeeds (no 5xx besides none expected);
//   - every response's epoch is one the server actually reached;
//   - CrossEpochHits stays exactly zero — no evaluation ever observed
//     two graph versions, even with updates landing mid-evaluation.
func TestServerUpdateQueryStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test skipped in -short")
	}
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 128, Edges: 512, Labels: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(core.New(g, core.Options{}), Options{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	queries := []string{"l3+", "l0·l3+", "l3+·l1", "(l2·l3)+", "l0·(l3)+·l2", "l3*·l0"}
	const (
		clients      = 8
		perClient    = 30
		updateRounds = 20
	)

	var (
		wg       sync.WaitGroup
		maxEpoch atomic.Uint64
		stop     = make(chan struct{})
		errc     = make(chan error, clients+1)
	)

	// The mutator: insert-only single-label ingest on l3, the label all
	// queries close over, so every round drops/patches their structures.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rngSrc := uint64(1)
		for r := 0; r < updateRounds; r++ {
			var ups []EdgeUpdate
			for i := 0; i < 8; i++ {
				rngSrc = rngSrc*6364136223846793005 + 1442695040888963407
				src := graph.VID(rngSrc % 128)
				dst := graph.VID((rngSrc >> 32) % 128)
				ups = append(ups, EdgeUpdate{Op: "insert", Src: src, Label: "l3", Dst: dst})
			}
			body, _ := json.Marshal(UpdateRequest{Updates: ups})
			resp, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
			if err != nil {
				errc <- fmt.Errorf("update round %d: %v", r, err)
				return
			}
			var ur UpdateResponse
			if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
				errc <- fmt.Errorf("update round %d: decode: %v", r, err)
				resp.Body.Close()
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("update round %d: status %d", r, resp.StatusCode)
				return
			}
			for {
				cur := maxEpoch.Load()
				if ur.Epoch <= cur || maxEpoch.CompareAndSwap(cur, ur.Epoch) {
					break
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := queries[(c+i)%len(queries)]
				resp, status := postQuery(t, ts.URL, QueryRequest{Query: q, Limit: 16})
				if status != http.StatusOK {
					errc <- fmt.Errorf("client %d query %d (%s): status %d", c, i, q, status)
					return
				}
				// An epoch from the future (never reached by an update
				// response) can only be observed transiently because the
				// query raced ahead of the mutator's CAS; an epoch this
				// far beyond the rounds issued is a bug.
				if resp.Epoch > uint64(updateRounds) {
					errc <- fmt.Errorf("client %d: epoch %d beyond the %d update rounds", c, resp.Epoch, updateRounds)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	<-stop

	m := srv.MetricsSnapshot()
	if m.Cache.CrossEpochHits != 0 {
		t.Fatalf("CrossEpochHits = %d under update/query storm, want 0", m.Cache.CrossEpochHits)
	}
	if m.Epoch != uint64(updateRounds) {
		t.Fatalf("final epoch %d, want %d", m.Epoch, updateRounds)
	}
	if m.Coalescer.EvalErrors != 0 || m.Coalescer.Rejected != 0 {
		t.Fatalf("storm hit eval errors or rejections: %+v", m.Coalescer)
	}
}
