package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/server"
	"rtcshare/internal/workload"
)

// This file measures the serving layer (beyond the paper): a
// closed-loop HTTP benchmark over internal/server, N concurrent
// clients issuing a fixed request schedule against rpqd's handler
// while an ingest stream applies single-label edge inserts — the
// "heavy traffic over a live graph" regime the ROADMAP's north star
// describes. Two legs per cell: batch coalescing on (concurrent
// requests land in one deduplicated EvaluateBatchParallelRel window)
// versus off (every request evaluated on arrival against the shared
// engine). The update stream is what makes the comparison interesting:
// each effective batch advances the graph epoch, invalidating the
// cached results and structures of every query that mentions the
// ingest label, so the serving layer continuously re-pays evaluation
// cost — coalesced windows re-pay it once per distinct query per
// epoch, per-request evaluation re-pays it per straggler as well.
//
// Two gates make the row trustworthy rather than merely fast:
// CrossEpochHits must be zero on both legs (no batch or request ever
// observed two graph versions), and an untimed identity phase checks
// the HTTP path returns, pair for pair, what serial Engine.Evaluate
// computes.

// ServeRow is one (dataset, family, cache mode) measurement at a fixed
// client count.
type ServeRow struct {
	Dataset string `json:"dataset"`
	// Family is the workload shape: "paper" (single-label Pre/Post) or
	// "selpost" (three-label Post), as in the planner experiment.
	Family string `json:"family"`
	// Cache is the engine's cross-request sharing mode: "shared" is the
	// default epoch-versioned SharedCache (requests share structures and
	// memoised results across the whole process, coalesced or not);
	// "nocache" disables it (Options.DisableCache), leaving the window
	// dedup as the ONLY cross-request sharing — the regime where
	// batch-scoped sharing has to carry the paper's win by itself.
	Cache   string `json:"cache"`
	Clients int    `json:"clients"`
	// DistinctQueries is the query-pool size; Requests the total HTTP
	// queries issued per leg; UpdateRounds the ingest batches applied
	// while they ran.
	DistinctQueries int `json:"distinct_queries"`
	Requests        int `json:"requests"`
	UpdateRounds    int `json:"update_rounds"`

	// CoalesceWall / DirectWall are best-of-reps wall-clocks for the
	// whole closed loop; the QPS fields are Requests over them.
	CoalesceWall   time.Duration `json:"coalesce_wall_ns"`
	DirectWall     time.Duration `json:"direct_wall_ns"`
	CoalesceWallMS float64       `json:"coalesce_wall_ms"`
	DirectWallMS   float64       `json:"direct_wall_ms"`
	CoalesceQPS    float64       `json:"coalesce_qps"`
	DirectQPS      float64       `json:"direct_qps"`
	// Speedup is DirectWall / CoalesceWall: >1 means coalescing won.
	Speedup float64 `json:"speedup"`

	// Batches/MeanBatchQueries/DedupHits describe the winning
	// coalescing rep: how many windows sealed, their mean occupancy
	// (admitted queries per batch, dedup included), and how many
	// admissions rode an already-pending identical query.
	Batches          int64   `json:"batches"`
	MeanBatchQueries float64 `json:"mean_batch_queries"`
	DedupHits        int64   `json:"dedup_hits"`

	// CrossEpochHits sums the tripwire over every leg and rep; the
	// experiment fails (rather than reports) if it is ever non-zero.
	CrossEpochHits int64 `json:"cross_epoch_hits"`
	// Identical reports the untimed identity phase: every pool query
	// served over HTTP returned exactly the serial engine's pairs.
	Identical bool `json:"identical"`
}

// ServeSweep is the full serve-experiment measurement.
type ServeSweep struct {
	Config RunConfig  `json:"config"`
	Rows   []ServeRow `json:"rows"`
}

// Serve-experiment shape constants. The closed loop issues
// servePerClient requests per client; the ingest stream applies one
// serveUpdatesPerRound-edge batch every time another serveStrideFactor
// × clients requests complete, so faster legs see the same update
// schedule relative to their own progress.
const (
	serveReps            = 3
	servePerClient       = 24
	serveUpdatesPerRound = 8
	serveStrideFactor    = 2
	servePoolMax         = 12
	serveWindow          = 250 * time.Microsecond
	serveMaxBatch        = 64
)

// serveFamilies reuses the planner experiment's workload shapes that
// matter for serving: the paper's symmetric protocol and the
// selective-Post variant.
func serveFamilies() []plannerFamily {
	return []plannerFamily{
		{name: "paper", preLen: 1, postLen: 1},
		{name: "selpost", preLen: 1, postLen: 3},
	}
}

// serveScript pre-generates the deterministic ingest stream: rounds of
// single-label edge inserts on the graph's last label, the same
// production-shaped stream as the updates experiment.
func serveScript(g *graph.Graph, rounds int, seed int64) [][]core.GraphUpdate {
	label := ingestLabel(g)
	n := uint64(g.NumVertices())
	state := uint64(seed)*2862933555777941757 + 3037000493
	script := make([][]core.GraphUpdate, rounds)
	for r := range script {
		batch := make([]core.GraphUpdate, 0, serveUpdatesPerRound)
		for len(batch) < serveUpdatesPerRound {
			state = state*6364136223846793005 + 1442695040888963407
			src := graph.VID(state % n)
			dst := graph.VID((state >> 24) % n)
			batch = append(batch, core.InsertEdge(src, label, dst))
		}
		script[r] = batch
	}
	return script
}

// servePool builds the distinct query pool of one cell: workload
// queries of the family capped at servePoolMax, plus the closure over
// the ingest label so the update stream always invalidates (and the
// incremental path always patches) at least one hot structure.
func servePool(g *graph.Graph, cfg RunConfig, fam plannerFamily) ([]string, error) {
	wcfg := workload.DefaultConfig(cfg.NumSets, cfg.Seed+int64(500+10*len(fam.name)))
	wcfg.MaxRPQs = cfg.NumRPQs
	wcfg.PreLength = fam.preLen
	wcfg.PostLength = fam.postLen
	sets, err := workload.Generate(g.Dict(), wcfg)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var pool []string
	for _, s := range sets {
		for _, q := range s.Queries {
			text := q.String()
			if !seen[text] && len(pool) < servePoolMax-1 {
				seen[text] = true
				pool = append(pool, text)
			}
		}
	}
	hot := ingestLabel(g) + "+"
	if !seen[hot] {
		pool = append(pool, hot)
	}
	return pool, nil
}

// serveLegResult is one closed-loop run's outcome.
type serveLegResult struct {
	wall    time.Duration
	metrics server.Metrics
}

// runServeLeg runs one closed loop: clients × servePerClient HTTP
// queries against a fresh server over g, the ingest script applied at
// deterministic completion thresholds. coalesce selects the leg.
func runServeLeg(g *graph.Graph, pool []string, script [][]core.GraphUpdate, clients int, coalesce, disableCache bool) (serveLegResult, error) {
	engine := core.New(g, core.Options{DisableCache: disableCache})
	srv := server.New(engine, server.Options{
		Window:            serveWindow,
		MaxBatch:          serveMaxBatch,
		Workers:           1,
		DisableCoalescing: !coalesce,
		// The serve experiment isolates the window's sharing effect; the
		// fast lane would route cheap queries around the window and blur
		// the coalesced-vs-direct comparison. The latency experiment is
		// where the lane is measured.
		DisableFastLane: true,
	})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 4}}

	var (
		completed atomic.Int64
		wg        sync.WaitGroup
		failed    atomic.Bool
		errMu     sync.Mutex
		legErr    error
	)
	fail := func(err error) {
		if failed.CompareAndSwap(false, true) {
			errMu.Lock()
			legErr = err
			errMu.Unlock()
		}
	}

	stride := int64(serveStrideFactor * clients)
	start := time.Now()

	// The ingest stream: one update batch per stride of completed
	// queries, applied straight to the engine (the HTTP update path is
	// covered by the server tests; here it would only add constant
	// overhead to both legs).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r, batch := range script {
			target := int64(r+1) * stride
			for completed.Load() < target {
				if failed.Load() {
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
			if _, err := engine.ApplyUpdates(batch); err != nil {
				fail(fmt.Errorf("ApplyUpdates round %d: %w", r, err))
				return
			}
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < servePerClient; i++ {
				q := pool[(c+i)%len(pool)]
				body, _ := json.Marshal(server.QueryRequest{Query: q, Limit: 32})
				resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					fail(fmt.Errorf("client %d: %w", c, err))
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("client %d: %s: status %d", c, q, resp.StatusCode))
					return
				}
				completed.Add(1)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	errMu.Lock()
	err := legErr
	errMu.Unlock()
	if err != nil {
		return serveLegResult{}, err
	}
	return serveLegResult{wall: wall, metrics: srv.MetricsSnapshot()}, nil
}

// serveIdentity is the untimed gate: every pool query served over HTTP
// (coalescing on, full results, no updates) must equal the serial
// engine's relation pair for pair.
func serveIdentity(g *graph.Graph, pool []string, clients int) (bool, error) {
	serial := core.New(g, core.Options{})
	want := make(map[string][]pairs.Pair, len(pool))
	for _, q := range pool {
		rel, err := serial.Evaluate(rpq.MustParse(q))
		if err != nil {
			return false, fmt.Errorf("serial %s: %w", q, err)
		}
		want[q] = rel.Sorted()
	}

	srv := server.New(core.New(g, core.Options{}), server.Options{
		Window: serveWindow, MaxBatch: serveMaxBatch, Workers: 1,
	})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	identical := true
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		gerr error
	)
	sem := make(chan struct{}, clients)
	for _, q := range pool {
		wg.Add(1)
		sem <- struct{}{}
		go func(q string) {
			defer wg.Done()
			defer func() { <-sem }()
			body, _ := json.Marshal(server.QueryRequest{Query: q})
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				mu.Lock()
				gerr = err
				mu.Unlock()
				return
			}
			var qr server.QueryResponse
			err = json.NewDecoder(resp.Body).Decode(&qr)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				mu.Lock()
				gerr = fmt.Errorf("%s: status %d, %v", q, resp.StatusCode, err)
				mu.Unlock()
				return
			}
			wantPairs := want[q]
			same := len(qr.Pairs) == len(wantPairs)
			if same {
				for i, p := range qr.Pairs {
					if (pairs.Pair{Src: p[0], Dst: p[1]}) != wantPairs[i] {
						same = false
						break
					}
				}
			}
			if !same {
				mu.Lock()
				identical = false
				mu.Unlock()
			}
		}(q)
	}
	wg.Wait()
	if gerr != nil {
		return false, gerr
	}
	return identical, nil
}

// RunServeExperiment runs the closed-loop serving comparison over RMAT
// datasets × workload families.
func RunServeExperiment(cfg RunConfig) (*ServeSweep, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	clients := cfg.Clients
	if clients <= 0 {
		clients = 16
	}
	sweep := &ServeSweep{Config: cfg}
	n := 3
	if n > cfg.MaxN {
		n = cfg.MaxN
	}
	g, err := datagen.PaperRMATN(n, cfg.ScaleExp, cfg.Seed+int64(n))
	if err != nil {
		return nil, err
	}
	dataset := fmt.Sprintf("RMAT_%d", n)

	requests := clients * servePerClient
	rounds := requests/(serveStrideFactor*clients) - 1
	if rounds < 1 {
		rounds = 1
	}

	for _, fam := range serveFamilies() {
		pool, err := servePool(g, cfg, fam)
		if err != nil {
			return nil, err
		}
		script := serveScript(g, rounds, cfg.Seed+int64(len(fam.name)))

		identical, err := serveIdentity(g, pool, clients)
		if err != nil {
			return nil, fmt.Errorf("bench: serve %s/%s identity: %w", dataset, fam.name, err)
		}

		for _, cacheMode := range []string{"shared", "nocache"} {
			disableCache := cacheMode == "nocache"
			row := ServeRow{
				Dataset:         dataset,
				Family:          fam.name,
				Cache:           cacheMode,
				Clients:         clients,
				DistinctQueries: len(pool),
				Requests:        requests,
				UpdateRounds:    rounds,
				Identical:       identical,
			}

			for rep := 0; rep < serveReps; rep++ {
				co, err := runServeLeg(g, pool, script, clients, true, disableCache)
				if err != nil {
					return nil, fmt.Errorf("bench: serve %s/%s/%s coalesce: %w", dataset, fam.name, cacheMode, err)
				}
				di, err := runServeLeg(g, pool, script, clients, false, disableCache)
				if err != nil {
					return nil, fmt.Errorf("bench: serve %s/%s/%s direct: %w", dataset, fam.name, cacheMode, err)
				}
				row.CrossEpochHits += co.metrics.Cache.CrossEpochHits + di.metrics.Cache.CrossEpochHits
				if rep == 0 || co.wall < row.CoalesceWall {
					row.CoalesceWall = co.wall
					row.Batches = co.metrics.Coalescer.Batches
					row.DedupHits = co.metrics.Coalescer.DedupHits
					if co.metrics.Coalescer.Batches > 0 {
						row.MeanBatchQueries = float64(co.metrics.Coalescer.BatchQueries) / float64(co.metrics.Coalescer.Batches)
					}
				}
				if rep == 0 || di.wall < row.DirectWall {
					row.DirectWall = di.wall
				}
			}
			if row.CrossEpochHits != 0 {
				return nil, fmt.Errorf("bench: serve %s/%s/%s: %d cross-epoch hits (want 0)", dataset, fam.name, cacheMode, row.CrossEpochHits)
			}
			row.CoalesceWallMS = float64(row.CoalesceWall) / float64(time.Millisecond)
			row.DirectWallMS = float64(row.DirectWall) / float64(time.Millisecond)
			row.CoalesceQPS = float64(requests) / row.CoalesceWall.Seconds()
			row.DirectQPS = float64(requests) / row.DirectWall.Seconds()
			row.Speedup = ratio(row.DirectWall, row.CoalesceWall)
			sweep.Rows = append(sweep.Rows, row)
		}
	}
	return sweep, nil
}

// RenderServe prints the coalescing-on-vs-off comparison.
func (ss *ServeSweep) RenderServe(w io.Writer) {
	fmt.Fprintf(w, "Serve experiment (beyond the paper): closed-loop HTTP, coalescing on vs off, live single-label ingest\n")
	fmt.Fprintf(w, "%-8s %-8s %-8s %7s %8s %8s %12s %12s %9s %8s %9s %7s %9s\n",
		"dataset", "family", "cache", "clients", "queries", "requests", "coalesce", "direct", "speedup", "batches", "occupancy", "dedup", "identical")
	for _, r := range ss.Rows {
		fmt.Fprintf(w, "%-8s %-8s %-8s %7d %8d %8d %9s ms %9s ms %8.2fx %8d %9.2f %7d %9v\n",
			r.Dataset, r.Family, r.Cache, r.Clients, r.DistinctQueries, r.Requests,
			ms(r.CoalesceWall), ms(r.DirectWall), r.Speedup,
			r.Batches, r.MeanBatchQueries, r.DedupHits, r.Identical)
	}
}
