package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/server"
	"rtcshare/internal/store"
)

// This file is the chaos experiment (beyond the paper): the full
// serving stack — rpqd's handler over a Persistent engine over a
// fault-injected store — hammered by concurrent HTTP query clients and
// an update stream while a scripter arms and disarms probabilistic
// write/sync/rename failures. It is an experiment rather than only a
// test because its point is quantified: how available the read and
// write paths stay through fault storms, how many degraded episodes the
// ladder reports, and how long the node takes to re-arm once the medium
// recovers. It FAILS (instead of reporting) on any correctness
// violation: a served page differing from the serial oracle at that
// page's epoch, a non-zero CrossEpochHits tripwire, an unexpected HTTP
// status, a dishonest degradation report, or a post-chaos restart that
// is not fingerprint-identical to the engine that lived through it.

// ChaosRow is the single-run chaos measurement.
type ChaosRow struct {
	Dataset  string `json:"dataset"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Clients  int    `json:"clients"`

	// Requests / OKQueries / ShedQueries account every /query issued:
	// OK + Shed == Requests (anything else fails the experiment).
	Requests    int64 `json:"requests"`
	OKQueries   int64 `json:"ok_queries"`
	ShedQueries int64 `json:"shed_queries"`
	// QueryAvailabilityPct is OKQueries over Requests — reads stay up
	// through the ladder, so this should be at or near 100.
	QueryAvailabilityPct float64 `json:"query_availability_pct"`

	// UpdateAttempts / UpdatesCommitted / UpdatesShed account the write
	// path the same way; shed updates are the 503s the read-only rungs
	// answered. UpdateAvailabilityPct is committed over attempts.
	UpdateAttempts        int     `json:"update_attempts"`
	UpdatesCommitted      int     `json:"updates_committed"`
	UpdatesShed           int     `json:"updates_shed"`
	UpdateAvailabilityPct float64 `json:"update_availability_pct"`

	// FaultCycles is the scripter's arm/disarm count; InjectedFaults the
	// store-level failures it actually caused; WALAppendErrors and
	// SnapshotErrors the persistence layer's own error counters.
	FaultCycles     int   `json:"fault_cycles"`
	InjectedFaults  int64 `json:"injected_faults"`
	WALAppendErrors int   `json:"wal_append_errors"`
	SnapshotErrors  int   `json:"snapshot_errors"`

	// DegradedEpisodes counts the ladder's transitions into the
	// read-only rung during the storm; RecoverMS is the wall-clock from the final disarm to the
	// first committed update (the probe loop's re-arm latency).
	DegradedEpisodes int     `json:"degraded_episodes"`
	RecoverMS        float64 `json:"recover_ms"`

	// VerifiedCells counts (epoch, query) result pages checked against
	// the serial oracle; CrossEpochHits is the cache tripwire (must be
	// zero); RestartIdentical reports the snapshot + reopen identity.
	VerifiedCells    int   `json:"verified_cells"`
	CrossEpochHits   int64 `json:"cross_epoch_hits"`
	RestartIdentical bool  `json:"restart_identical"`
}

// ChaosSweep is the chaos experiment's report.
type ChaosSweep struct {
	Config RunConfig  `json:"config"`
	Rows   []ChaosRow `json:"rows"`
}

// Chaos experiment shape constants: small enough to finish in seconds,
// busy enough that fault storms overlap live updates and sealed
// windows.
const (
	chaosPerClient   = 40
	chaosUpdates     = 60
	chaosFaultCycles = 6
	chaosArmedFor    = 10 * time.Millisecond
	chaosQuietFor    = 15 * time.Millisecond
	chaosFaultProb   = 0.7
)

// chaosQueries is the fixed probe pool over the RMAT labels.
func chaosQueries() []rpq.Expr {
	qs := []string{"l0.l1", "(l0.l1)+", "(l1|l2)+", "l2.l0", "l0.(l1.l2)+", "(l0|l2)+"}
	out := make([]rpq.Expr, len(qs))
	for i, q := range qs {
		out[i] = rpq.MustParse(q)
	}
	return out
}

// chaosGraph builds the chaos dataset; deterministic in cfg.Seed, so
// calling it again replays the identical seed graph for the oracle.
func chaosGraph(cfg RunConfig) (*graph.Graph, error) {
	return datagen.RMAT(datagen.RMATConfig{Vertices: 256, Edges: 1024, Labels: 3, Seed: cfg.Seed})
}

// chaosPost posts one JSON body and returns the status plus the decoded
// response body (into out, when non-nil and the status is 200).
func chaosPost(base, path string, body, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// pagePairsFP renders a served page's pairs in canonical sorted order.
func pagePairsFP(ps [][2]graph.VID) string {
	sorted := append([][2]graph.VID(nil), ps...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	return fmt.Sprint(sorted)
}

// relPairsFP renders a relation the same way, for oracle comparison.
func relPairsFP(rel *pairs.Relation) string {
	var ps [][2]graph.VID
	rel.Each(func(src, dst graph.VID) bool {
		ps = append(ps, [2]graph.VID{src, dst})
		return true
	})
	return pagePairsFP(ps)
}

// RunChaosExperiment runs the chaos gate once and reports it.
func RunChaosExperiment(cfg RunConfig) (*ChaosSweep, error) {
	g, err := chaosGraph(cfg)
	if err != nil {
		return nil, err
	}
	clients := cfg.Clients
	if clients <= 0 {
		clients = 8
	}

	dir, err := os.MkdirTemp("", "rtcshare-chaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	inj := store.NewInjector(cfg.Seed + 1)
	d, err := store.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	p, _, err := store.Open(store.NewFaulty(d, inj), g, core.Options{}, store.Options{})
	if err != nil {
		return nil, err
	}
	srv := server.New(p.Engine, server.Options{
		Persist:       p,
		ProbeInterval: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(srv)
	closed := false
	shutdown := func() {
		if !closed {
			closed = true
			ts.Close()
			srv.Close()
		}
	}
	defer shutdown()
	defer p.Close()

	queries := chaosQueries()
	row := ChaosRow{
		Dataset:  "RMAT chaos",
		Vertices: g.NumVertices(),
		Edges:    g.NumEdges(),
		Clients:  clients,
	}

	type ackedBatch struct {
		epoch   uint64
		updates []core.GraphUpdate
	}
	var (
		mu       sync.Mutex
		acked    []ackedBatch
		observed = make(map[uint64]map[string]string)
		failures []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	record := func(q string, epoch uint64, fp string) {
		mu.Lock()
		defer mu.Unlock()
		byQ := observed[epoch]
		if byQ == nil {
			byQ = make(map[string]string)
			observed[epoch] = byQ
		}
		if prev, ok := byQ[q]; ok && prev != fp {
			failures = append(failures, fmt.Sprintf("%s at epoch %d answered two different pages", q, epoch))
			return
		}
		byQ[q] = fp
	}

	// The ladder counts its own episodes on every healthy→degraded
	// transition, so an episode the probe loop heals within a few
	// milliseconds is still seen; the row reports this run's delta.
	episodesBefore := p.Metrics().DegradedEpisodes

	var wg sync.WaitGroup
	var okQ, shedQ, reqQ int64
	var okMu sync.Mutex

	// Query clients.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < chaosPerClient; i++ {
				q := queries[(c+i)%len(queries)]
				var resp server.QueryResponse
				status, err := chaosPost(ts.URL, "/query", server.QueryRequest{Query: q.String()}, &resp)
				okMu.Lock()
				reqQ++
				okMu.Unlock()
				switch {
				case err != nil:
					fail("client %d: %v", c, err)
					return
				case status == http.StatusOK:
					okMu.Lock()
					okQ++
					okMu.Unlock()
					record(q.String(), resp.Epoch, pagePairsFP(resp.Pairs))
				case status == http.StatusServiceUnavailable:
					okMu.Lock()
					shedQ++
					okMu.Unlock()
				default:
					fail("client %d: %s answered %d", c, q, status)
					return
				}
			}
		}(c)
	}

	// The updater: random small batches over the graph's vertex space; a
	// 200 is recorded with its resulting epoch for the oracle replay, a
	// 503 is the ladder honestly holding writes back.
	labels := []string{"l0", "l1", "l2"}
	wg.Add(1)
	go func() {
		defer wg.Done()
		urng := rand.New(rand.NewSource(cfg.Seed + 2))
		for i := 0; i < chaosUpdates; i++ {
			n := 1 + urng.Intn(3)
			ups := make([]core.GraphUpdate, 0, n)
			edges := make([]server.EdgeUpdate, 0, n)
			for j := 0; j < n; j++ {
				src := graph.VID(urng.Intn(row.Vertices))
				dst := graph.VID(urng.Intn(row.Vertices))
				lbl := labels[urng.Intn(len(labels))]
				if urng.Intn(4) == 0 {
					ups = append(ups, core.DeleteEdge(src, lbl, dst))
					edges = append(edges, server.EdgeUpdate{Op: "delete", Src: src, Label: lbl, Dst: dst})
				} else {
					ups = append(ups, core.InsertEdge(src, lbl, dst))
					edges = append(edges, server.EdgeUpdate{Op: "insert", Src: src, Label: lbl, Dst: dst})
				}
			}
			var out server.UpdateResponse
			status, err := chaosPost(ts.URL, "/update", server.UpdateRequest{Updates: edges}, &out)
			row.UpdateAttempts++
			switch {
			case err != nil:
				fail("updater: %v", err)
				return
			case status == http.StatusOK:
				row.UpdatesCommitted++
				mu.Lock()
				acked = append(acked, ackedBatch{epoch: out.Epoch, updates: ups})
				mu.Unlock()
			case status == http.StatusServiceUnavailable:
				row.UpdatesShed++
			default:
				fail("updater: status %d", status)
				return
			}
			// Pace the stream across the scripter's storm schedule so
			// most fault cycles overlap live WAL appends.
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// The fault scripter: storms of probabilistic write/sync/rename
	// failures with quiet gaps for the probe loop to heal in.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < chaosFaultCycles; i++ {
			inj.Arm(chaosFaultProb, store.OpWrite, store.OpSync, store.OpRename)
			time.Sleep(chaosArmedFor)
			inj.Disarm()
			time.Sleep(chaosQuietFor)
			row.FaultCycles++
		}
	}()

	wg.Wait()
	row.DegradedEpisodes = p.Metrics().DegradedEpisodes - episodesBefore
	row.Requests, row.OKQueries, row.ShedQueries = reqQ, okQ, shedQ

	// Honesty: a shed update is only legitimate while the ladder is on a
	// degraded rung, so shed writes imply observed episodes.
	if row.UpdatesShed > 0 && row.DegradedEpisodes == 0 {
		fail("%d updates shed but no degraded episode was ever reported", row.UpdatesShed)
	}

	// Recovery: with the injector quiet, the probe loop must re-arm the
	// write path on its own; RecoverMS is how long that took.
	inj.Disarm()
	recoverStart := time.Now()
	recovered := false
	for time.Since(recoverStart) < 10*time.Second {
		var out server.UpdateResponse
		status, err := chaosPost(ts.URL, "/update", server.UpdateRequest{
			Updates: []server.EdgeUpdate{{Op: "insert", Src: 0, Label: "l0", Dst: graph.VID(row.Vertices - 1)}},
		}, &out)
		if err != nil {
			return nil, err
		}
		if status == http.StatusOK {
			row.RecoverMS = float64(time.Since(recoverStart)) / float64(time.Millisecond)
			mu.Lock()
			acked = append(acked, ackedBatch{epoch: out.Epoch, updates: []core.GraphUpdate{core.InsertEdge(0, "l0", graph.VID(row.Vertices-1))}})
			mu.Unlock()
			recovered = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !recovered {
		return nil, fmt.Errorf("chaos: node never recovered after the final disarm")
	}

	metrics := srv.MetricsSnapshot()
	row.CrossEpochHits = metrics.Cache.CrossEpochHits
	row.InjectedFaults = int64(inj.Injected())
	if pi := metrics.Persistence; pi != nil {
		row.WALAppendErrors = pi.WALAppendErrors
		row.SnapshotErrors = pi.SnapshotErrors
	}
	if row.CrossEpochHits != 0 {
		fail("CrossEpochHits = %d, want 0", row.CrossEpochHits)
	}

	// Oracle verification: rebuild the identical seed graph, replay the
	// acknowledged batches in order, check every served page.
	og, err := chaosGraph(cfg)
	if err != nil {
		return nil, err
	}
	oracle := core.New(og, core.Options{})
	epochs := make([]uint64, 0, len(observed))
	for e := range observed {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	next := 0
	for _, epoch := range epochs {
		for oracle.Epoch() < epoch && next < len(acked) {
			if _, err := oracle.ApplyUpdates(acked[next].updates); err != nil {
				return nil, fmt.Errorf("oracle replay: %w", err)
			}
			next++
		}
		if oracle.Epoch() != epoch {
			fail("served epoch %d is not reachable by replaying acknowledged batches (oracle at %d)", epoch, oracle.Epoch())
			continue
		}
		for q, got := range observed[epoch] {
			rel, err := oracle.Evaluate(rpq.MustParse(q))
			if err != nil {
				return nil, fmt.Errorf("oracle %s at epoch %d: %w", q, epoch, err)
			}
			if want := relPairsFP(rel); got != want {
				fail("%s at epoch %d: served %s, oracle computed %s", q, epoch, got, want)
			}
			row.VerifiedCells++
		}
	}

	// Restart identity: snapshot, shut down, reopen (faults gone) — the
	// restored engine must answer the probe pool identically.
	shutdown()
	beforeEpoch := p.Engine.Epoch()
	beforePairs, beforeFP, err := persistFingerprint(p.Engine, queries)
	if err != nil {
		return nil, err
	}
	if _, err := p.Snapshot(); err != nil {
		return nil, fmt.Errorf("post-chaos snapshot: %w", err)
	}
	if err := p.Close(); err != nil {
		return nil, fmt.Errorf("post-chaos close: %w", err)
	}
	d2, err := store.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	p2, _, err := store.Open(d2, nil, core.Options{}, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("restart after chaos: %w", err)
	}
	defer p2.Close()
	afterPairs, afterFP, err := persistFingerprint(p2.Engine, queries)
	if err != nil {
		return nil, err
	}
	row.RestartIdentical = p2.Engine.Epoch() == beforeEpoch && afterPairs == beforePairs && afterFP == beforeFP
	if !row.RestartIdentical {
		fail("restart fingerprint mismatch: epoch %d/%d, pairs %d/%d", beforeEpoch, p2.Engine.Epoch(), beforePairs, afterPairs)
	}

	if row.Requests > 0 {
		row.QueryAvailabilityPct = 100 * float64(row.OKQueries) / float64(row.Requests)
	}
	if row.UpdateAttempts > 0 {
		row.UpdateAvailabilityPct = 100 * float64(row.UpdatesCommitted) / float64(row.UpdateAttempts)
	}

	if len(failures) > 0 {
		return nil, fmt.Errorf("chaos gate failed:\n  %s", joinLines(failures))
	}
	return &ChaosSweep{Config: cfg, Rows: []ChaosRow{row}}, nil
}

// joinLines joins failure messages for the chaos gate's error.
func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}

// RenderChaos writes the chaos report as text.
func (cs *ChaosSweep) RenderChaos(w io.Writer) {
	for _, r := range cs.Rows {
		fmt.Fprintf(w, "Chaos: %s (%d vertices, %d edges), %d clients\n", r.Dataset, r.Vertices, r.Edges, r.Clients)
		fmt.Fprintf(w, "  queries   %d ok / %d shed of %d (%.1f%% available)\n", r.OKQueries, r.ShedQueries, r.Requests, r.QueryAvailabilityPct)
		fmt.Fprintf(w, "  updates   %d committed / %d shed of %d (%.1f%% available)\n", r.UpdatesCommitted, r.UpdatesShed, r.UpdateAttempts, r.UpdateAvailabilityPct)
		fmt.Fprintf(w, "  faults    %d cycles, %d injected (%d WAL append errors, %d snapshot errors)\n", r.FaultCycles, r.InjectedFaults, r.WALAppendErrors, r.SnapshotErrors)
		fmt.Fprintf(w, "  ladder    %d degraded episodes, recovered in %.1fms after final disarm\n", r.DegradedEpisodes, r.RecoverMS)
		fmt.Fprintf(w, "  verified  %d (epoch, query) pages against the serial oracle; cross-epoch hits %d; restart identical %v\n",
			r.VerifiedCells, r.CrossEpochHits, r.RestartIdentical)
	}
}
