package main

// This file is the benchmark's only contact with the program's public
// surfaces: the rtcshare library API and rpqd's HTTP API. Results leave
// it only as a count and a fingerprint (digest), so a change to the
// engine's entry points or result types changes this file alone. Apart
// from the input generators, the traced replay of the paper pipeline
// (layers.go) is the one other place that calls into the program,
// through internal layer functions.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"rtcshare"
	"rtcshare/internal/core"
	"rtcshare/internal/store"
)

// edit is one edge update of a workload's script.
type edit struct {
	del      bool
	src, dst int32
	label    string
}

func toUpdates(es []edit) []rtcshare.GraphUpdate {
	ups := make([]rtcshare.GraphUpdate, len(es))
	for i, e := range es {
		if e.del {
			ups[i] = rtcshare.DeleteEdge(e.src, e.label, e.dst)
		} else {
			ups[i] = rtcshare.InsertEdge(e.src, e.label, e.dst)
		}
	}
	return ups
}

// newEngine is the engine under test: default options.
func newEngine(g *rtcshare.Graph) *rtcshare.Engine { return rtcshare.NewEngine(g, rtcshare.Options{}) }

// newOracle is the engine every answer is checked against: FullSharing
// evaluates closures and joins by a different path than the default
// RTCSharing, so a fault in either shows as a mismatch.
func newOracle(g *rtcshare.Graph) *rtcshare.Engine {
	return rtcshare.NewEngine(g, rtcshare.Options{Strategy: rtcshare.FullSharing})
}

// newUpdateOracle is the oracle for workloads with updates: RTCSharing
// that drops, and never patches, every structure an update touches, so
// the incremental maintenance the engine under test runs is what it
// checks. (FullSharing maintains its closures far more slowly.)
func newUpdateOracle(g *rtcshare.Graph) *rtcshare.Engine {
	return rtcshare.NewEngine(g, rtcshare.Options{DisableIncremental: true})
}

// query evaluates q through the public result boundary.
func query(e *rtcshare.Engine, q string) (digest, error) {
	res, err := e.EvaluateQuery(q)
	if err != nil {
		return digest{}, err
	}
	var d digest
	res.Each(func(src, dst rtcshare.VID) bool { d.add(src, dst); return true })
	return d, nil
}

// oracleAnswer evaluates q on the oracle and returns the whole result's
// digest, its size and the digest of its first page of limit pairs in
// (src, dst) order.
func oracleAnswer(e *rtcshare.Engine, q string, limit int) (full, page digest, err error) {
	rel, err := e.EvaluateQueryRel(q)
	if err != nil {
		return digest{}, digest{}, err
	}
	rel.Each(func(src, dst rtcshare.VID) bool { full.add(src, dst); return true })
	for _, p := range rel.Page(0, limit) {
		page.add(p.Src, p.Dst)
	}
	return full, page, nil
}

// cacheCounters reads the engine's shared-cache counters.
func cacheCounters(e *rtcshare.Engine) rtcshare.CacheCounters { return e.Cache().Counters() }

// applyEdits applies one update batch.
func applyEdits(e interface {
	ApplyUpdates([]rtcshare.GraphUpdate) (rtcshare.UpdateResult, error)
}, es []edit) (rtcshare.UpdateResult, error) {
	return e.ApplyUpdates(toUpdates(es))
}

// durable is an open PersistentEngine over a directory store wrapped in
// a storeMeter.
type durable struct {
	*rtcshare.PersistentEngine
	meter *storeMeter
}

// snapshotEvery is the automatic-snapshot interval of the durable
// workload, in effective batches.
const snapshotEvery = 16

// openDurable opens (cold-boots or recovers) a PersistentEngine in dir;
// seed may be nil when dir already holds a snapshot. Store calls made
// while opening nest under the span parent.
func openDurable(dir string, seed *rtcshare.Graph, tr *tracer, parent int32) (*durable, error) {
	s, err := rtcshare.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	m := &storeMeter{Store: s, tr: tr}
	m.parent.Store(parent)
	pe, _, err := rtcshare.OpenEngine(m, seed, rtcshare.Options{}, rtcshare.PersistOptions{SnapshotEvery: snapshotEvery})
	if err != nil {
		s.Close()
		return nil, err
	}
	return &durable{PersistentEngine: pe, meter: m}, nil
}

// storeMeter wraps the durable workload's Store, the way NewFaultyStore
// does: it counts the bytes each commit writes and, when traced, times
// every call. parent is the span the next store call nests under.
type storeMeter struct {
	rtcshare.Store
	tr        *tracer
	parent    atomic.Int32
	walBytes  atomic.Int64
	snapBytes atomic.Int64
	snapshots atomic.Int64
}

func (m *storeMeter) AppendBatch(epoch uint64, updates []rtcshare.GraphUpdate) error {
	before := m.Store.Stats().WALBytes
	id := m.tr.begin("store.wal_append", m.parent.Load(), 0)
	err := m.Store.AppendBatch(epoch, updates)
	m.tr.end(id)
	if after := m.Store.Stats().WALBytes; after > before {
		m.walBytes.Add(after - before)
	}
	return err
}

func (m *storeMeter) WriteSnapshot(st *core.SnapshotState) error {
	id := m.tr.begin("store.snapshot_write", m.parent.Load(), 0)
	err := m.Store.WriteSnapshot(st)
	m.tr.end(id)
	if err == nil {
		m.snapBytes.Add(m.Store.Stats().SnapshotBytes)
		m.snapshots.Add(1)
	}
	return err
}

func (m *storeMeter) LoadSnapshot() (*core.SnapshotState, error) {
	id := m.tr.begin("store.snapshot_load", m.parent.Load(), 0)
	defer m.tr.end(id)
	return m.Store.LoadSnapshot()
}

func (m *storeMeter) ReplayBatches(afterEpoch uint64, fn func(store.LoggedBatch) error) error {
	id := m.tr.begin("store.replay", m.parent.Load(), 0)
	defer m.tr.end(id)
	return m.Store.ReplayBatches(afterEpoch, fn)
}

// timedEngine is the served engine with every call the server makes
// into it timed: it satisfies rtcshare.ServerEngine by embedding the
// engine and overriding the evaluation, probe and update calls.
type timedEngine struct {
	*rtcshare.Engine
	tr         *tracer
	memoProbes atomic.Int64
	memoHits   atomic.Int64
	batches    atomic.Int64
	batchQs    atomic.Int64
}

// reset zeroes the call counters, so they cover the timed phase only.
func (t *timedEngine) reset() {
	t.memoProbes.Store(0)
	t.memoHits.Store(0)
	t.batches.Store(0)
	t.batchQs.Store(0)
}

func (t *timedEngine) CachedResult(q rtcshare.Expr) (*rtcshare.Relation, uint64, bool) {
	id := t.tr.begin("core.memo_probe", -1, 0)
	rel, epoch, ok := t.Engine.CachedResult(q)
	t.tr.endQueries(id, []string{q.String()})
	t.memoProbes.Add(1)
	if ok {
		t.memoHits.Add(1)
	}
	return rel, epoch, ok
}

func (t *timedEngine) QueryCost(q rtcshare.Expr) (float64, bool, error) {
	id := t.tr.begin("plan.cost_probe", -1, 0)
	cost, cheap, err := t.Engine.QueryCost(q)
	t.tr.endQueries(id, []string{q.String()})
	return cost, cheap, err
}

func (t *timedEngine) EvaluateRelTimedCtx(ctx context.Context, q rtcshare.Expr, st *rtcshare.StageTimer) (*rtcshare.Relation, uint64, error) {
	id := t.tr.begin("core.single_eval", -1, 0)
	rel, epoch, err := t.Engine.EvaluateRelTimedCtx(ctx, q, st)
	t.tr.endQueries(id, []string{q.String()})
	return rel, epoch, err
}

func (t *timedEngine) EvaluateBatchParallelRelCtx(ctx context.Context, qs []rtcshare.Expr, workers int, timers []*rtcshare.StageTimer) ([]*rtcshare.Relation, uint64, error) {
	id := t.tr.begin("core.batch_eval", -1, 0)
	rels, epoch, err := t.Engine.EvaluateBatchParallelRelCtx(ctx, qs, workers, timers)
	names := make([]string, len(qs))
	for i, q := range qs {
		names[i] = q.String()
	}
	t.tr.endQueries(id, names)
	t.batches.Add(1)
	t.batchQs.Add(int64(len(qs)))
	return rels, epoch, err
}

func (t *timedEngine) OpenStream(ctx context.Context, q rtcshare.Expr, opts rtcshare.StreamOptions) (*rtcshare.ResultStream, error) {
	id := t.tr.begin("core.stream_open", -1, 0)
	s, err := t.Engine.OpenStream(ctx, q, opts)
	t.tr.endQueries(id, []string{q.String()})
	return s, err
}

func (t *timedEngine) ApplyUpdates(ups []rtcshare.GraphUpdate) (rtcshare.UpdateResult, error) {
	id := t.tr.begin("core.update_apply", -1, 0)
	res, err := t.Engine.ApplyUpdates(ups)
	t.tr.end(id)
	return res, err
}

// server is an in-process rpqd on a loopback port.
type server struct {
	base   string
	cancel context.CancelFunc
	done   chan error
}

func startServer(eng rtcshare.ServerEngine) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{base: "http://" + l.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- rtcshare.ServeListener(ctx, l, eng, rtcshare.ServerOptions{}) }()
	return s, nil
}

// stop shuts the server down and waits until it has.
func (s *server) stop() error {
	s.cancel()
	return <-s.done
}

// client talks to rpqd over at most two connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) post(path string, body any) (*http.Response, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // best effort: the status already fails the call
		resp.Body.Close()
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// page is a /query answer as the checks see it.
type page struct {
	epoch uint64
	total int
	page  digest
}

// query runs POST /query and decodes the response.
func (c *client) query(q string, limit int) (page, error) {
	resp, err := c.post("/query", map[string]any{"query": q, "limit": limit})
	if err != nil {
		return page{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Epoch uint64     `json:"epoch"`
		Total int        `json:"total"`
		Pairs [][2]int32 `json:"pairs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return page{}, fmt.Errorf("decoding /query: %w", err)
	}
	out := page{epoch: body.Epoch, total: body.Total}
	for _, p := range body.Pairs {
		out.page.add(p[0], p[1])
	}
	return out, nil
}

// stream runs POST /query/stream, reads it to the end, and returns the
// pinned epoch, the whole result's digest and when the first pair line
// arrived (zero when the result is empty).
func (c *client) stream(q string) (epoch uint64, all digest, first time.Time, err error) {
	resp, err := c.post("/query/stream", map[string]any{"query": q})
	if err != nil {
		return 0, digest{}, time.Time{}, err
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	for {
		line, rerr := r.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var rec struct {
				Epoch uint64     `json:"epoch"`
				Pairs [][2]int32 `json:"pairs"`
				Done  bool       `json:"done"`
				Error string     `json:"error"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				return 0, digest{}, time.Time{}, fmt.Errorf("decoding /query/stream: %w", err)
			}
			switch {
			case rec.Error != "":
				return 0, digest{}, time.Time{}, fmt.Errorf("/query/stream: %s", rec.Error)
			case rec.Done:
				if rec.Epoch != epoch {
					return 0, digest{}, time.Time{}, fmt.Errorf("/query/stream: done at epoch %d, opened at %d", rec.Epoch, epoch)
				}
				return epoch, all, first, nil
			case rec.Pairs != nil:
				if first.IsZero() && len(rec.Pairs) > 0 {
					first = time.Now()
				}
				for _, p := range rec.Pairs {
					all.add(p[0], p[1])
				}
			default:
				epoch = rec.Epoch
			}
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				rerr = io.ErrUnexpectedEOF
			}
			return 0, digest{}, time.Time{}, fmt.Errorf("/query/stream ended before done: %w", rerr)
		}
	}
}

// update runs POST /update and returns the epoch the batch reached.
func (c *client) update(es []edit) (uint64, error) {
	type upd struct {
		Op    string `json:"op"`
		Src   int32  `json:"src"`
		Label string `json:"label"`
		Dst   int32  `json:"dst"`
	}
	body := struct {
		Updates []upd `json:"updates"`
	}{Updates: make([]upd, len(es))}
	for i, e := range es {
		op := "insert"
		if e.del {
			op = "delete"
		}
		body.Updates[i] = upd{Op: op, Src: e.src, Label: e.label, Dst: e.dst}
	}
	resp, err := c.post("/update", body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("decoding /update: %w", err)
	}
	return out.Epoch, nil
}

// coalescerStats is the part of GET /metrics the benchmark reads.
type coalescerStats struct {
	Submitted int64 `json:"submitted"`
	DedupHits int64 `json:"dedup_hits"`
}

func (c *client) coalescer() (coalescerStats, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return coalescerStats{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Coalescer coalescerStats `json:"coalescer"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return coalescerStats{}, fmt.Errorf("decoding /metrics: %w", err)
	}
	return body.Coalescer, nil
}
