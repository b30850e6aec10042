package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"rtcshare"
	"rtcshare/internal/datagen"
	"rtcshare/internal/graph"
)

// durable-churn interleaves writes with reads on a PersistentEngine
// (directory store, every batch fsync'd, a snapshot every 16 effective
// batches) over RMAT_3 at 2^10 vertices. Each round applies one 16-edge
// batch on one label, all inserts or all deletes of existing edges, then
// answers the next query of a warm standing set of 12 paper-protocol
// queries. The run ends by reopening the store and timing recovery to
// the first answer. The update path does most of the work here: epoch
// migration (carry, patch or drop), incremental closure patching, WAL
// and snapshot I/O, and recovery; the paper's join runs warm with
// partial invalidation.
const (
	churnScale    = 10 // log2 |V|
	churnBatch    = 16
	churnRecovers = 3  // reopen the store this many times; recover_s is the median
	churnStanding = 12 // queries in the standing set
)

// edgeMirror tracks the graph's edges per label so deletes can be drawn
// from edges that exist.
type edgeMirror struct {
	labels []string
	edges  map[string][][2]int32
	index  map[string]map[[2]int32]int
}

func newEdgeMirror(g *rtcshare.Graph) *edgeMirror {
	m := &edgeMirror{
		labels: g.Dict().Names(),
		edges:  make(map[string][][2]int32),
		index:  make(map[string]map[[2]int32]int),
	}
	for _, l := range m.labels {
		m.index[l] = make(map[[2]int32]int)
	}
	g.Edges(func(e graph.Edge) bool {
		m.insert(g.Dict().Name(e.Label), [2]int32{e.Src, e.Dst})
		return true
	})
	return m
}

func (m *edgeMirror) insert(label string, e [2]int32) {
	if _, ok := m.index[label][e]; ok {
		return
	}
	m.index[label][e] = len(m.edges[label])
	m.edges[label] = append(m.edges[label], e)
}

func (m *edgeMirror) remove(label string, e [2]int32) {
	i, ok := m.index[label][e]
	if !ok {
		return
	}
	es := m.edges[label]
	last := es[len(es)-1]
	es[i] = last
	m.index[label][last] = i
	m.edges[label] = es[:len(es)-1]
	delete(m.index[label], e)
}

// nextBatch draws one batch: 16 inserts of random edges, or 16 deletes
// of distinct existing edges, on one label.
func (m *edgeMirror) nextBatch(rng *rand.Rand, numVertices int) []edit {
	label := m.labels[rng.Intn(len(m.labels))]
	es := make([]edit, 0, churnBatch)
	if rng.Intn(2) == 0 || len(m.edges[label]) < churnBatch {
		for i := 0; i < churnBatch; i++ {
			e := [2]int32{int32(rng.Intn(numVertices)), int32(rng.Intn(numVertices))}
			es = append(es, edit{src: e[0], dst: e[1], label: label})
			m.insert(label, e)
		}
		return es
	}
	for i := 0; i < churnBatch; i++ {
		cur := m.edges[label]
		e := cur[rng.Intn(len(cur))]
		es = append(es, edit{del: true, src: e[0], dst: e[1], label: label})
		m.remove(label, e)
	}
	return es
}

type churnRig struct {
	g        *rtcshare.Graph
	standing []string
	dir      string
	d        *durable
	warm     []digest
}

func (r *churnRig) release() {
	_ = r.d.Close() // a discarded set-up's store is deleted next
	os.RemoveAll(r.dir)
}

func churnBoot(cfg config, tr *tracer) (*churnRig, error) {
	g, err := datagen.PaperRMATN(3, churnScale-cfg.shrink, graphSeed)
	if err != nil {
		return nil, err
	}
	r := &churnRig{g: g}
	if r.standing, err = paperQueries(g, churnStanding, cfg.seed); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if r.dir, err = os.MkdirTemp(cfg.outDir, "durable-churn-"); err != nil {
		return nil, err
	}
	if r.d, err = openDurable(r.dir, g, tr, -1); err != nil {
		os.RemoveAll(r.dir)
		return nil, err
	}
	for _, q := range r.standing {
		d, err := query(r.d.Engine, q)
		if err != nil {
			r.release()
			return nil, fmt.Errorf("warm-up %s: %w", q, err)
		}
		r.warm = append(r.warm, d)
	}
	return r, nil
}

// round is one timed round, kept for the after-run check.
type round struct {
	edits []edit
	epoch uint64
	query int
	dig   digest
}

func durableChurn(cfg config, tr *tracer, seconds float64) (*report, error) {
	rep := newReport()
	rig, setupS, err := timeSetup(func() (*churnRig, error) { return churnBoot(cfg, tr) }, (*churnRig).release)
	if err != nil {
		return nil, err
	}
	rep.m["setup_s"] = setupS
	defer os.RemoveAll(rig.dir)
	open := true
	defer func() {
		if open {
			_ = rig.d.Close() // error path: the run already failed
		}
	}()

	mirror := newEdgeMirror(rig.g)
	rng := rand.New(rand.NewSource(cfg.seed))
	meter := rig.d.meter
	wal0, snap0, snaps0 := meter.walBytes.Load(), meter.snapBytes.Load(), meter.snapshots.Load()
	cache0 := cacheCounters(rig.d.Engine)
	var spansBefore int
	if tr != nil {
		spansBefore = len(tr.snapshot())
	}

	var (
		rounds                    []round
		opLat, updLat, readLat    samples
		effective, effectiveEdges int
		carried, patched, dropped int
	)
	alloc := startAlloc()
	heap := startHeapSampler()
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < seconds; i++ {
		es := mirror.nextBatch(rng, rig.g.NumVertices())
		qi := i % len(rig.standing)
		rep.attempted++
		req := int64(i + 1)
		root := tr.begin("round", -1, req)
		t0 := time.Now()
		apply := tr.begin("core.apply", root, req)
		meter.parent.Store(apply)
		res, err := applyEdits(rig.d, es)
		tr.end(apply)
		t1 := time.Now()
		if err != nil {
			tr.end(root)
			rep.fail("round %d update: %v", i, err)
			continue
		}
		read := tr.begin("core.evaluate", root, req)
		dig, err := query(rig.d.Engine, rig.standing[qi])
		tr.end(read)
		t2 := time.Now()
		tr.end(root)
		if err != nil {
			rep.fail("round %d query: %v", i, err)
			continue
		}
		updLat.add(t1.Sub(t0))
		readLat.add(t2.Sub(t1))
		opLat.add(t2.Sub(t0))
		if n := res.Inserted + res.Deleted; n > 0 {
			effective++
			effectiveEdges += n
		}
		carried += res.Carried
		patched += res.Patched
		dropped += res.Dropped
		rounds = append(rounds, round{edits: es, epoch: res.Epoch, query: qi, dig: dig})
	}
	allocBytes := alloc.bytes()
	rep.m["live_heap_mb"] = heap.medianMB()
	n := float64(len(rounds))
	rep.m["op_ms_p50"] = opLat.quantile(0.5)
	rep.m["op_ms_p90"] = opLat.quantile(0.9)
	rep.m["alloc_mb_per_op"] = float64(allocBytes) / (1 << 20) / float64(rep.attempted)
	rep.m["update_p50_ms"] = updLat.quantile(0.5)
	rep.m["update_p99_ms"] = updLat.quantile(0.99)
	rep.m["read_after_write_ms_p50"] = readLat.quantile(0.5)
	written := meter.walBytes.Load() - wal0 + meter.snapBytes.Load() - snap0
	rep.m["store_bytes_per_update"] = ratio(float64(written), float64(effectiveEdges))
	rep.opMeanMS = opLat.mean()
	cache1 := cacheCounters(rig.d.Engine)
	if cache1.CrossEpochHits != 0 {
		rep.fail("%d cross-epoch cache hits", cache1.CrossEpochHits)
	}
	rep.m["cache.cross_epoch_hits"] = float64(cache1.CrossEpochHits)

	// Restart: the answers before must be the answers after.
	before := make([]digest, len(rig.standing))
	for i, q := range rig.standing {
		if before[i], err = query(rig.d.Engine, q); err != nil {
			return nil, fmt.Errorf("final answers: %w", err)
		}
	}
	open = false
	if err := rig.d.Close(); err != nil {
		return nil, fmt.Errorf("closing store: %w", err)
	}
	recoverS, err := churnRecover(rig, tr, before, rep)
	if err != nil {
		return nil, err
	}
	rep.m["recover_s"] = recoverS

	rep.attempted += len(rig.warm)
	if err := checkChurn(rig, rounds, rep); err != nil {
		return nil, err
	}

	if tr != nil {
		spans := tr.snapshot()[spansBefore:]
		ls := layers(spans)
		for _, name := range []string{"store.wal_append", "store.snapshot_write", "core.apply", "core.evaluate"} {
			rep.m[name+"_ms"] = float64(ls[name].busyNS) / 1e6 / n
			rep.m[name+"_calls"] = float64(ls[name].calls) / n
		}
		rep.m["store.snapshot_bytes"] = ratio(float64(meter.snapBytes.Load()-snap0), float64(meter.snapshots.Load()-snaps0))
		rep.m["store.snapshot_load_ms"] = ratio(float64(ls["store.snapshot_load"].busyNS)/1e6, float64(ls["store.snapshot_load"].calls))
		rep.m["store.replay_ms"] = ratio(float64(ls["store.replay"].busyNS)/1e6, float64(ls["store.replay"].calls))
		rep.m["core.carried"] = float64(carried) / n
		rep.m["core.patched"] = float64(patched) / n
		rep.m["core.dropped"] = float64(dropped) / n
		rep.m["core.effective_batch_share"] = float64(effective) / n
		rep.m["cache.structure_rebuilds"] = float64(cache1.Misses-cache0.Misses) / n
		var roundNS, coveredNS int64
		for name, st := range ls {
			switch name {
			case "round":
				roundNS += st.busyNS
			case "core.apply", "core.evaluate", "store.wal_append", "store.snapshot_write":
				coveredNS += st.busyNS
			}
		}
		rep.m["trace.coverage"] = ratio(float64(coveredNS), float64(coveredNS+roundNS))
	}
	return rep, nil
}

// churnRecover reopens the store churnRecovers times, timing each boot
// until the first answer, and checks the recovered engine answers every
// standing query as before. It returns the median recovery in seconds.
func churnRecover(rig *churnRig, tr *tracer, before []digest, rep *report) (float64, error) {
	var times samples
	for k := 0; k < churnRecovers; k++ {
		root := tr.begin("recover", -1, 0)
		t0 := time.Now()
		d, err := openDurable(rig.dir, nil, tr, root)
		if err != nil {
			tr.end(root)
			return 0, fmt.Errorf("reopening store: %w", err)
		}
		first, err := query(d.Engine, rig.standing[0])
		times.add(time.Since(t0))
		tr.end(root)
		if err != nil {
			d.Close()
			return 0, fmt.Errorf("first answer after recovery: %w", err)
		}
		rep.attempted++
		if first != before[0] {
			rep.fail("recovered answer to %q differs", rig.standing[0])
		}
		if k == churnRecovers-1 {
			for i, q := range rig.standing[1:] {
				rep.attempted++
				got, err := query(d.Engine, q)
				if err != nil || got != before[i+1] {
					rep.fail("recovered answer to %q differs (err %v)", q, err)
				}
			}
		}
		if err := d.Close(); err != nil {
			return 0, fmt.Errorf("closing store: %w", err)
		}
	}
	return times.quantile(0.5) / 1000, nil
}

// checkChurn replays the rounds on an in-memory oracle: every epoch and
// every answer must match, and so must the warm-up answers.
func checkChurn(rig *churnRig, rounds []round, rep *report) error {
	oracle := newUpdateOracle(rig.g)
	for i, q := range rig.standing {
		want, _, err := oracleAnswer(oracle, q, 0)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		if rig.warm[i] != want {
			rep.fail("warm-up answer to %q differs from the oracle", q)
		}
	}
	for i, r := range rounds {
		res, err := applyEdits(oracle, r.edits)
		if err != nil {
			return fmt.Errorf("oracle update: %w", err)
		}
		if res.Epoch != r.epoch {
			rep.fail("round %d reached epoch %d, oracle %d", i, r.epoch, res.Epoch)
		}
		want, _, err := oracleAnswer(oracle, rig.standing[r.query], 0)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		if r.dig != want {
			rep.fail("round %d: answer to %q differs from the oracle", i, rig.standing[r.query])
		}
	}
	return nil
}
