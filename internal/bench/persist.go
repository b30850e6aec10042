package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
	"rtcshare/internal/store"
	"rtcshare/internal/workload"
)

// This file measures what persistence buys at boot (beyond the paper):
// serving the first query batch after a restart. The cold leg is the
// only option without internal/store — parse the graph's text edge list,
// build a fresh engine, evaluate the batch while every closure structure
// is computed from scratch. The restore leg opens a store directory
// whose snapshot was taken mid-history with a warmed cache, restores the
// graph plus the cached RTCs/closures/relations, replays the
// write-ahead-log tail through the normal update path, and evaluates the
// same batch against the restored structures. Both legs must produce
// identical result pairs (order-independent fingerprints) — the restore
// leg just should not pay to recompute what the snapshot already holds,
// which the cache-miss counters verify structurally and the wall-clocks
// quantify.

// PersistRow is one dataset's boot comparison.
type PersistRow struct {
	Dataset  string `json:"dataset"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Queries  int    `json:"queries"`

	// SnapshotBytes is the snapshot file's size; ReplayedBatches the WAL
	// tail applied on top of it during the restore boot.
	SnapshotBytes   int64 `json:"snapshot_bytes"`
	ReplayedBatches int   `json:"replayed_batches"`
	// RestoredStructures / RestoredRelations count what came back warm
	// from the snapshot (RTCs + full closures, sealed relations).
	RestoredStructures int `json:"restored_structures"`
	RestoredRelations  int `json:"restored_relations"`

	// ColdWall is text-parse + engine build + first batch; RestoreWall is
	// store open + restore + WAL replay + first batch. Best-of-reps.
	ColdWall      time.Duration `json:"cold_wall_ns"`
	RestoreWall   time.Duration `json:"restore_wall_ns"`
	ColdWallMS    float64       `json:"cold_wall_ms"`
	RestoreWallMS float64       `json:"restore_wall_ms"`
	// Speedup is ColdWall / RestoreWall.
	Speedup float64 `json:"speedup"`

	// ColdMisses / RestoreMisses are closure-structure cache misses
	// during the first batch — the structural form of the claim: the
	// cold boot computes them all, the restore boot recomputes only what
	// the WAL tail invalidated.
	ColdMisses    int64 `json:"cold_misses"`
	RestoreMisses int64 `json:"restore_misses"`

	// ResultPairs totals the batch's result sizes — identical across
	// legs by the fingerprint gate.
	ResultPairs int `json:"result_pairs"`
}

// PersistSweep is the full persist-experiment measurement.
type PersistSweep struct {
	Config RunConfig    `json:"config"`
	Rows   []PersistRow `json:"rows"`
}

// persistReps is the best-of repetition count per leg.
const persistReps = 3

// persistTailBatches is the WAL tail length the restore boot replays:
// history applied after the snapshot, before the "crash".
const persistTailBatches = 3

// persistFingerprint folds one batch evaluation into an
// order-independent checksum and a pair total.
func persistFingerprint(e *core.Engine, batch []rpq.Expr) (pairs int, fp uint64, err error) {
	for qi, q := range batch {
		res, evalErr := e.Evaluate(q)
		if evalErr != nil {
			return 0, 0, evalErr
		}
		pairs += res.Len()
		qiHash := mix(uint64(qi) + 1)
		res.Each(func(src, dst graph.VID) bool {
			fp += mix(qiHash ^ (uint64(uint32(src))<<32 | uint64(uint32(dst))))
			return true
		})
	}
	return pairs, fp, nil
}

// structMisses reports the closure-structure + relation cache misses an
// engine accumulated.
func structMisses(e *core.Engine) int64 {
	c := e.Cache().Counters()
	return c.Misses + c.RelMisses
}

// preparePersistDir builds one dataset's store directory: seed the
// engine, ingest a little history, warm the cache with the query batch,
// snapshot (so the snapshot carries the warmed structures), then apply
// the WAL tail the restore boot will replay. Returns the final graph
// (for the cold leg's text file) and the tail length.
func preparePersistDir(dir string, g *graph.Graph, batch []rpq.Expr, script [][]core.GraphUpdate) (*graph.Graph, error) {
	d, err := store.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	p, _, err := store.Open(d, g, core.Options{}, store.Options{})
	if err != nil {
		return nil, err
	}
	split := len(script) - persistTailBatches
	for _, b := range script[:split] {
		if _, err := p.ApplyUpdates(b); err != nil {
			return nil, err
		}
	}
	if _, _, err := persistFingerprint(p.Engine, batch); err != nil {
		return nil, err
	}
	if _, err := p.Snapshot(); err != nil {
		return nil, err
	}
	for _, b := range script[split:] {
		if _, err := p.ApplyUpdates(b); err != nil {
			return nil, err
		}
	}
	return p.Graph(), nil
}

// RunPersistExperiment compares cold-rebuild boots against
// snapshot-restore boots on the updates experiment's RMAT datasets and
// closure-heavy workload.
func RunPersistExperiment(cfg RunConfig) (*PersistSweep, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	sweep := &PersistSweep{Config: cfg}
	for _, n := range updatesDatasetNs(cfg) {
		g, err := updatesDataset(n, cfg)
		if err != nil {
			return nil, err
		}
		dataset := fmt.Sprintf("RMAT_%d", n)

		// The updates experiment's workload shape: single-label closures
		// behind multi-label Pre, so boot cost is closure construction —
		// exactly what a snapshot amortises.
		wcfg := workload.DefaultConfig(cfg.NumSets, cfg.Seed+int64(70*n))
		wcfg.MaxRPQs = cfg.NumRPQs
		wcfg.RLengths = []int{1}
		wcfg.PreLength = 3
		sets, err := workload.Generate(g.Dict(), wcfg)
		if err != nil {
			return nil, err
		}
		var batch []rpq.Expr
		for _, s := range sets {
			batch = append(batch, s.Queries...)
		}
		batch = append(batch, rpq.MustParse(ingestLabel(g)+"+"))

		// Insert-only history, so the tail replay exercises the carry and
		// patch paths rather than dropping everything.
		script := updateScript(g, updateMix{name: "insert"}, cfg.Seed+int64(9000*n))

		tmp, err := os.MkdirTemp("", "rtcshare-persist-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		storeDir := filepath.Join(tmp, "store")
		final, err := preparePersistDir(storeDir, g, batch, script)
		if err != nil {
			return nil, fmt.Errorf("bench: persist %s: prepare: %w", dataset, err)
		}
		graphPath := filepath.Join(tmp, "graph.txt")
		gf, err := os.Create(graphPath)
		if err != nil {
			return nil, err
		}
		if err := graph.Write(gf, final); err != nil {
			gf.Close()
			return nil, err
		}
		if err := gf.Close(); err != nil {
			return nil, err
		}

		row := PersistRow{
			Dataset:  dataset,
			Vertices: final.NumVertices(),
			Edges:    final.NumEdges(),
			Queries:  len(batch),
		}

		coldBoot := func() (*core.Engine, error) {
			f, err := os.Open(graphPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			cg, err := graph.Read(f)
			if err != nil {
				return nil, err
			}
			return core.New(cg, core.Options{}), nil
		}
		restoreBoot := func() (*store.Persistent, store.RecoveryInfo, error) {
			d, err := store.OpenDir(storeDir)
			if err != nil {
				return nil, store.RecoveryInfo{}, err
			}
			p, info, err := store.Open(d, nil, core.Options{}, store.Options{})
			if err != nil {
				d.Close()
				return nil, store.RecoveryInfo{}, err
			}
			return p, info, nil
		}

		// Identity gate, untimed: both boots must answer the first batch
		// identically, and the restore boot must actually restore.
		ce, err := coldBoot()
		if err != nil {
			return nil, fmt.Errorf("bench: persist %s: cold boot: %w", dataset, err)
		}
		coldPairs, coldFP, err := persistFingerprint(ce, batch)
		if err != nil {
			return nil, err
		}
		row.ColdMisses = structMisses(ce)
		pe, info, err := restoreBoot()
		if err != nil {
			return nil, fmt.Errorf("bench: persist %s: restore boot: %w", dataset, err)
		}
		restPairs, restFP, err := persistFingerprint(pe.Engine, batch)
		if err != nil {
			return nil, err
		}
		row.RestoreMisses = structMisses(pe.Engine)
		if cc := pe.Cache().Counters(); cc.CrossEpochHits != 0 {
			return nil, fmt.Errorf("bench: persist %s: CrossEpochHits = %d after restore", dataset, cc.CrossEpochHits)
		}
		if !info.RestoredSnapshot || info.RestoredRTCs+info.RestoredClosures == 0 {
			return nil, fmt.Errorf("bench: persist %s: restore boot came up cold: %+v", dataset, info)
		}
		if coldPairs != restPairs || coldFP != restFP {
			return nil, fmt.Errorf("bench: persist %s: boots disagree (cold %d pairs, restore %d) — recovery changed answers",
				dataset, coldPairs, restPairs)
		}
		if row.RestoreMisses >= row.ColdMisses {
			return nil, fmt.Errorf("bench: persist %s: restore boot recomputed as much as the cold boot (%d vs %d misses) — snapshot restored nothing useful",
				dataset, row.RestoreMisses, row.ColdMisses)
		}
		row.ResultPairs = coldPairs
		row.ReplayedBatches = info.ReplayedBatches
		row.RestoredStructures = info.RestoredRTCs + info.RestoredClosures
		row.RestoredRelations = info.RestoredRelations
		pe.Close()

		stat, err := os.Stat(filepath.Join(storeDir, "snapshot.bin"))
		if err != nil {
			return nil, err
		}
		row.SnapshotBytes = stat.Size()

		// Timed phase: whole-boot wall clocks, interleaved, best-of.
		for rep := 0; rep < persistReps; rep++ {
			start := time.Now()
			e, err := coldBoot()
			if err != nil {
				return nil, err
			}
			if _, _, err := persistFingerprint(e, batch); err != nil {
				return nil, err
			}
			coldWall := time.Since(start)

			start = time.Now()
			p, _, err := restoreBoot()
			if err != nil {
				return nil, err
			}
			if _, _, err := persistFingerprint(p.Engine, batch); err != nil {
				return nil, err
			}
			restWall := time.Since(start)
			p.Close()

			if rep == 0 || coldWall < row.ColdWall {
				row.ColdWall = coldWall
			}
			if rep == 0 || restWall < row.RestoreWall {
				row.RestoreWall = restWall
			}
		}
		row.ColdWallMS = float64(row.ColdWall) / float64(time.Millisecond)
		row.RestoreWallMS = float64(row.RestoreWall) / float64(time.Millisecond)
		row.Speedup = ratio(row.ColdWall, row.RestoreWall)
		sweep.Rows = append(sweep.Rows, row)
	}
	return sweep, nil
}

// RenderPersist prints the boot comparison.
func (ps *PersistSweep) RenderPersist(w io.Writer) {
	fmt.Fprintf(w, "Persist experiment (beyond the paper): cold text-rebuild boot vs snapshot-restore boot, first query batch included\n")
	fmt.Fprintf(w, "%-8s %8s %9s %12s %12s %9s %10s %8s %8s %12s\n",
		"dataset", "queries", "snapshot", "cold", "restore", "speedup", "structures", "coldmiss", "restmiss", "result")
	for _, r := range ps.Rows {
		fmt.Fprintf(w, "%-8s %8d %8dK %12s %12s %8.2fx %10d %8d %8d %12d\n",
			r.Dataset, r.Queries, r.SnapshotBytes/1024, ms(r.ColdWall), ms(r.RestoreWall), r.Speedup,
			r.RestoredStructures+r.RestoredRelations, r.ColdMisses, r.RestoreMisses, r.ResultPairs)
	}
}
