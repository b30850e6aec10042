package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/shard"
)

// This file measures the sharded engine (beyond the paper): the same
// query pool evaluated as engine batches over a single engine versus a
// label-partitioned in-process cluster at 1, 2 and 4 shards, with the
// serve experiment's single-label ingest stream advancing the epoch
// between batches so the update fan-out and the cluster-epoch barrier
// are on the measured path. Two gates make every row trustworthy
// rather than merely fast, and both are enforced as errors, not
// reported: the cluster must return, pair for pair, exactly what the
// single engine returns after every update round, and the cross-epoch
// tripwire summed over the coordinator and every shard must be zero.

// ShardRow is one (dataset, family, shard count) measurement.
type ShardRow struct {
	Dataset string `json:"dataset"`
	// Family is the workload shape, as in the serve experiment.
	Family string `json:"family"`
	// Shards is the cluster size; every row also carries the shared
	// single-engine baseline for its (dataset, family) cell.
	Shards          int `json:"shards"`
	DistinctQueries int `json:"distinct_queries"`
	UpdateRounds    int `json:"update_rounds"`

	// SingleWall / ClusterWall are best-of-reps wall-clocks for the
	// batch-per-round loop on the single engine and on the cluster.
	SingleWall    time.Duration `json:"single_wall_ns"`
	ClusterWall   time.Duration `json:"cluster_wall_ns"`
	SingleWallMS  float64       `json:"single_wall_ms"`
	ClusterWallMS float64       `json:"cluster_wall_ms"`
	// Speedup is SingleWall / ClusterWall: >1 means the cluster won.
	Speedup float64 `json:"speedup"`

	// Scatter traffic of the winning cluster rep, summed over shards.
	RTCRequests      int64 `json:"rtc_requests"`
	ClosureRequests  int64 `json:"closure_requests"`
	RelationRequests int64 `json:"relation_requests"`
	Declined         int64 `json:"declined"`

	// CrossEpochHits sums the tripwire over every rep and the identity
	// phase; the experiment fails if it is ever non-zero.
	CrossEpochHits int64 `json:"cross_epoch_hits"`
	// Identical reports the enforced identity phase: after every update
	// round, the cluster's batch results equalled the single engine's
	// pair for pair.
	Identical bool `json:"identical"`
}

// ShardSweep is the full shard-experiment measurement.
type ShardSweep struct {
	Config RunConfig  `json:"config"`
	Rows   []ShardRow `json:"rows"`
}

// Shard-experiment shape constants: the serve experiment's pool and
// ingest stream, a few update rounds so epoch churn is on the measured
// path, best-of-3 walls.
const (
	shardReps         = 3
	shardUpdateRounds = 4
)

// shardCounts are the cluster sizes measured; 1 is the honest
// single-shard baseline (the scatter seam runs, the partitioner is
// degenerate).
var shardCounts = []int{1, 2, 4}

// shardBatchEngine is the slice of the evaluation surface the timed
// loop needs — both *core.Engine and *shard.Cluster satisfy it.
type shardBatchEngine interface {
	EvaluateBatchParallelRelCtx(ctx context.Context, qs []rpq.Expr, workers int, timers []*core.StageTimer) ([]*pairs.Relation, uint64, error)
	ApplyUpdates(updates []core.GraphUpdate) (core.UpdateResult, error)
}

// shardLoop is the evaluation loop both legs share: one deduplicated
// batch per epoch, an ingest round between batches, a final batch on
// the last epoch. It returns the wall-clock of the whole loop.
func shardLoop(eng shardBatchEngine, exprs []rpq.Expr, script [][]core.GraphUpdate, workers int) (time.Duration, error) {
	start := time.Now()
	for r := 0; r <= len(script); r++ {
		if _, _, err := eng.EvaluateBatchParallelRelCtx(nil, exprs, workers, nil); err != nil {
			return 0, fmt.Errorf("batch at round %d: %w", r, err)
		}
		if r < len(script) {
			if _, err := eng.ApplyUpdates(script[r]); err != nil {
				return 0, fmt.Errorf("updates round %d: %w", r, err)
			}
		}
	}
	return time.Since(start), nil
}

// shardIdentity is the enforced differential gate: a fresh cluster and
// a fresh single engine walk the same update script; after every round
// the cluster's batch results must equal the single engine's, pair for
// pair. It returns the cluster's cross-epoch tripwire total.
func shardIdentity(g *graph.Graph, opts core.Options, exprs []rpq.Expr, script [][]core.GraphUpdate, shards, workers int) (int64, error) {
	cluster := shard.New(g, shard.Options{Shards: shards, Engine: opts})
	single := core.New(g, opts)
	for r := 0; r <= len(script); r++ {
		got, _, err := cluster.EvaluateBatchParallelRelCtx(nil, exprs, workers, nil)
		if err != nil {
			return cluster.CrossEpochHits(), fmt.Errorf("cluster batch at round %d: %w", r, err)
		}
		for i, q := range exprs {
			want, err := single.Evaluate(q)
			if err != nil {
				return cluster.CrossEpochHits(), fmt.Errorf("single %s at round %d: %w", q, r, err)
			}
			if !relationsEqual(got[i], want) {
				return cluster.CrossEpochHits(), fmt.Errorf("shards=%d round %d query %s: cluster result differs from single engine (%d vs %d pairs)",
					shards, r, q, got[i].Len(), want.Len())
			}
		}
		if r < len(script) {
			if _, err := cluster.ApplyUpdates(script[r]); err != nil {
				return cluster.CrossEpochHits(), fmt.Errorf("cluster updates round %d: %w", r, err)
			}
			if _, err := single.ApplyUpdates(script[r]); err != nil {
				return cluster.CrossEpochHits(), fmt.Errorf("single updates round %d: %w", r, err)
			}
		}
	}
	return cluster.CrossEpochHits(), nil
}

// relationsEqual compares two sealed relations pair for pair.
func relationsEqual(a, b *pairs.Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	as, bs := a.Sorted(), b.Sorted()
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// RunShardExperiment runs the sharded-vs-single comparison over the
// serve experiment's workload families at 1, 2 and 4 shards.
func RunShardExperiment(cfg RunConfig) (*ShardSweep, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	workers := cfg.Clients
	if workers <= 0 {
		workers = 4
	}
	sweep := &ShardSweep{Config: cfg}
	n := 3
	if n > cfg.MaxN {
		n = cfg.MaxN
	}
	g, err := datagen.PaperRMATN(n, cfg.ScaleExp, cfg.Seed+int64(n))
	if err != nil {
		return nil, err
	}
	dataset := fmt.Sprintf("RMAT_%d", n)
	eopts := core.Options{}

	for _, fam := range serveFamilies() {
		pool, err := servePool(g, cfg, fam)
		if err != nil {
			return nil, err
		}
		exprs := make([]rpq.Expr, len(pool))
		for i, q := range pool {
			exprs[i] = rpq.MustParse(q)
		}
		script := serveScript(g, shardUpdateRounds, cfg.Seed+int64(len(fam.name)))

		// Single-engine baseline, shared by every shard-count row of the
		// cell: fresh engine (cold cache) each rep, best-of walls.
		var singleWall time.Duration
		var singleXE int64
		for rep := 0; rep < shardReps; rep++ {
			single := core.New(g, eopts)
			wall, err := shardLoop(single, exprs, script, workers)
			if err != nil {
				return nil, fmt.Errorf("bench: shard %s/%s single: %w", dataset, fam.name, err)
			}
			singleXE += single.Cache().Counters().CrossEpochHits
			if rep == 0 || wall < singleWall {
				singleWall = wall
			}
		}
		if singleXE != 0 {
			return nil, fmt.Errorf("bench: shard %s/%s single: %d cross-epoch hits (want 0)", dataset, fam.name, singleXE)
		}

		for _, shards := range shardCounts {
			row := ShardRow{
				Dataset:         dataset,
				Family:          fam.name,
				Shards:          shards,
				DistinctQueries: len(pool),
				UpdateRounds:    len(script),
				SingleWall:      singleWall,
			}

			// The enforced gates: pair-for-pair identity with the single
			// engine across every epoch, and a silent cross-epoch tripwire.
			xe, err := shardIdentity(g, eopts, exprs, script, shards, workers)
			row.CrossEpochHits += xe
			if err != nil {
				return nil, fmt.Errorf("bench: shard %s/%s identity: %w", dataset, fam.name, err)
			}
			row.Identical = true

			for rep := 0; rep < shardReps; rep++ {
				cluster := shard.New(g, shard.Options{Shards: shards, Engine: eopts})
				wall, err := shardLoop(cluster, exprs, script, workers)
				if err != nil {
					return nil, fmt.Errorf("bench: shard %s/%s shards=%d: %w", dataset, fam.name, shards, err)
				}
				row.CrossEpochHits += cluster.CrossEpochHits()
				if rep == 0 || wall < row.ClusterWall {
					row.ClusterWall = wall
					row.RTCRequests, row.ClosureRequests, row.RelationRequests, row.Declined = 0, 0, 0, 0
					for _, ss := range cluster.ShardStats() {
						row.RTCRequests += ss.RTCRequests
						row.ClosureRequests += ss.ClosureRequests
						row.RelationRequests += ss.RelationRequests
						row.Declined += ss.Declined
					}
				}
			}
			if row.CrossEpochHits != 0 {
				return nil, fmt.Errorf("bench: shard %s/%s shards=%d: %d cross-epoch hits (want 0)", dataset, fam.name, shards, row.CrossEpochHits)
			}
			row.SingleWallMS = float64(row.SingleWall) / float64(time.Millisecond)
			row.ClusterWallMS = float64(row.ClusterWall) / float64(time.Millisecond)
			row.Speedup = ratio(row.SingleWall, row.ClusterWall)
			sweep.Rows = append(sweep.Rows, row)
		}
	}
	return sweep, nil
}

// RenderShard prints the sharded-vs-single comparison.
func (ss *ShardSweep) RenderShard(w io.Writer) {
	fmt.Fprintf(w, "Shard experiment (beyond the paper): label-partitioned cluster vs single engine, live single-label ingest\n")
	fmt.Fprintf(w, "%-8s %-8s %6s %8s %7s %12s %12s %9s %8s %8s %8s %9s\n",
		"dataset", "family", "shards", "queries", "rounds", "single", "cluster", "speedup", "rtc", "rels", "declined", "identical")
	for _, r := range ss.Rows {
		fmt.Fprintf(w, "%-8s %-8s %6d %8d %7d %9s ms %9s ms %8.2fx %8d %8d %8d %9v\n",
			r.Dataset, r.Family, r.Shards, r.DistinctQueries, r.UpdateRounds,
			ms(r.SingleWall), ms(r.ClusterWall), r.Speedup,
			r.RTCRequests, r.RelationRequests, r.Declined, r.Identical)
	}
}
