package bench

import (
	"fmt"
	"io"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// This file measures what the paper could not: the concurrency dividend
// of sharing. The paper's evaluation is single-threaded; with the
// SharedCache the batch fans out over workers while every distinct
// closure sub-query R is still computed exactly once (singleflight). The
// "fig16" experiment — numbered past the paper's Fig. 15 because it is
// ours, not theirs — reports wall-clock versus worker count per
// strategy, plus the cache counters proving the exactly-once invariant.

// ParallelRow is one (strategy, workers) wall-clock measurement of the
// parallel batch sweep.
type ParallelRow struct {
	Strategy core.Strategy `json:"-"`
	// Method is Strategy's name, for the JSON report.
	Method string `json:"method"`
	// Workers is the fan-out; 1 is the serial EvaluateSet baseline.
	Workers int `json:"workers"`
	// Wall is the best-of-reps wall-clock for the whole batch.
	Wall time.Duration `json:"wall_ns"`
	// Speedup is serial Wall / this Wall within the strategy.
	Speedup float64 `json:"speedup"`
	// Computes and Hits are the merged engine cache counters: Computes
	// is the number of shared structures actually built (CacheMisses),
	// Hits the number of reuses.
	Computes int `json:"computes"`
	Hits     int `json:"hits"`
	// ResultPairs totals the result sizes — a cross-run sanity check.
	ResultPairs int `json:"result_pairs"`
}

// ParallelSweep is the full fig16 measurement.
type ParallelSweep struct {
	Config RunConfig
	// Dataset names the graph; Queries and DistinctR describe the batch.
	Dataset   string
	Queries   int
	DistinctR int
	Rows      []ParallelRow
}

// parallelReps is the best-of repetition count per row: wall-clock
// medians of cold runs are noisy at laptop scale, and the best of three
// is stable enough for the trend the figure plots.
const parallelReps = 3

// RunParallelBatch measures EvaluateBatchParallel against the serial
// engine on one flattened multiquery workload: cfg.NumSets sets × 10
// queries, every set sharing its own closure sub-query R. Worker counts
// sweep powers of two up to cfg.Workers. Results are verified identical
// across every run, and the exactly-once invariant is asserted — a
// failed invariant is an error, not a report row.
func RunParallelBatch(cfg RunConfig) (*ParallelSweep, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	spec := datagen.RMATSpec(3, cfg.ScaleExp)
	g, err := spec.Generate(cfg.Seed)
	if err != nil {
		return nil, err
	}
	sets, err := makeWorkload(g, cfg, 10)
	if err != nil {
		return nil, err
	}
	var batch []rpq.Expr
	distinct := make(map[string]bool)
	for _, s := range sets {
		distinct[s.R.String()] = true
		batch = append(batch, s.Queries...)
	}

	sweep := &ParallelSweep{
		Config:    cfg,
		Dataset:   spec.Name,
		Queries:   len(batch),
		DistinctR: len(distinct),
	}

	// Zero-value configs get the default fan-out rather than a sweep
	// that silently measures nothing but the serial baseline.
	maxWorkers := cfg.Workers
	if maxWorkers == 0 {
		maxWorkers = DefaultConfig().Workers
	}
	workerCounts := []int{1}
	for w := 2; w <= maxWorkers; w *= 2 {
		workerCounts = append(workerCounts, w)
	}

	wantPairs := -1
	for _, strategy := range []core.Strategy{core.NoSharing, core.FullSharing, core.RTCSharing} {
		var serialWall time.Duration
		for _, workers := range workerCounts {
			row := ParallelRow{Strategy: strategy, Method: strategy.String(), Workers: workers}
			for rep := 0; rep < parallelReps; rep++ {
				engine := core.New(g, core.Options{Strategy: strategy})
				start := time.Now()
				var (
					results []*pairs.Relation
					err     error
				)
				if workers == 1 {
					results, err = engine.EvaluateSet(batch)
				} else {
					results, err = engine.EvaluateBatchParallel(batch, workers)
				}
				wall := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("bench: fig16 %v×%d: %w", strategy, workers, err)
				}
				pairsTotal := 0
				for _, r := range results {
					pairsTotal += r.Len()
				}
				if wantPairs < 0 {
					wantPairs = pairsTotal
				} else if pairsTotal != wantPairs {
					return nil, fmt.Errorf("bench: fig16 %v×%d: result pairs %d, want %d",
						strategy, workers, pairsTotal, wantPairs)
				}
				st := engine.Stats()
				if strategy != core.NoSharing && st.CacheMisses != sweep.DistinctR {
					return nil, fmt.Errorf("bench: fig16 %v×%d: %d structures computed, want exactly %d (one per distinct R)",
						strategy, workers, st.CacheMisses, sweep.DistinctR)
				}
				if rep == 0 || wall < row.Wall {
					row.Wall = wall
				}
				row.Computes = st.CacheMisses
				row.Hits = st.CacheHits
				row.ResultPairs = pairsTotal
			}
			if workers == 1 {
				serialWall = row.Wall
			}
			row.Speedup = ratio(serialWall, row.Wall)
			sweep.Rows = append(sweep.Rows, row)
		}
	}
	return sweep, nil
}

// RenderFig16 prints the parallel sweep: wall-clock and speedup per
// (strategy, workers), with the exactly-once cache counters.
func (ps *ParallelSweep) RenderFig16(w io.Writer) {
	fmt.Fprintf(w, "Fig. 16 (beyond the paper): parallel batch evaluation, %s, %d queries sharing %d distinct R\n",
		ps.Dataset, ps.Queries, ps.DistinctR)
	fmt.Fprintf(w, "%-8s %8s %12s %9s %10s %8s %12s\n",
		"method", "workers", "wall_ms", "speedup", "computes", "hits", "result_pairs")
	for _, r := range ps.Rows {
		fmt.Fprintf(w, "%-8s %8d %12s %8.2fx %10d %8d %12d\n",
			r.Strategy, r.Workers, ms(r.Wall), r.Speedup, r.Computes, r.Hits, r.ResultPairs)
	}
}
