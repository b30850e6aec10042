package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/workload"
)

// This file measures the data plane (beyond the paper): the seed's
// map-set executor against the columnar relation executor, and the BFS
// closure against the density-selected bitset hybrid, crossed over RMAT
// datasets and three workload families. "paper" is the paper's protocol
// (R of length 1–3, single-label Pre/Post); "closure" makes every R a
// single label, so on dense RMATs the shared-structure work — closure
// construction and SCC-member expansion through the join — dominates
// the batch (the closure-heavy family the acceptance gate watches);
// "selpost" lengthens Post to three labels, weighting the join's
// traversal tail. Every cell evaluates the identical batch and must
// produce identical result pairs — a config that changes answers is an
// error, not a slow row.

// LayoutRow is one (dataset, family, config) measurement.
type LayoutRow struct {
	Dataset string `json:"dataset"`
	Family  string `json:"family"`
	// Config names the layout+closure combination, e.g. "map+bfs".
	Config string `json:"config"`
	// Queries is the batch size evaluated.
	Queries int `json:"queries"`
	// Wall is the best-of-reps wall-clock for the whole batch.
	Wall   time.Duration `json:"wall_ns"`
	WallMS float64       `json:"wall_ms"`
	// Speedup is the map+bfs baseline wall over this wall within the cell.
	Speedup float64 `json:"speedup"`
	// AllocsPerOp / BytesPerOp are -benchmem-style per-query allocation
	// counts for the whole batch pipeline, measured on a fresh engine in
	// a separate (untimed) pass.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// AllocRatio is the baseline's allocs/op over this config's.
	AllocRatio float64 `json:"alloc_ratio"`
	// SharedPairs totals the shared-structure sizes the run built.
	SharedPairs int `json:"shared_pairs"`
	// ResultPairs totals the result sizes — the cross-config identity
	// check.
	ResultPairs int `json:"result_pairs"`
}

// LayoutSweep is the full layout-experiment measurement.
type LayoutSweep struct {
	Config RunConfig   `json:"config"`
	Rows   []LayoutRow `json:"rows"`
}

// layoutConfig is one executor configuration of the experiment.
type layoutConfig struct {
	name   string
	layout core.Layout
	tcAlgo rtc.TCAlgorithm
}

func layoutConfigs() []layoutConfig {
	return []layoutConfig{
		{name: "map+bfs", layout: core.LayoutMapSet, tcAlgo: rtc.BFSClosure},
		{name: "map+bitset", layout: core.LayoutMapSet, tcAlgo: rtc.BitsetClosure},
		{name: "columnar+bfs", layout: core.LayoutColumnar, tcAlgo: rtc.BFSClosure},
		{name: "columnar+bitset", layout: core.LayoutColumnar, tcAlgo: rtc.BitsetClosure},
	}
}

// layoutFamily is one workload shape of the experiment.
type layoutFamily struct {
	name     string
	rLengths []int
	postLen  int
}

func layoutFamilies() []layoutFamily {
	return []layoutFamily{
		{name: "paper", rLengths: []int{1, 2, 3}, postLen: 1},
		{name: "closure", rLengths: []int{1}, postLen: 1},
		{name: "selpost", rLengths: []int{1, 2, 3}, postLen: 3},
	}
}

// layoutReps is the best-of repetition count per cell, for the same
// reason as plannerReps: laptop-scale wall-clocks are noisy.
const layoutReps = 3

// RunLayoutExperiment crosses the executor configurations over RMAT
// datasets × workload families on RTCSharing with the default planner,
// timing each batch and measuring its per-query allocation profile.
func RunLayoutExperiment(cfg RunConfig) (*LayoutSweep, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	sweep := &LayoutSweep{Config: cfg}
	for _, n := range plannerDatasets(cfg) {
		g, err := datagen.PaperRMATN(n, cfg.ScaleExp, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		dataset := fmt.Sprintf("RMAT_%d", n)
		for _, fam := range layoutFamilies() {
			wcfg := workload.DefaultConfig(cfg.NumSets, cfg.Seed+int64(100*n))
			wcfg.MaxRPQs = cfg.NumRPQs
			wcfg.RLengths = fam.rLengths
			wcfg.PostLength = fam.postLen
			sets, err := workload.Generate(g.Dict(), wcfg)
			if err != nil {
				return nil, err
			}
			var batch []rpq.Expr
			for _, s := range sets {
				batch = append(batch, s.Queries...)
			}

			rows, err := measureLayoutCell(g, batch, dataset, fam.name)
			if err != nil {
				return nil, err
			}
			sweep.Rows = append(sweep.Rows, rows...)
		}
	}
	return sweep, nil
}

// mix is a splitmix64-style bit mixer for result fingerprints.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// runLayoutBatch evaluates the batch on a fresh engine of the given
// configuration and returns total result pairs plus the engine's shared
// total. Both executors deliver the public result, a sealed
// pairs.Relation: the columnar pipeline hands over its own, the map
// pipeline seals its final set once — the one conversion the baseline
// pays to meet the API.
//
// With fingerprint set, the run also folds every result pair into a
// per-query, order-independent checksum (a commutative sum of mixed
// (query, src, dst) triples), so configurations are held to *identical
// pairs*, not just identical counts — a transposed or shifted result of
// equal cardinality still trips the gate. The timed reps skip it; the
// gate runs once per config on the first rep.
func runLayoutBatch(g *graph.Graph, batch []rpq.Expr, lc layoutConfig, fingerprint bool) (resultPairs, sharedPairs int, fp uint64, err error) {
	engine := core.New(g, core.Options{Strategy: core.RTCSharing, Layout: lc.layout, TCAlgo: lc.tcAlgo})
	for qi, q := range batch {
		// src and dst occupy disjoint halves of the pre-mix word and the
		// query index is mixed in separately, so distinct (query, src,
		// dst) triples never alias before hashing.
		qiHash := mix(uint64(qi) + 1)
		addPair := func(src, dst graph.VID) bool {
			fp += mix(qiHash ^ (uint64(uint32(src))<<32 | uint64(uint32(dst))))
			return true
		}
		res, evalErr := engine.Evaluate(q)
		if evalErr != nil {
			return 0, 0, 0, evalErr
		}
		resultPairs += res.Len()
		if fingerprint {
			res.Each(addPair)
		}
	}
	return resultPairs, engine.SharedPairsTotal(), fp, nil
}

// measureAllocs runs fn between two mem-stats snapshots and returns the
// mallocs and bytes it allocated. A GC first settles the heap so the
// deltas belong to fn.
func measureAllocs(fn func() error) (mallocs, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := fn(); err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, nil
}

// measureLayoutCell times one (dataset, family) batch under every
// configuration and cross-checks the results.
func measureLayoutCell(g *graph.Graph, batch []rpq.Expr, dataset, family string) ([]LayoutRow, error) {
	configs := layoutConfigs()
	rows := make([]LayoutRow, len(configs))
	for i, lc := range configs {
		rows[i] = LayoutRow{Dataset: dataset, Family: family, Config: lc.name, Queries: len(batch)}
	}

	// Identity gate, untimed: every configuration must produce the
	// per-query pair-identical results (order-independent fingerprints),
	// not merely equal counts.
	wantPairs, wantFP := -1, uint64(0)
	for _, lc := range configs {
		resultPairs, _, fp, err := runLayoutBatch(g, batch, lc, true)
		if err != nil {
			return nil, fmt.Errorf("bench: layout %s/%s/%s: %w", dataset, family, lc.name, err)
		}
		if wantPairs < 0 {
			wantPairs, wantFP = resultPairs, fp
		} else if resultPairs != wantPairs || fp != wantFP {
			return nil, fmt.Errorf("bench: layout %s/%s/%s: results differ (%d pairs fp %x, want %d fp %x) — layout changed answers",
				dataset, family, lc.name, resultPairs, fp, wantPairs, wantFP)
		}
	}

	// Timed phase: reps interleave the configurations so drift (heap
	// growth, frequency scaling) spreads evenly instead of biasing
	// whichever config runs last.
	for rep := 0; rep < layoutReps; rep++ {
		for i, lc := range configs {
			row := &rows[i]
			start := time.Now()
			resultPairs, sharedPairs, _, err := runLayoutBatch(g, batch, lc, false)
			wall := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("bench: layout %s/%s/%s: %w", dataset, family, lc.name, err)
			}
			if resultPairs != wantPairs {
				return nil, fmt.Errorf("bench: layout %s/%s/%s: result pairs %d, want %d — layout changed answers",
					dataset, family, lc.name, resultPairs, wantPairs)
			}
			if rep == 0 || wall < row.Wall {
				row.Wall = wall
			}
			row.ResultPairs = resultPairs
			row.SharedPairs = sharedPairs
		}
	}

	// Allocation phase, untimed: one fresh-engine batch per config
	// between mem-stats snapshots.
	for i, lc := range configs {
		mallocs, bytes, err := measureAllocs(func() error {
			_, _, _, err := runLayoutBatch(g, batch, lc, false)
			return err
		})
		if err != nil {
			return nil, err
		}
		rows[i].AllocsPerOp = float64(mallocs) / float64(len(batch))
		rows[i].BytesPerOp = float64(bytes) / float64(len(batch))
	}
	for i := range rows {
		rows[i].WallMS = float64(rows[i].Wall) / float64(time.Millisecond)
		rows[i].Speedup = ratio(rows[0].Wall, rows[i].Wall)
		rows[i].AllocRatio = fratio(rows[0].AllocsPerOp, rows[i].AllocsPerOp)
	}
	return rows, nil
}

// RenderLayout prints the layout comparison.
func (ls *LayoutSweep) RenderLayout(w io.Writer) {
	fmt.Fprintf(w, "Layout experiment (beyond the paper): map-set vs columnar executor × bfs vs bitset closure, RTCSharing, #RPQs=%d × %d sets\n",
		ls.Config.NumRPQs, ls.Config.NumSets)
	fmt.Fprintf(w, "%-8s %-8s %-16s %8s %12s %9s %12s %14s %11s %12s\n",
		"dataset", "family", "config", "queries", "wall_ms", "speedup", "allocs/op", "B/op", "allocratio", "result")
	for _, r := range ls.Rows {
		fmt.Fprintf(w, "%-8s %-8s %-16s %8d %12s %8.2fx %12.0f %14.0f %10.2fx %12d\n",
			r.Dataset, r.Family, r.Config, r.Queries, ms(r.Wall), r.Speedup, r.AllocsPerOp, r.BytesPerOp, r.AllocRatio, r.ResultPairs)
	}
}
