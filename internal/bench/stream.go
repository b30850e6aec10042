package bench

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/workload"
)

// This file measures streaming result delivery (beyond the paper): the
// sealed pipeline — evaluate, seal the full relation, then deliver —
// against the pull stream, which resolves the shared inputs (reduced
// closures, sub-relations) and then joins one source vertex at a time
// into a fixed chunk buffer. Two axes matter for a serving stack:
// time-to-first-pair (a sealed result delivers nothing until the whole
// join lands; a stream delivers as soon as the first source joins) and
// delivery allocation (the sealed path materialises the entire result;
// the stream's working set is one chunk). The workload is the
// closure-heavy family (single-label R), where results are largest and
// sealing hurts most. Every streamed enumeration is gated in-experiment
// against the sealed relation — identical pairs in identical order, or
// the run errors.

// StreamRow is one (dataset, query) measurement.
type StreamRow struct {
	Dataset string `json:"dataset"`
	Query   string `json:"query"`
	// Pairs is the result size; the stream must reproduce it exactly.
	Pairs int `json:"pairs"`
	// SealedWallMS is evaluate+seal on a fresh engine — also the sealed
	// path's time-to-first-pair, since nothing is delivered before the
	// relation seals.
	SealedWallMS float64 `json:"sealed_wall_ms"`
	// StreamFirstMS is open-to-first-chunk on a fresh engine; the
	// streaming path's time-to-first-pair.
	StreamFirstMS float64 `json:"stream_first_ms"`
	// StreamWallMS is open-to-done: the full drain.
	StreamWallMS float64 `json:"stream_wall_ms"`
	// FirstPairSpeedup is SealedWallMS / StreamFirstMS.
	FirstPairSpeedup float64 `json:"first_pair_speedup"`
	// SealedBytes / StreamBytes are the total bytes allocated by each
	// delivery on a fresh engine (untimed pass); BytesRatio is
	// sealed/stream.
	SealedBytes uint64  `json:"sealed_bytes"`
	StreamBytes uint64  `json:"stream_bytes"`
	BytesRatio  float64 `json:"bytes_ratio"`
}

// StreamSweep is the full streaming-experiment measurement.
type StreamSweep struct {
	Config RunConfig   `json:"config"`
	Rows   []StreamRow `json:"rows"`
}

// streamReps is the best-of repetition count per timed cell.
const streamReps = 3

// streamChunkSize mirrors the server's default /query/stream chunk.
const streamChunkSize = 512

// streamQueriesPerDataset caps how many queries each dataset
// contributes: the largest results, where delivery dominates.
const streamQueriesPerDataset = 4

// orderedFP folds a pair sequence into an order-sensitive fingerprint:
// the chain value mixes in position, so a reordered result fingerprints
// differently even with identical pairs.
func orderedFP(fp uint64, src, dst graph.VID) uint64 {
	return mix(fp ^ (uint64(uint32(src))<<32 | uint64(uint32(dst))))
}

// RunStreamExperiment compares sealed and streamed delivery per query
// on closure-heavy workloads over dense RMATs.
func RunStreamExperiment(cfg RunConfig) (*StreamSweep, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	sweep := &StreamSweep{Config: cfg}
	for _, n := range plannerDatasets(cfg) {
		g, err := datagen.PaperRMATN(n, cfg.ScaleExp, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		dataset := fmt.Sprintf("RMAT_%d", n)
		wcfg := workload.DefaultConfig(cfg.NumSets, cfg.Seed+int64(100*n))
		wcfg.MaxRPQs = cfg.NumRPQs
		wcfg.RLengths = []int{1} // closure-heavy: every R a single label
		sets, err := workload.Generate(g.Dict(), wcfg)
		if err != nil {
			return nil, err
		}
		var batch []rpq.Expr
		seen := map[string]bool{}
		for _, s := range sets {
			for _, q := range s.Queries {
				if key := q.String(); !seen[key] {
					seen[key] = true
					batch = append(batch, q)
				}
			}
		}

		queries, oracle, err := pickStreamQueries(g, batch)
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			row, err := measureStreamQuery(g, q, dataset, oracle[q.String()])
			if err != nil {
				return nil, err
			}
			sweep.Rows = append(sweep.Rows, *row)
		}
	}
	return sweep, nil
}

// streamOracle is the identity gate for one query: the sealed result's
// size and order-sensitive fingerprint.
type streamOracle struct {
	pairs int
	fp    uint64
}

// pickStreamQueries evaluates the batch once (untimed, shared engine)
// and keeps the queries with the largest results — the regime streaming
// exists for — along with their sealed oracles.
func pickStreamQueries(g *graph.Graph, batch []rpq.Expr) ([]rpq.Expr, map[string]streamOracle, error) {
	engine := core.New(g, core.Options{})
	oracle := make(map[string]streamOracle, len(batch))
	type sized struct {
		q rpq.Expr
		n int
	}
	ranked := make([]sized, 0, len(batch))
	for _, q := range batch {
		rel, err := engine.Evaluate(q)
		if err != nil {
			return nil, nil, err
		}
		fp := uint64(0)
		rel.Each(func(src, dst graph.VID) bool {
			fp = orderedFP(fp, src, dst)
			return true
		})
		oracle[q.String()] = streamOracle{pairs: rel.Len(), fp: fp}
		ranked = append(ranked, sized{q, rel.Len()})
	}
	// Selection sort of the top results: the batch is tens of queries.
	k := streamQueriesPerDataset
	if k > len(ranked) {
		k = len(ranked)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(ranked); j++ {
			if ranked[j].n > ranked[best].n {
				best = j
			}
		}
		ranked[i], ranked[best] = ranked[best], ranked[i]
	}
	out := make([]rpq.Expr, 0, k)
	for i := 0; i < k; i++ {
		if ranked[i].n == 0 {
			break
		}
		out = append(out, ranked[i].q)
	}
	return out, oracle, nil
}

// drainStream drains one freshly opened stream, returning the pair
// count, order-sensitive fingerprint, and time from start to the first
// non-empty chunk.
func drainStream(engine *core.Engine, q rpq.Expr, start time.Time) (n int, fp uint64, first time.Duration, err error) {
	s, err := engine.OpenStream(context.Background(), q, core.StreamOptions{})
	if err != nil {
		return 0, 0, 0, err
	}
	defer s.Close()
	buf := make([]pairs.Pair, streamChunkSize)
	for {
		k, done, nerr := s.Next(buf)
		if nerr != nil {
			return 0, 0, 0, nerr
		}
		if k > 0 && n == 0 {
			first = time.Since(start)
		}
		for _, p := range buf[:k] {
			fp = orderedFP(fp, p.Src, p.Dst)
		}
		n += k
		if done {
			if n == 0 {
				first = time.Since(start)
			}
			return n, fp, first, nil
		}
	}
}

// measureStreamQuery times sealed and streamed delivery of one query,
// both from a cold engine, gates the stream against the sealed oracle,
// and measures each delivery's allocation in an untimed pass.
func measureStreamQuery(g *graph.Graph, q rpq.Expr, dataset string, want streamOracle) (*StreamRow, error) {
	row := &StreamRow{Dataset: dataset, Query: q.String(), Pairs: want.pairs}

	// Sealed delivery, timed (best of reps). The wall is also the sealed
	// time-to-first-pair: the relation must seal before anything ships.
	var sealedWall time.Duration
	for rep := 0; rep < streamReps; rep++ {
		engine := core.New(g, core.Options{})
		start := time.Now()
		rel, err := engine.Evaluate(q)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		if rel.Len() != want.pairs {
			return nil, fmt.Errorf("stream bench: %s: sealed rep returned %d pairs, oracle has %d", q, rel.Len(), want.pairs)
		}
		if rep == 0 || wall < sealedWall {
			sealedWall = wall
		}
	}

	// Streamed delivery, timed (best of reps), identity-gated each rep.
	var streamWall, streamFirst time.Duration
	for rep := 0; rep < streamReps; rep++ {
		engine := core.New(g, core.Options{})
		start := time.Now()
		n, fp, first, err := drainStream(engine, q, start)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		if n != want.pairs || fp != want.fp {
			return nil, fmt.Errorf("stream bench: %s: stream delivered %d pairs (fp %x), sealed oracle %d (fp %x)",
				q, n, fp, want.pairs, want.fp)
		}
		if rep == 0 || wall < streamWall {
			streamWall = wall
		}
		if rep == 0 || first < streamFirst {
			streamFirst = first
		}
	}

	// Allocation passes, untimed, one fresh engine each.
	_, sealedBytes, err := measureAllocs(func() error {
		engine := core.New(g, core.Options{})
		_, err := engine.Evaluate(q)
		return err
	})
	if err != nil {
		return nil, err
	}
	_, streamBytes, err := measureAllocs(func() error {
		engine := core.New(g, core.Options{})
		_, _, _, err := drainStream(engine, q, time.Now())
		return err
	})
	if err != nil {
		return nil, err
	}

	row.SealedWallMS = float64(sealedWall.Nanoseconds()) / 1e6
	row.StreamFirstMS = float64(streamFirst.Nanoseconds()) / 1e6
	row.StreamWallMS = float64(streamWall.Nanoseconds()) / 1e6
	if streamFirst > 0 {
		row.FirstPairSpeedup = float64(sealedWall) / float64(streamFirst)
	}
	row.SealedBytes = sealedBytes
	row.StreamBytes = streamBytes
	if streamBytes > 0 {
		row.BytesRatio = float64(sealedBytes) / float64(streamBytes)
	}
	return row, nil
}

// RenderStream writes the streaming-delivery table.
func (s *StreamSweep) RenderStream(w io.Writer) {
	fmt.Fprintf(w, "Streaming delivery (beyond the paper): sealed vs pull-stream, closure-heavy workload\n")
	fmt.Fprintf(w, "scale 2^%d, chunk %d pairs, best of %d\n\n", s.Config.ScaleExp, streamChunkSize, streamReps)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "dataset\tquery\tpairs\tsealed ms\tfirst-pair ms\tstream ms\tfirst-pair ×\tsealed B\tstream B\tbytes ×\n")
	for _, r := range s.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%.2f\t%.2f\t%.1f\t%d\t%d\t%.1f\n",
			r.Dataset, r.Query, r.Pairs, r.SealedWallMS, r.StreamFirstMS, r.StreamWallMS,
			r.FirstPairSpeedup, r.SealedBytes, r.StreamBytes, r.BytesRatio)
	}
	tw.Flush()
	fmt.Fprintf(w, "\nEvery streamed enumeration was checked pair-for-pair, in order, against the sealed relation.\n")
}
