package server

import (
	"context"

	"rtcshare/internal/core"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// Engine is the evaluation surface the server consumes — exactly the
// methods the handlers and the admission path call, nothing more. A
// *core.Engine satisfies it directly, and so does any wrapper that
// honours the same contract — every evaluation's result describes the
// single graph epoch it reports.
type Engine interface {
	// Epoch returns the current graph epoch.
	Epoch() uint64
	// Graph returns the current graph version (the /metrics shape).
	Graph() *graph.Graph
	// Stats returns the accumulated three-part timing split.
	Stats() core.Stats
	// Cache returns the shared cache whose counters /metrics publishes.
	Cache() *core.SharedCache
	// CostCalibration returns the planner cost model's recalibration
	// factor and sample count.
	CostCalibration() (factor float64, samples int)
	// CachedResult is the non-blocking fast-path probe.
	CachedResult(q rpq.Expr) (*pairs.Relation, uint64, bool)
	// EvaluateRelTimedCtx evaluates one query with cancellation and
	// stage attribution — every /query that misses the memo.
	EvaluateRelTimedCtx(ctx context.Context, q rpq.Expr, st *core.StageTimer) (*pairs.Relation, uint64, error)
	// OpenStream opens a pull-based, epoch-pinned result stream — the
	// /query/stream and /query/sse delivery path.
	OpenStream(ctx context.Context, q rpq.Expr, opts core.StreamOptions) (*core.ResultStream, error)
	// AskCounted probes result existence with the rows-scanned
	// instrumentation counter — the /query?ask=1 short-circuit path.
	AskCounted(ctx context.Context, q rpq.Expr) (found bool, epoch uint64, rows int64, err error)
	// Witness reconstructs one shortest label-path witness for a result
	// pair — the /query?witness=1 path.
	Witness(ctx context.Context, q rpq.Expr, src, dst graph.VID) (core.WitnessPath, bool, error)
	// ApplyUpdates applies one edge-update batch atomically.
	ApplyUpdates(updates []core.GraphUpdate) (core.UpdateResult, error)
	// ExplainQuery plans without executing; ExplainAnalyzeQuery also
	// runs the query and reports measured cardinalities.
	ExplainQuery(q string) (*core.Plan, error)
	// ExplainAnalyzeQuery is ExplainQuery with execution.
	ExplainAnalyzeQuery(q string) (*core.Plan, error)
}
