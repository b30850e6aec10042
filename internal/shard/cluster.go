package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"rtcshare/internal/core"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/tc"
)

// Options configure a Cluster.
type Options struct {
	// Shards is the number of engine shards; values ≤ 1 build a
	// one-shard cluster (the scatter seam still runs, which is the
	// honest single-shard baseline of the shard benchmark).
	Shards int
	// Partitioner assigns label sets to shards. Nil uses
	// HashPartitioner.
	Partitioner Partitioner
	// Engine configures the coordinator and every shard identically.
	// Identical options are required: the differential guarantee is
	// that any shard computes exactly what the coordinator would have.
	Engine core.Options
}

// Cluster is a label-partitioned, in-process cluster: one coordinator
// engine whose scatter hook routes shared-structure and sub-relation
// work to N engine shards, each with a private SharedCache over the same
// immutable graph. It implements the evaluation surface the HTTP server
// consumes, so rpqd serves a Cluster exactly like a single engine.
//
// Concurrency: evaluations take the cluster-epoch barrier shared;
// ApplyUpdates takes it exclusive and fans the batch out to the
// coordinator and every shard, so all engines advance epochs in
// lockstep and no evaluation overlaps a half-advanced cluster. Paths
// that evaluate outside the barrier (the coalescer's error-fallback
// forks) stay correct through the scatter seam's epoch guard: a shard
// that cannot serve the pinned epoch declines and the coordinator
// computes locally.
type Cluster struct {
	opts   Options
	part   Partitioner
	coord  *core.Engine
	shards []*core.Engine

	// barrier is the cluster-epoch barrier: RLock around evaluations,
	// Lock around the update fan-out.
	barrier sync.RWMutex

	counters []scatterCounters
}

// scatterCounters tallies the scatter traffic one shard served.
type scatterCounters struct {
	rtc      atomic.Int64
	closure  atomic.Int64
	relation atomic.Int64
	declined atomic.Int64
}

// Stats is one shard's observability row: its cache counters (including
// the CrossEpochHits tripwire) plus the scatter traffic routed to it.
// The server's /metrics endpoint publishes one row per shard.
type Stats struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Cache is the shard's SharedCache counter snapshot.
	Cache core.CacheCounters `json:"cache"`
	// RTCRequests counts RTC structure requests scattered to this shard.
	RTCRequests int64 `json:"rtc_requests"`
	// ClosureRequests counts full-closure requests scattered to this
	// shard (FullSharing strategy).
	ClosureRequests int64 `json:"closure_requests"`
	// RelationRequests counts sub-relation evaluations scattered to this
	// shard.
	RelationRequests int64 `json:"relation_requests"`
	// Declined counts requests this shard refused because its epoch did
	// not match the coordinator's pinned epoch; the coordinator computed
	// those locally. Nonzero values are expected only from evaluations
	// running outside the cluster-epoch barrier.
	Declined int64 `json:"declined"`
}

// New returns a Cluster over g with opts.Shards engine shards. The
// coordinator and the shards each get a private SharedCache; the graph
// is shared immutably until ApplyUpdates fans out a new version.
func New(g *graph.Graph, opts Options) *Cluster {
	n := opts.Shards
	if n < 1 {
		n = 1
	}
	part := opts.Partitioner
	if part == nil {
		part = HashPartitioner{}
	}
	c := &Cluster{
		opts:     opts,
		part:     part,
		coord:    core.New(g, opts.Engine),
		shards:   make([]*core.Engine, n),
		counters: make([]scatterCounters, n),
	}
	for i := range c.shards {
		c.shards[i] = core.New(g, opts.Engine)
	}
	c.coord.SetScatterHook((*router)(c))
	return c
}

// router is the core.ScatterHook face of a Cluster, kept as a distinct
// type so the hook methods do not widen the Cluster's public API.
type router Cluster

func (r *router) cluster() *Cluster { return (*Cluster)(r) }

// RTC implements core.ScatterHook.
func (r *router) RTC(ctx context.Context, epoch uint64, expr rpq.Expr) (*rtc.RTC, core.SharedSummary, bool, bool, error) {
	c := r.cluster()
	i := c.owner(expr)
	c.counters[i].rtc.Add(1)
	structure, sum, hit, ok, err := c.shards[i].ScatterRTC(ctx, epoch, expr)
	if !ok && err == nil {
		c.counters[i].declined.Add(1)
	}
	return structure, sum, hit, ok, err
}

// FullClosure implements core.ScatterHook.
func (r *router) FullClosure(ctx context.Context, epoch uint64, expr rpq.Expr) (*tc.Closure, core.SharedSummary, bool, bool, error) {
	c := r.cluster()
	i := c.owner(expr)
	c.counters[i].closure.Add(1)
	closure, sum, hit, ok, err := c.shards[i].ScatterFullClosure(ctx, epoch, expr)
	if !ok && err == nil {
		c.counters[i].declined.Add(1)
	}
	return closure, sum, hit, ok, err
}

// SubRelation implements core.ScatterHook.
func (r *router) SubRelation(ctx context.Context, epoch uint64, q rpq.Expr) (*pairs.Relation, bool, error) {
	c := r.cluster()
	i := c.owner(q)
	c.counters[i].relation.Add(1)
	rel, ok, err := c.shards[i].ScatterSubRelation(ctx, epoch, q)
	if !ok && err == nil {
		c.counters[i].declined.Add(1)
	}
	return rel, ok, err
}

// StructureCached implements core.ScatterHook.
func (r *router) StructureCached(epoch uint64, expr rpq.Expr) bool {
	c := r.cluster()
	return c.shards[c.owner(expr)].ScatterStructureCached(epoch, expr)
}

// NumShards returns the number of engine shards.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Coordinator returns the coordinator engine — the engine whose cache
// holds top-level results and whose forks carry the scatter hook. Tests
// and benchmarks use it; serving goes through the Cluster's own surface.
func (c *Cluster) Coordinator() *core.Engine { return c.coord }

// Epoch returns the cluster's graph epoch (the coordinator's; the
// barrier keeps every shard in lockstep with it).
func (c *Cluster) Epoch() uint64 { return c.coord.Epoch() }

// Graph returns the cluster's current graph version.
func (c *Cluster) Graph() *graph.Graph { return c.coord.Graph() }

// Options returns the engine options the cluster was built with.
func (c *Cluster) Options() core.Options { return c.opts.Engine }

// Stats returns the cluster-wide timing split: the coordinator's Stats
// folded with every shard's, so the three-part accounting covers the
// work wherever it ran.
func (c *Cluster) Stats() core.Stats {
	s := c.coord.Stats()
	for _, sh := range c.shards {
		s.Add(sh.Stats())
	}
	return s
}

// Cache returns the coordinator's SharedCache — the region holding
// top-level results. Per-shard cache counters are in ShardStats.
func (c *Cluster) Cache() *core.SharedCache { return c.coord.Cache() }

// CostCalibration returns the coordinator planner's recalibration state.
func (c *Cluster) CostCalibration() (factor float64, samples int) {
	return c.coord.CostCalibration()
}

// ShardStats snapshots every shard's cache counters and scatter
// traffic, in shard order.
func (c *Cluster) ShardStats() []Stats {
	out := make([]Stats, len(c.shards))
	for i, sh := range c.shards {
		out[i] = Stats{
			Shard:            i,
			Cache:            sh.Cache().Counters(),
			RTCRequests:      c.counters[i].rtc.Load(),
			ClosureRequests:  c.counters[i].closure.Load(),
			RelationRequests: c.counters[i].relation.Load(),
			Declined:         c.counters[i].declined.Load(),
		}
	}
	return out
}

// CrossEpochHits sums the cross-epoch cache tripwire over the
// coordinator and every shard. Zero is the invariant the shard
// benchmark and the storm tests enforce: no evaluation ever consumed a
// structure from a different graph epoch.
func (c *Cluster) CrossEpochHits() int64 {
	total := c.coord.Cache().Counters().CrossEpochHits
	for _, sh := range c.shards {
		total += sh.Cache().Counters().CrossEpochHits
	}
	return total
}

// CachedResult is the coordinator's non-blocking fast path; top-level
// results live coordinator-local, so no barrier or scatter is involved.
func (c *Cluster) CachedResult(q rpq.Expr) (*pairs.Relation, uint64, bool) {
	return c.coord.CachedResult(q)
}

// QueryCost plans q on the coordinator; the planner's sunk-cost probe
// consults the owning shards' caches through the scatter seam. It does
// not take the barrier — admission classification must not block behind
// an update fan-out, and the epoch guard keeps a mid-update probe
// merely conservative (a moved structure reads as not-cached).
func (c *Cluster) QueryCost(q rpq.Expr) (cost float64, cheap bool, err error) {
	return c.coord.QueryCost(q)
}

// EvaluateRelTimedCtx evaluates one query through the coordinator under
// the shared barrier.
func (c *Cluster) EvaluateRelTimedCtx(ctx context.Context, q rpq.Expr, st *core.StageTimer) (*pairs.Relation, uint64, error) {
	c.barrier.RLock()
	defer c.barrier.RUnlock()
	return c.coord.EvaluateRelTimedCtx(ctx, q, st)
}

// EvaluateBatchParallelRelCtx is the batch demux entry point: the whole
// batch runs under the shared barrier, pinned to one cluster epoch, with
// structure and sub-relation work scattered to the owning shards.
func (c *Cluster) EvaluateBatchParallelRelCtx(ctx context.Context, qs []rpq.Expr, workers int, timers []*core.StageTimer) ([]*pairs.Relation, uint64, error) {
	c.barrier.RLock()
	defer c.barrier.RUnlock()
	return c.coord.EvaluateBatchParallelRelCtx(ctx, qs, workers, timers)
}

// Evaluate evaluates one query under the shared barrier (the
// single-engine convenience form, used by tests and benchmarks).
func (c *Cluster) Evaluate(q rpq.Expr) (*pairs.Relation, error) {
	rel, _, err := c.EvaluateRelTimedCtx(nil, q, nil)
	return rel, err
}

// ExplainQuery plans q on the coordinator without executing it.
func (c *Cluster) ExplainQuery(q string) (*core.Plan, error) {
	c.barrier.RLock()
	defer c.barrier.RUnlock()
	return c.coord.ExplainQuery(q)
}

// ExplainAnalyzeQuery plans and executes q on the coordinator (under
// the barrier: analysis evaluates for real, scattering like any query).
func (c *Cluster) ExplainAnalyzeQuery(q string) (*core.Plan, error) {
	c.barrier.RLock()
	defer c.barrier.RUnlock()
	return c.coord.ExplainAnalyzeQuery(q)
}

// Fork returns a coordinator fork. The fork carries the scatter hook but
// evaluates outside the barrier — the coalescer's error-fallback path —
// so its scatters may be declined mid-update and computed locally, which
// the epoch guard keeps correct.
func (c *Cluster) Fork() *core.Engine { return c.coord.Fork() }

// OpenStream opens a pull-based result stream through the coordinator.
// Only the open itself runs under the shared barrier: OpenStream
// resolves every shared input eagerly against the pinned engine version,
// so the returned stream drains immutable state and an update fan-out
// can proceed while clients are still paging. The stream stays
// byte-identical to a sealed evaluation at its pinned epoch regardless.
func (c *Cluster) OpenStream(ctx context.Context, q rpq.Expr, opts core.StreamOptions) (*core.ResultStream, error) {
	c.barrier.RLock()
	defer c.barrier.RUnlock()
	return c.coord.OpenStream(ctx, q, opts)
}

// Ask probes result existence through the coordinator under the shared
// barrier, short-circuiting at the first pair.
func (c *Cluster) Ask(ctx context.Context, q rpq.Expr) (bool, uint64, error) {
	c.barrier.RLock()
	defer c.barrier.RUnlock()
	return c.coord.Ask(ctx, q)
}

// AskCounted is Ask with the rows-scanned instrumentation counter.
func (c *Cluster) AskCounted(ctx context.Context, q rpq.Expr) (bool, uint64, int64, error) {
	c.barrier.RLock()
	defer c.barrier.RUnlock()
	return c.coord.AskCounted(ctx, q)
}

// Witness reconstructs one shortest label-path witness through the
// coordinator under the shared barrier.
func (c *Cluster) Witness(ctx context.Context, q rpq.Expr, src, dst graph.VID) (core.WitnessPath, bool, error) {
	c.barrier.RLock()
	defer c.barrier.RUnlock()
	return c.coord.Witness(ctx, q, src, dst)
}

// ApplyUpdates fans one update batch out to the coordinator and every
// shard under the exclusive barrier. All engines hold identical graphs
// and validate identically, apply the identical effective delta, and
// advance their (independent) cache epochs by the same amount — so the
// cluster leaves the barrier in lockstep, which the post-condition
// verifies. The returned result is the coordinator's.
func (c *Cluster) ApplyUpdates(updates []core.GraphUpdate) (core.UpdateResult, error) {
	c.barrier.Lock()
	defer c.barrier.Unlock()

	res, err := c.coord.ApplyUpdates(updates)
	if err != nil {
		// Validation rejects before mutating, and every shard would
		// reject identically; the cluster is still consistent.
		return res, err
	}

	var wg sync.WaitGroup
	errs := make([]error, len(c.shards))
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *core.Engine) {
			defer wg.Done()
			_, errs[i] = sh.ApplyUpdates(updates)
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return res, fmt.Errorf("shard: shard %d diverged applying updates: %w", i, err)
		}
	}
	want := c.coord.Epoch()
	for i, sh := range c.shards {
		if got := sh.Epoch(); got != want {
			return res, fmt.Errorf("shard: shard %d at epoch %d, coordinator at %d after update fan-out", i, got, want)
		}
	}
	return res, nil
}
