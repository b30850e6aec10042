// Package core implements the paper's query engines:
//
//   - RTCSharing (Algorithms 1 and 2): DNF conversion with outermost
//     Kleene closures as literals, batch-unit evaluation as a relational
//     join over the reduced transitive closure, an RTC cache shared
//     across batch units and queries, and the elimination of useless-1/2
//     and redundant-1/2 operations (Section IV-B).
//   - FullSharing (Abul-Basher [8]): the same sharing discipline, but the
//     shared structure is the heavyweight closure R+_G = TC(G_R) and the
//     join runs at vertex-pair level with duplicate checks everywhere.
//   - NoSharing (Yakovets et al. [5]): each query is evaluated
//     independently — the closure sub-query is re-evaluated and its full
//     closure re-materialised for every query, with nothing reused. (At
//     one query per set it therefore costs the same as FullSharing,
//     matching the paper's Fig. 14.) Kleene-free sub-expressions are
//     evaluated by automaton-product traversal in all three strategies.
//
// Engines record the paper's three-part timing split (Shared_Data,
// PreG ⋈ R+G, Remainder) so the evaluation figures can be regenerated.
//
// # Concurrency
//
// The shared structures live in a SharedCache: immutable once computed,
// sharded, with singleflight deduplication, so any number of engines —
// and any number of goroutines calling one engine — can share one cache.
// An Engine is safe for concurrent use: its timing split and summaries
// are mutex-guarded, and automaton-product evaluators (which carry
// mutable traversal scratch) are checked out of a per-engine free list,
// never shared between two running evaluations. EvaluateBatchParallel
// fans a query batch over worker engines forked from the receiver; the
// forks share the receiver's cache and fold their Stats back into it.
//
// # Dynamic graphs
//
// An Engine is no longer pinned to one frozen graph: ApplyUpdates
// (update.go) applies a batch of edge inserts/deletes, freezes a new
// graph version, advances the SharedCache's epoch (carrying, patching or
// dropping each cached structure) and atomically swaps the engine onto
// the new version. Everything whose lifetime is bounded by one graph
// version — the graph itself, sub-result memos, evaluator free lists,
// join-scratch and builder pools, the planner with its statistics —
// lives in an engineVersion; an evaluation pins one version at entry and
// uses it throughout, so every result is computed entirely against a
// single graph epoch even while updates land concurrently. The
// accounting that outlives updates (Options, the cache handle, Stats,
// shared-structure summaries) lives in the embedded engineShared.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/plan"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/tc"
)

// Strategy selects the multi-RPQ evaluation method.
type Strategy int

const (
	// RTCSharing shares the reduced transitive closure (this paper).
	RTCSharing Strategy = iota
	// FullSharing shares the full closure R+_G (Abul-Basher [8]).
	FullSharing
	// NoSharing evaluates every query independently (Yakovets et al. [5]).
	NoSharing
)

func (s Strategy) String() string {
	switch s {
	case RTCSharing:
		return "RTC"
	case FullSharing:
		return "Full"
	case NoSharing:
		return "No"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Layout selects the executor's relation representation — the data
// plane under the unchanged query API.
type Layout int

const (
	// LayoutColumnar is the default: sub-query results are sealed into
	// immutable columnar pairs.Relation values (CSR by start vertex with
	// a lazily built end-vertex transpose). Batch units probe the frozen
	// columns as contiguous runs, sealed relations are shared across
	// batch units, queries and engines without copying, and join scratch
	// (stamp sets, tuple buffers, relation builders) is pooled on the
	// engine so steady-state batch evaluation allocates almost nothing.
	LayoutColumnar Layout = iota
	// LayoutMapSet is the seed executor, preserved as the baseline of
	// the rpqbench layout experiment: sub-query results are map-backed
	// pairs.Set values, re-bucketed by start (or end) vertex on every
	// batch-unit call, and every join inserts through a hash table.
	LayoutMapSet
)

func (l Layout) String() string {
	switch l {
	case LayoutColumnar:
		return "columnar"
	case LayoutMapSet:
		return "mapset"
	}
	return fmt.Sprintf("Layout(%d)", int(l))
}

// PlannerMode selects how DNF clauses are planned before execution.
type PlannerMode = plan.Mode

const (
	// PlannerHeuristic is the paper's fixed pipeline: rightmost closure
	// anchor, forward join. This is the default.
	PlannerHeuristic = plan.Heuristic
	// PlannerCostBased enumerates every closure anchor in both join
	// directions plus the direct-automaton bypass and picks the cheapest
	// by estimated cardinality.
	PlannerCostBased = plan.CostBased
)

// Options configure an Engine.
type Options struct {
	// Strategy selects the evaluation method. Default: RTCSharing.
	Strategy Strategy
	// Planner selects heuristic (the paper's rightmost-forward pipeline)
	// or cost-based clause planning. Default: PlannerHeuristic.
	Planner PlannerMode
	// Layout selects the executor's relation representation. Default:
	// LayoutColumnar (sealed columnar relations); LayoutMapSet is the
	// seed's map-based executor, kept for the layout ablation.
	Layout Layout
	// TCAlgo selects the transitive-closure algorithm used on the
	// (reduced) graph. Default: BFS, matching Table III.
	TCAlgo rtc.TCAlgorithm
	// UseDFA determinises query automata before graph traversal.
	UseDFA bool
	// MaxDNFClauses bounds the DNF conversion; 0 means
	// rpq.DefaultMaxClauses.
	MaxDNFClauses int
	// DisableCache turns off sharing of the closure structures across
	// batch units (the BenchmarkAblationRTCCache ablation). NoSharing
	// behaves as if it were always set (it never shares).
	DisableCache bool
	// DisableIncremental makes ApplyUpdates drop every affected cached
	// structure instead of patching it incrementally — the
	// rebuild-on-update fallback, exposed so the updates benchmark and
	// the differential suite can compare the two maintenance policies on
	// one code path.
	DisableIncremental bool
}

// Stats is the paper's timing and size accounting for a sequence of
// evaluations (Section V-A):
//
//   - SharedData: computing the shared structure — TC(Ḡ_R) (plus SCCs)
//     for RTCSharing, TC(G_R) for FullSharing. Evaluating R_G is excluded
//     (both methods do it identically; it lands in Remainder).
//   - PreJoin: the Pre_G ⋈ R+_G join — Algorithm 2 lines 4–12 for
//     RTCSharing, the vertex-pair-level join for FullSharing.
//   - Remainder: everything both methods share — DNF conversion,
//     evaluating Pre_G and R_G, the Post join, and result unions.
type Stats struct {
	SharedData time.Duration
	PreJoin    time.Duration
	Remainder  time.Duration

	// Queries is the number of top-level Evaluate calls.
	Queries int
	// CacheHits / CacheMisses count shared-structure lookups. Under
	// singleflight a goroutine that waited for another's in-flight
	// computation counts a hit: the structure was computed once.
	CacheHits, CacheMisses int
}

// Total returns the full query response time.
func (s Stats) Total() time.Duration { return s.SharedData + s.PreJoin + s.Remainder }

// Add folds other into s — the race-free aggregation step of
// EvaluateBatchParallel (each worker accumulates privately; the parent
// sums the per-worker splits after the join).
func (s *Stats) Add(other Stats) {
	s.SharedData += other.SharedData
	s.PreJoin += other.PreJoin
	s.Remainder += other.Remainder
	s.Queries += other.Queries
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
}

// SharedSummary describes one cached shared structure (one sub-query R).
type SharedSummary struct {
	// R is the canonical text of the sub-query.
	R string
	// SharedPairs is the pair count of the shared structure: |TC(Ḡ_R)|
	// for RTCSharing, |TC(G_R)| for FullSharing (Fig. 12).
	SharedPairs int
	// ReducedVertices is |V̄_R̄| for RTCSharing and |V_R| for FullSharing
	// (Fig. 13).
	ReducedVertices int
	// EdgeReducedVertices is |V_R| (both methods build G_R).
	EdgeReducedVertices int
	// AvgSCCSize is the average vertices per SCC of G_R (RTCSharing
	// only; 0 for FullSharing).
	AvgSCCSize float64
}

// engineShared is the part of an Engine that survives graph updates:
// configuration, the cache handle, and the accumulated accounting.
type engineShared struct {
	opts  Options
	cache *SharedCache

	// mu guards stats, summaries and stages.
	mu        sync.Mutex
	stats     Stats
	summaries map[string]SharedSummary

	// stages, when non-nil, receives the per-stage breakdown of the
	// evaluation running on this engine. It is only ever attached to
	// private forks (one evaluation at a time), so each timer has a
	// single writer; see StageTimer.
	stages *StageTimer

	// calib is the planner's cost recalibration state, fed by
	// ExplainAnalyze cardinality error. The pointer is shared across
	// Fork/forkVersion and survives graph updates, so observations from
	// any worker recalibrate the whole engine family.
	calib *plan.Calibration

	// cancel, when non-nil, is the cooperative-cancellation state of the
	// evaluation running on this engine. Like stages it is only ever
	// attached to private forks (one evaluation, one goroutine), so it
	// is read in the join and closure hot loops without locking; see
	// cancel.go.
	cancel *cancelState

	// evalHook, when non-nil, runs at the start of every
	// Evaluate-pipeline evaluation — the fault-injection seam the
	// panic-isolation tests use. Copied to forks; install via
	// SetEvalHook before serving starts.
	evalHook func(query string)
}

// engineVersion is everything whose lifetime is bounded by one graph
// version. An evaluation loads the engine's current version once and
// uses it end to end, so a concurrent ApplyUpdates never mixes graph
// epochs within one query. The embedded *engineShared routes timing and
// summary accounting back to the owning engine.
type engineVersion struct {
	*engineShared
	g     *graph.Graph
	epoch uint64

	// subMu guards subSets, the per-version memo of sub-query results the
	// LayoutMapSet executor uses (the seed's behaviour: map-backed pair
	// sets, engine-local, dying with the version), and subRels, the
	// columnar executor's *overflow* memo: sealed relations normally
	// memoise in the SharedCache's relation region, shared across
	// engines, but when the region's budget declines retention the
	// version keeps the relation here — bounded by the version's
	// lifetime, exactly the seed's discipline — so a full shared region
	// degrades to per-engine memoisation, never to recomputing every
	// batch unit.
	subMu   sync.Mutex
	subSets map[string]*pairs.Set
	subRels map[string]*pairs.Relation

	// scratchPool holds joinScratch values — the generation-stamped sets,
	// tuple buffers, Post memo and result row kernel of the batch-unit
	// joins — and builderPool holds relation builders sized to this
	// version's vertex space for the producers that emit out of src
	// order. Both are version-local free lists: steady-state batch
	// evaluation reuses the same columns instead of allocating per call.
	scratchPool sync.Pool
	builderPool sync.Pool

	// evalMu guards evalFree, a free list of automaton-product
	// evaluators per expression. Evaluators carry mutable traversal
	// scratch, so a running evaluation holds one exclusively and
	// returns it when done.
	evalMu   sync.Mutex
	evalFree map[string][]*eval.Evaluator

	// plannerOnce/qplanner hold the lazily built clause planner — per
	// version, so an update refreshes the planner's graph statistics.
	// The planner itself is immutable; its cached-structure callback
	// reads the (locked) SharedCache at plan time.
	plannerOnce sync.Once
	qplanner    *plan.Planner
}

// Engine evaluates regular path queries over one (updatable) graph with
// one strategy. It is safe for concurrent use; engines created with
// NewWithCache or Fork additionally share their closure structures with
// each other. ApplyUpdates mutates the graph between query batches —
// see update.go.
type Engine struct {
	engineShared

	// ver is the current graph version, swapped atomically by
	// ApplyUpdates. Readers pin it once per evaluation.
	ver atomic.Pointer[engineVersion]

	// updMu serialises ApplyUpdates; live is the mutable graph the
	// updates accumulate into, lazily forked from the frozen graph.
	updMu sync.Mutex
	live  *graph.Mutable
}

// New returns an Engine over g with a private SharedCache.
func New(g *graph.Graph, opts Options) *Engine {
	return NewWithCache(g, opts, NewSharedCache())
}

// NewWithCache returns an Engine over g that stores its shared closure
// structures in cache. Engines over the same graph with the same
// strategy may share one cache: a sub-query computed by any of them is
// reused by all, which extends the paper's intra-batch sharing across
// concurrent query streams. The cache must not be shared between
// engines with different graphs, strategies or TC algorithms — the
// cache key is the sub-query text, which does not encode those. (After
// ApplyUpdates the updated engine's epoch diverges from engines still
// on the old graph; the epoch rules keep them correct, at the price of
// no sharing between them.)
func NewWithCache(g *graph.Graph, opts Options, cache *SharedCache) *Engine {
	if cache == nil {
		cache = NewSharedCache()
	}
	e := &Engine{
		engineShared: engineShared{
			opts:      opts,
			cache:     cache,
			summaries: make(map[string]SharedSummary),
			calib:     plan.NewCalibration(),
		},
	}
	e.ver.Store(newEngineVersion(&e.engineShared, g, cache.CurrentEpoch()))
	return e
}

// newEngineVersion builds the version-scoped state for one graph epoch.
func newEngineVersion(sh *engineShared, g *graph.Graph, epoch uint64) *engineVersion {
	v := &engineVersion{
		engineShared: sh,
		g:            g,
		epoch:        epoch,
		subSets:      make(map[string]*pairs.Set),
		subRels:      make(map[string]*pairs.Relation),
		evalFree:     make(map[string][]*eval.Evaluator),
	}
	v.scratchPool.New = func() any { return &joinScratch{} }
	v.builderPool.New = func() any { return pairs.NewBuilder(g.NumVertices()) }
	return v
}

// version pins the engine's current graph version.
func (e *Engine) version() *engineVersion { return e.ver.Load() }

// Fork returns a new engine over the same graph version and options,
// sharing the receiver's SharedCache but nothing else: the fork has zero
// Stats, its own summaries, and its own evaluator free list. Forks are
// how EvaluateBatchParallel builds its workers; they are also the cheap
// way to hand each request goroutine of a server its own engine while
// keeping one process-wide cache. A fork pins the graph version current
// at fork time: updates applied to the parent afterwards do not
// propagate to it.
func (e *Engine) Fork() *Engine {
	return e.forkVersion(e.version())
}

// forkVersion is Fork pinned to an explicit version — how
// EvaluateBatchParallel gives every worker of one batch the same graph
// epoch.
func (e *Engine) forkVersion(v *engineVersion) *Engine {
	f := &Engine{
		engineShared: engineShared{
			opts:      e.opts,
			cache:     e.cache,
			summaries: make(map[string]SharedSummary),
			calib:     e.calib,
			evalHook:  e.evalHook,
		},
	}
	f.ver.Store(newEngineVersion(&f.engineShared, v.g, v.epoch))
	return f
}

// Graph returns the engine's current graph version.
func (e *Engine) Graph() *graph.Graph { return e.version().g }

// Epoch returns the graph epoch of the engine's current version.
func (e *Engine) Epoch() uint64 { return e.version().epoch }

// Options returns the engine's configuration.
func (sh *engineShared) Options() Options { return sh.opts }

// Cache returns the engine's shared-structure cache.
func (sh *engineShared) Cache() *SharedCache { return sh.cache }

// Stats returns the accumulated timing split.
func (sh *engineShared) Stats() Stats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stats
}

// ResetStats zeroes the timing split (the caches are kept; use
// ClearCaches to drop them).
func (sh *engineShared) ResetStats() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats = Stats{}
}

// ClearCaches drops all shared structures and memoised sub-results.
// Because the structures live in the SharedCache, this affects every
// engine sharing it.
func (e *Engine) ClearCaches() {
	e.cache.Reset()
	e.mu.Lock()
	e.summaries = make(map[string]SharedSummary)
	e.mu.Unlock()
	v := e.version()
	v.subMu.Lock()
	v.subSets = make(map[string]*pairs.Set)
	v.subRels = make(map[string]*pairs.Relation)
	v.subMu.Unlock()
	v.evalMu.Lock()
	v.evalFree = make(map[string][]*eval.Evaluator)
	v.evalMu.Unlock()
}

// SharedSummaries returns one summary per shared structure this engine
// has used (computed or fetched from the cache), in unspecified order.
func (sh *engineShared) SharedSummaries() []SharedSummary {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]SharedSummary, 0, len(sh.summaries))
	for _, s := range sh.summaries {
		out = append(out, s)
	}
	return out
}

// SharedPairsTotal sums SharedPairs over all cached shared structures —
// the paper's "shared data size" metric (Fig. 12).
func (sh *engineShared) SharedPairsTotal() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	total := 0
	for _, s := range sh.summaries {
		total += s.SharedPairs
	}
	return total
}

// EvaluateQuery parses and evaluates q.
func (e *Engine) EvaluateQuery(q string) (*pairs.Relation, error) {
	expr, err := rpq.Parse(q)
	if err != nil {
		return nil, err
	}
	return e.Evaluate(expr)
}

// EvaluateQueryRel is an alias of EvaluateQuery, kept for callers
// written against the earlier split Set/Relation API.
func (e *Engine) EvaluateQueryRel(q string) (*pairs.Relation, error) { return e.EvaluateQuery(q) }

// Evaluate computes Q_G for the query under the engine's strategy,
// against the graph version current when the call starts. The result is
// the executor's sealed relation itself — on a memo hit, the very
// relation the cache holds — so the public boundary costs no copy.
// LayoutMapSet engines run the map pipeline and seal its set once.
func (e *Engine) Evaluate(q rpq.Expr) (*pairs.Relation, error) {
	rel, _, err := e.EvaluateRelEpoch(q)
	return rel, err
}

// EvaluateRelEpoch is Evaluate plus the graph epoch the evaluation
// was pinned to — the single-query form of the query service's demux
// hooks: a server stamps each response with the epoch so clients can
// tell when two pages of one result straddled an update.
func (e *Engine) EvaluateRelEpoch(q rpq.Expr) (*pairs.Relation, uint64, error) {
	e.mu.Lock()
	e.stats.Queries++
	e.mu.Unlock()
	v := e.version()
	rel, err := v.evaluateRel(q)
	return rel, v.epoch, err
}

// CachedResult returns the memoised top-level result of q at the
// engine's current graph epoch, if the columnar result cache holds a
// completed one — the query service's non-blocking fast path: a hit
// answers a request instantly, without waiting for an evaluation slot.
// A miss reports false without computing anything. Non-caching
// engines (NoSharing, DisableCache) and LayoutMapSet engines always
// miss.
func (e *Engine) CachedResult(q rpq.Expr) (*pairs.Relation, uint64, bool) {
	v := e.version()
	if e.opts.Layout == LayoutMapSet || !v.shouldCache() {
		return nil, 0, false
	}
	key := q.String()
	v.subMu.Lock()
	rel, ok := v.subRels[key]
	v.subMu.Unlock()
	if !ok {
		val, found := e.cache.LookupRelation(v.epoch, key)
		if !found {
			return nil, 0, false
		}
		rel = val.(*pairs.Relation)
	}
	e.mu.Lock()
	e.stats.Queries++
	e.mu.Unlock()
	return rel, v.epoch, true
}

// QueryCost plans q against the engine's current graph version and
// returns the planner's calibrated cost estimate plus a cheapness
// classification: cheap means the estimate sits below the planner's
// deviation floor — the same threshold under which the cost-based
// planner considers alternatives interchangeable. Because the planner's
// cached-structure probe treats already-built closures as sunk cost, a
// memo-warm or structure-warm heavy query classifies cheap.
func (e *Engine) QueryCost(q rpq.Expr) (cost float64, cheap bool, err error) {
	v := e.version()
	clauses, err := rpq.ToDNFLimit(q, v.maxClauses())
	if err != nil {
		return 0, false, err
	}
	qp := v.planner().Plan(q, clauses)
	for i := range qp.Clauses {
		cost += qp.Clauses[i].Est.Cost
	}
	return cost, cost < v.planner().CheapCostBound(), nil
}

// CostCalibration returns the planner cost model's current
// recalibration factor and the number of ExplainAnalyze observations
// behind it. Factor 1 means uncalibrated (or perfectly estimated).
func (e *Engine) CostCalibration() (factor float64, samples int) {
	return e.calib.Factor(), e.calib.Samples()
}

// evaluateRel runs the Evaluate pipeline entirely against this pinned
// version.
func (v *engineVersion) evaluateRel(q rpq.Expr) (*pairs.Relation, error) {
	if v.evalHook != nil {
		v.evalHook(q.String())
	}
	if v.opts.Layout == LayoutMapSet {
		set, err := v.evaluatePlannedMap(q, nil)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		rel := pairs.RelationFromSet(v.g.NumVertices(), set)
		v.addRemainder(time.Since(t0))
		return rel, nil
	}
	return v.evaluateRelCached(q)
}

// EvaluateSet evaluates a multiple-RPQ set in order, sharing structures
// across the queries (for NoSharing, simply evaluating them one by one).
func (e *Engine) EvaluateSet(qs []rpq.Expr) ([]*pairs.Relation, error) {
	out := make([]*pairs.Relation, len(qs))
	for i, q := range qs {
		res, err := e.Evaluate(q)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// EvalBatchUnit exposes the columnar Algorithm 2 join on the engine's
// current graph version; see engineVersion.EvalBatchUnit.
func (e *Engine) EvalBatchUnit(preG *pairs.Relation, structure *rtc.RTC, typ rpq.ClosureType, post rpq.Expr) (*pairs.Relation, error) {
	return e.version().EvalBatchUnit(preG, structure, typ, post)
}

// EvalBatchUnitFull exposes FullSharing's pair-level join; see
// engineVersion.EvalBatchUnitFull.
func (e *Engine) EvalBatchUnitFull(preG *pairs.Relation, closure *tc.Closure, typ rpq.ClosureType, post rpq.Expr) (*pairs.Relation, error) {
	return e.version().EvalBatchUnitFull(preG, closure, typ, post)
}

// EvalBatchUnitBackward exposes the backward RTC join; see
// engineVersion.EvalBatchUnitBackward.
func (e *Engine) EvalBatchUnitBackward(preG *pairs.Relation, structure *rtc.RTC, typ rpq.ClosureType, postG *pairs.Relation) (*pairs.Relation, error) {
	return e.version().EvalBatchUnitBackward(preG, structure, typ, postG)
}

// EvalBatchUnitFullBackward exposes the backward full-closure join; see
// engineVersion.EvalBatchUnitFullBackward.
func (e *Engine) EvalBatchUnitFullBackward(preG *pairs.Relation, closure *tc.Closure, typ rpq.ClosureType, postG *pairs.Relation) (*pairs.Relation, error) {
	return e.version().EvalBatchUnitFullBackward(preG, closure, typ, postG)
}

// addShared, addPreJoin and addRemainder attribute elapsed time to the
// three-part split under the stats lock; when a StageTimer is attached
// they additionally attribute to the matching per-request stage
// (closure-build, join, other). addPlan and addSeal are addRemainder
// with a finer stage — planning and relation sealing still count as
// Remainder in the paper's split, but the latency breakdown keeps them
// apart.
func (sh *engineShared) addShared(d time.Duration) {
	sh.mu.Lock()
	sh.stats.SharedData += d
	if sh.stages != nil {
		sh.stages.ClosureBuildNS += d.Nanoseconds()
	}
	sh.mu.Unlock()
}

func (sh *engineShared) addPreJoin(d time.Duration) {
	sh.mu.Lock()
	sh.stats.PreJoin += d
	if sh.stages != nil {
		sh.stages.JoinNS += d.Nanoseconds()
	}
	sh.mu.Unlock()
}

func (sh *engineShared) addRemainder(d time.Duration) {
	sh.mu.Lock()
	sh.stats.Remainder += d
	if sh.stages != nil {
		sh.stages.OtherNS += d.Nanoseconds()
	}
	sh.mu.Unlock()
}

func (sh *engineShared) addPlan(d time.Duration) {
	sh.mu.Lock()
	sh.stats.Remainder += d
	if sh.stages != nil {
		sh.stages.PlanNS += d.Nanoseconds()
	}
	sh.mu.Unlock()
}

func (sh *engineShared) addSeal(d time.Duration) {
	sh.mu.Lock()
	sh.stats.Remainder += d
	if sh.stages != nil {
		sh.stages.SealNS += d.Nanoseconds()
	}
	sh.mu.Unlock()
}

// stageClosureWait attributes time spent waiting on another
// goroutine's in-flight closure computation (a singleflight hit) to
// the closure-build stage of the waiter's request — without touching
// Stats, where the computing engine already accounted the work. The
// waiter's wall clock really did pass here, so the per-request
// breakdown must see it even though the three-part split must not.
func (sh *engineShared) stageClosureWait(d time.Duration) {
	sh.mu.Lock()
	if sh.stages != nil {
		sh.stages.ClosureBuildNS += d.Nanoseconds()
	}
	sh.mu.Unlock()
}

// stageOtherWait is stageClosureWait for sub-relation memo boundaries:
// wall time a waiter spent on a relation-region singleflight (or a
// warm memo probe), attributed to Other without double-counting Stats.
func (sh *engineShared) stageOtherWait(d time.Duration) {
	sh.mu.Lock()
	if sh.stages != nil {
		sh.stages.OtherNS += d.Nanoseconds()
	}
	sh.mu.Unlock()
}

// countLookup records a shared-structure cache hit or miss plus the
// summary of the structure involved, so SharedSummaries reflects every
// structure the engine used regardless of which engine computed it.
func (sh *engineShared) countLookup(hit bool, sum SharedSummary) {
	sh.mu.Lock()
	if hit {
		sh.stats.CacheHits++
	} else {
		sh.stats.CacheMisses++
	}
	sh.summaries[sum.R] = sum
	sh.mu.Unlock()
}

// acquireEvaluator checks an automaton-product evaluator for q out of
// the free list, compiling a fresh one when none is idle. The caller
// owns it exclusively until releaseEvaluator.
func (v *engineVersion) acquireEvaluator(q rpq.Expr) (*eval.Evaluator, string) {
	key := q.String()
	v.evalMu.Lock()
	if free := v.evalFree[key]; len(free) > 0 {
		ev := free[len(free)-1]
		v.evalFree[key] = free[:len(free)-1]
		v.evalMu.Unlock()
		return ev, key
	}
	v.evalMu.Unlock()
	return eval.New(v.g, q, eval.Options{UseDFA: v.opts.UseDFA}), key
}

// releaseEvaluator returns an evaluator to the free list for reuse.
func (v *engineVersion) releaseEvaluator(key string, ev *eval.Evaluator) {
	v.evalMu.Lock()
	v.evalFree[key] = append(v.evalFree[key], ev)
	v.evalMu.Unlock()
}

func (sh *engineShared) maxClauses() int {
	if sh.opts.MaxDNFClauses > 0 {
		return sh.opts.MaxDNFClauses
	}
	return rpq.DefaultMaxClauses
}

// planner returns this version's clause planner, building it on first
// use from the version's graph statistics. The cached-structure probe
// makes sunk closure costs visible to the cost model, so a warm cache
// biases the planner toward anchors whose structures already exist.
func (v *engineVersion) planner() *plan.Planner {
	v.plannerOnce.Do(func() {
		v.qplanner = plan.New(v.g, plan.Config{
			Mode:          v.opts.Planner,
			SharedCached:  v.sharedStructureCached,
			ColumnarJoins: v.opts.Layout == LayoutColumnar,
			Calibration:   v.calib,
		})
	})
	return v.qplanner
}

// sharedStructureCached reports whether the shared closure structure for
// r is already in the cache — at this version's epoch — under the
// engine's strategy. Non-caching engines (NoSharing, DisableCache)
// never have sunk structures.
func (v *engineVersion) sharedStructureCached(r rpq.Expr) bool {
	if !v.shouldCache() {
		return false
	}
	key := r.String()
	switch v.opts.Strategy {
	case RTCSharing:
		_, ok := v.cache.Lookup(v.epoch, nsRTC+key)
		return ok
	default:
		_, ok := v.cache.Lookup(v.epoch, nsFull+key)
		return ok
	}
}
