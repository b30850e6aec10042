package core

import (
	"context"
	"sync/atomic"
	"testing"

	"rtcshare/internal/datagen"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/tc"
)

// routeAllHook scatters every structure and sub-relation request to one
// owning engine — the smallest possible cluster, enough to drive the
// coordinator-side probes and the shard-side entry points from inside
// the package (internal/shard exercises the real partitioned router).
type routeAllHook struct {
	owner   *Engine
	decline atomic.Bool

	rtcN, fullN, relN, probeN atomic.Int64
}

func (h *routeAllHook) RTC(ctx context.Context, epoch uint64, r rpq.Expr) (*rtc.RTC, SharedSummary, bool, bool, error) {
	h.rtcN.Add(1)
	if h.decline.Load() {
		return nil, SharedSummary{}, false, false, nil
	}
	return h.owner.ScatterRTC(ctx, epoch, r)
}

func (h *routeAllHook) FullClosure(ctx context.Context, epoch uint64, r rpq.Expr) (*tc.Closure, SharedSummary, bool, bool, error) {
	h.fullN.Add(1)
	if h.decline.Load() {
		return nil, SharedSummary{}, false, false, nil
	}
	return h.owner.ScatterFullClosure(ctx, epoch, r)
}

func (h *routeAllHook) SubRelation(ctx context.Context, epoch uint64, q rpq.Expr) (*pairs.Relation, bool, error) {
	h.relN.Add(1)
	if h.decline.Load() {
		return nil, false, nil
	}
	return h.owner.ScatterSubRelation(ctx, epoch, q)
}

func (h *routeAllHook) StructureCached(epoch uint64, r rpq.Expr) bool {
	h.probeN.Add(1)
	if h.decline.Load() {
		return false
	}
	return h.owner.ScatterStructureCached(epoch, r)
}

var scatterQueries = []string{
	"l0.l2+", "l2+.l1", "(l0.l2)+", "l2*.l0", "l0.(l2)+.l1",
}

func scatterGraph(t *testing.T) *datagen.RMATConfig {
	t.Helper()
	return &datagen.RMATConfig{Vertices: 64, Edges: 256, Labels: 3, Seed: 11}
}

// mustMatch asserts the coordinator's sealed result equals the plain
// engine's, pair for pair.
func mustMatch(t *testing.T, q string, got, want *pairs.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: scattered %d pairs, plain %d", q, got.Len(), want.Len())
	}
	gs, ws := got.Sorted(), want.Sorted()
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("%s: scattered pair %d = %v, plain %v", q, i, gs[i], ws[i])
		}
	}
}

// TestScatterSeamRoutesAndMatches installs a route-everything hook and
// checks the coordinator's answers stay pair-for-pair identical to an
// unhooked engine while the structure and sub-relation work actually
// travels through the seam.
func TestScatterSeamRoutesAndMatches(t *testing.T) {
	g, err := datagen.RMAT(*scatterGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	plain := New(g, Options{})
	owner := New(g, Options{})
	coord := New(g, Options{Planner: PlannerCostBased})
	h := &routeAllHook{owner: owner}
	coord.SetScatterHook(h)

	for _, qs := range scatterQueries {
		q := rpq.MustParse(qs)
		want, err := plain.Evaluate(q)
		if err != nil {
			t.Fatalf("plain %s: %v", qs, err)
		}
		// One query rides a real context so the scatter probes carry a
		// cancellable ctx across the seam; the rest go uncancellable.
		var got *pairs.Relation
		if qs == scatterQueries[0] {
			got, _, err = coord.EvaluateRelTimedCtx(context.Background(), q, nil)
		} else {
			got, err = coord.Evaluate(q)
		}
		if err != nil {
			t.Fatalf("scattered %s: %v", qs, err)
		}
		mustMatch(t, qs, got, want)
	}
	if h.rtcN.Load() == 0 || h.relN.Load() == 0 {
		t.Fatalf("seam saw no traffic: rtc=%d rel=%d", h.rtcN.Load(), h.relN.Load())
	}

	// The sunk-cost probe: planning consults the hook, and the owning
	// engine reports the structures the evaluations above warmed.
	if _, _, err := coord.QueryCost(rpq.MustParse("l0.l2+")); err != nil {
		t.Fatalf("QueryCost over the seam: %v", err)
	}
	if h.probeN.Load() == 0 {
		t.Fatal("cost-based planning never consulted StructureCached")
	}
	if !owner.ScatterStructureCached(owner.Epoch(), rpq.MustParse("l2")) {
		t.Error("owner does not report the warmed structure for l2 as sunk")
	}
	if owner.ScatterStructureCached(owner.Epoch()+1, rpq.MustParse("l2")) {
		t.Error("a mismatched epoch must read as not-cached")
	}
}

// TestScatterSeamFullSharing drives the FullClosure leg of the seam.
func TestScatterSeamFullSharing(t *testing.T) {
	g, err := datagen.RMAT(*scatterGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Strategy: FullSharing}
	plain := New(g, opts)
	owner := New(g, opts)
	coord := New(g, opts)
	h := &routeAllHook{owner: owner}
	coord.SetScatterHook(h)

	for _, qs := range scatterQueries {
		q := rpq.MustParse(qs)
		want, err := plain.Evaluate(q)
		if err != nil {
			t.Fatalf("plain %s: %v", qs, err)
		}
		got, err := coord.Evaluate(q)
		if err != nil {
			t.Fatalf("scattered %s: %v", qs, err)
		}
		mustMatch(t, qs, got, want)
	}
	if h.fullN.Load() == 0 {
		t.Fatal("FullSharing coordinator never scattered a full closure")
	}
}

// TestScatterDeclineFallsBackLocal covers the graceful-degradation
// path: a hook that declines everything (the barrier raced) must leave
// the coordinator correct via local computation, and the shard-side
// entry points must decline on their own epoch and cache guards.
func TestScatterDeclineFallsBackLocal(t *testing.T) {
	g, err := datagen.RMAT(*scatterGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	plain := New(g, Options{})
	owner := New(g, Options{})
	coord := New(g, Options{})
	h := &routeAllHook{owner: owner}
	h.decline.Store(true)
	coord.SetScatterHook(h)

	for _, qs := range scatterQueries {
		q := rpq.MustParse(qs)
		want, err := plain.Evaluate(q)
		if err != nil {
			t.Fatalf("plain %s: %v", qs, err)
		}
		got, err := coord.Evaluate(q)
		if err != nil {
			t.Fatalf("declined %s: %v", qs, err)
		}
		mustMatch(t, qs, got, want)
	}
	if h.rtcN.Load() == 0 {
		t.Fatal("declining hook was never probed")
	}

	// Shard-side epoch guard: an owner whose epoch ran ahead declines
	// instead of serving a structure from the wrong graph.
	ups := []GraphUpdate{InsertEdge(0, "l2", 1), InsertEdge(1, "l2", 2), InsertEdge(2, "l2", 3)}
	if _, err := owner.ApplyUpdates(ups); err != nil {
		t.Fatal(err)
	}
	if owner.Epoch() == 0 {
		t.Fatal("update batch was not effective; the epoch never advanced")
	}
	r := rpq.MustParse("l2")
	if _, _, _, ok, err := owner.ScatterRTC(nil, 0, r); ok || err != nil {
		t.Fatalf("ScatterRTC at a stale epoch: ok=%v err=%v, want decline", ok, err)
	}
	if _, _, _, ok, err := owner.ScatterFullClosure(nil, 0, r); ok || err != nil {
		t.Fatalf("ScatterFullClosure at a stale epoch: ok=%v err=%v, want decline", ok, err)
	}
	if _, ok, err := owner.ScatterSubRelation(nil, 0, r); ok || err != nil {
		t.Fatalf("ScatterSubRelation at a stale epoch: ok=%v err=%v, want decline", ok, err)
	}

	// Cache guard: a non-caching engine has nothing shareable to serve.
	noCache := New(g, Options{DisableCache: true})
	if _, _, _, ok, err := noCache.ScatterRTC(nil, 0, r); ok || err != nil {
		t.Fatalf("ScatterRTC on a non-caching engine: ok=%v err=%v, want decline", ok, err)
	}
}
