package shard

import (
	"testing"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/rpq"
)

// TestClusterSurface pins the cluster's engine-shaped accessor surface:
// the pieces the server and the benchmarks consume beyond the batch
// entry point — fast path, planning, explain, stats folding, forks.
func TestClusterSurface(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 64, Edges: 256, Labels: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cluster := New(g, Options{Shards: 2, Engine: core.Options{Planner: core.PlannerCostBased}})
	if n := cluster.NumShards(); n != 2 {
		t.Fatalf("NumShards = %d, want 2", n)
	}
	if cluster.Coordinator() == nil || cluster.Cache() == nil {
		t.Fatal("coordinator or its cache missing")
	}
	if e := cluster.Epoch(); e != 0 {
		t.Fatalf("fresh cluster epoch = %d, want 0", e)
	}
	if opts := cluster.Options(); opts.Planner != core.PlannerCostBased {
		t.Fatalf("Options lost the engine configuration: %+v", opts)
	}

	q := rpq.MustParse("l0.l2+")
	rel, err := cluster.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}

	// The non-blocking fast path answers from the coordinator-local
	// top-level memo at the epoch the evaluation pinned.
	cached, epoch, ok := cluster.CachedResult(q)
	if !ok || epoch != 0 {
		t.Fatalf("CachedResult after evaluation: ok=%v epoch=%d", ok, epoch)
	}
	if !relEqual(cached, rel) {
		t.Fatal("CachedResult differs from the evaluation that populated it")
	}

	// Admission classification plans without the barrier; the sunk-cost
	// probe rides the scatter seam to the owning shards.
	if _, _, err := cluster.QueryCost(q); err != nil {
		t.Fatalf("QueryCost: %v", err)
	}

	// Stats folds the coordinator's split with every shard's.
	if s := cluster.Stats(); s.Queries < 1 {
		t.Fatalf("folded Stats.Queries = %d after an evaluation", s.Queries)
	}
	if factor, samples := cluster.CostCalibration(); factor <= 0 || samples < 0 {
		t.Fatalf("CostCalibration = %v, %d", factor, samples)
	}

	if p, err := cluster.ExplainQuery("l0.l2+"); err != nil || p == nil {
		t.Fatalf("ExplainQuery: plan=%v err=%v", p, err)
	}
	if p, err := cluster.ExplainAnalyzeQuery("l0.l2+"); err != nil || p == nil {
		t.Fatalf("ExplainAnalyzeQuery: plan=%v err=%v", p, err)
	}

	// A fork carries the scatter hook and answers identically outside
	// the barrier (the coalescer's error-fallback path).
	frel, err := cluster.Fork().Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !relEqual(frel, rel) {
		t.Fatal("fork result differs from the cluster's")
	}
}
