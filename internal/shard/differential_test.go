package shard

import (
	"math/rand"
	"testing"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
)

// TestHashPartitioner: the default partitioner is deterministic, stays
// in range, degenerates to shard 0 for trivial clusters, and actually
// spreads distinct label sets across a 4-shard cluster.
func TestHashPartitioner(t *testing.T) {
	p := HashPartitioner{}
	labels := [][]string{
		nil, {"a"}, {"b"}, {"a", "b"}, {"a", "c"}, {"b", "c"}, {"l0"},
		{"l1"}, {"l2"}, {"l0", "l1"}, {"l0", "l2"}, {"l1", "l2"}, {"l0", "l1", "l2"},
	}
	for _, ls := range labels {
		if got := p.Shard(ls, 1); got != 0 {
			t.Fatalf("Shard(%v, 1) = %d, want 0", ls, got)
		}
		if got := p.Shard(ls, 0); got != 0 {
			t.Fatalf("Shard(%v, 0) = %d, want 0", ls, got)
		}
		for _, n := range []int{2, 4, 7} {
			a, b := p.Shard(ls, n), p.Shard(ls, n)
			if a != b {
				t.Fatalf("Shard(%v, %d) not deterministic: %d vs %d", ls, n, a, b)
			}
			if a < 0 || a >= n {
				t.Fatalf("Shard(%v, %d) = %d out of range", ls, n, a)
			}
		}
	}
	hit := make(map[int]bool)
	for _, ls := range labels {
		hit[p.Shard(ls, 4)] = true
	}
	if len(hit) < 3 {
		t.Fatalf("13 distinct label sets landed on only %d of 4 shards: %v", len(hit), hit)
	}
}

// relEqual compares two sealed relations pair for pair.
func relEqual(a, b *pairs.Relation) bool {
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

// TestClusterDifferentialUpdates extends the engine differential oracle
// over shard counts: on a random RMAT graph walking a shared random
// insert/delete script, a cluster at 1, 2 and 4 shards must return,
// pair for pair, what a long-lived single engine (incremental path) and
// a fresh single engine rebuilt over the updated graph return — crossed
// over layouts, closure algorithms, planners, strategies and the
// rebuild-on-update policy. The cross-epoch tripwire must stay zero on
// every engine of every cluster.
func TestClusterDifferentialUpdates(t *testing.T) {
	configs := []core.Options{
		{}, // columnar, BFS closure, heuristic planner
		{Layout: core.LayoutMapSet},
		{TCAlgo: rtc.BitsetClosure},
		{Planner: core.PlannerCostBased, TCAlgo: rtc.PurdomClosure},
		{Strategy: core.FullSharing},
		{DisableIncremental: true},
	}
	queries := []rpq.Expr{
		rpq.MustParse("l0+"),
		rpq.MustParse("l0+.l1"),
		rpq.MustParse("l1.l0*.l2?"),
		rpq.MustParse("(l0.l1)+"),
		rpq.MustParse("l2|^l0+"),
	}

	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 56, Edges: 168, Labels: 3, Seed: 310})
	if err != nil {
		t.Fatal(err)
	}

	// One shared script so every (config, shard count) cell sees the same
	// insert/delete sequence, deletes drawn from existing edges when
	// possible.
	rng := rand.New(rand.NewSource(410))
	labels := []string{"l0", "l1", "l2"}
	var script [][]core.GraphUpdate
	for b := 0; b < 4; b++ {
		var batch []core.GraphUpdate
		for i := 0; i < 6; i++ {
			src, dst := graph.VID(rng.Intn(56)), graph.VID(rng.Intn(56))
			label := labels[rng.Intn(len(labels))]
			if rng.Intn(5) == 0 {
				if lid, ok := g.Dict().Lookup(label); ok {
					if succs := g.Successors(src, lid); len(succs) > 0 {
						dst = succs[rng.Intn(len(succs))]
					}
				}
				batch = append(batch, core.DeleteEdge(src, label, dst))
				continue
			}
			batch = append(batch, core.InsertEdge(src, label, dst))
		}
		script = append(script, batch)
	}

	for _, opts := range configs {
		for _, shards := range []int{1, 2, 4} {
			cluster := New(g, Options{Shards: shards, Engine: opts})
			single := core.New(g, opts)
			// Warm both sides so the update fan-out has structures to
			// carry, patch and drop on every engine.
			for _, q := range queries {
				if _, err := cluster.Evaluate(q); err != nil {
					t.Fatalf("%+v shards=%d: warmup %q: %v", opts, shards, q, err)
				}
				if _, err := single.Evaluate(q); err != nil {
					t.Fatalf("%+v: single warmup %q: %v", opts, q, err)
				}
			}
			for b, batch := range script {
				if _, err := cluster.ApplyUpdates(batch); err != nil {
					t.Fatalf("%+v shards=%d batch %d: cluster: %v", opts, shards, b, err)
				}
				if _, err := single.ApplyUpdates(batch); err != nil {
					t.Fatalf("%+v batch %d: single: %v", opts, b, err)
				}
				rebuilt := core.New(cluster.Graph(), opts)
				for _, q := range queries {
					got, err := cluster.Evaluate(q)
					if err != nil {
						t.Fatalf("%+v shards=%d batch %d: cluster %q: %v", opts, shards, b, q, err)
					}
					inc, err := single.Evaluate(q)
					if err != nil {
						t.Fatalf("%+v batch %d: single %q: %v", opts, b, q, err)
					}
					fresh, err := rebuilt.Evaluate(q)
					if err != nil {
						t.Fatalf("%+v batch %d: rebuilt %q: %v", opts, b, q, err)
					}
					if !relEqual(got, inc) {
						t.Errorf("%+v shards=%d batch %d: %q: cluster %d pairs, incremental single %d",
							opts, shards, b, q, got.Len(), inc.Len())
					}
					if !relEqual(got, fresh) {
						t.Errorf("%+v shards=%d batch %d: %q: cluster %d pairs, rebuilt single %d",
							opts, shards, b, q, got.Len(), fresh.Len())
					}
				}
				want := cluster.coord.Epoch()
				for i, sh := range cluster.shards {
					if got := sh.Epoch(); got != want {
						t.Fatalf("%+v shards=%d batch %d: shard %d epoch %d, coordinator %d",
							opts, shards, b, i, got, want)
					}
				}
			}
			if xe := cluster.CrossEpochHits(); xe != 0 {
				t.Errorf("%+v shards=%d: CrossEpochHits = %d, want 0", opts, shards, xe)
			}
		}
	}
}

// TestClusterBatchMatchesSingle: the batch-parallel entry point — the
// surface the server's coalescer drives — agrees with a single engine
// query for query, and the scatter counters show structure work was
// actually routed to the shards.
func TestClusterBatchMatchesSingle(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 64, Edges: 256, Labels: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	queries := []rpq.Expr{
		rpq.MustParse("l0+"), rpq.MustParse("l1+"), rpq.MustParse("l2+.l3"),
		rpq.MustParse("l3.(l0.l1)+"), rpq.MustParse("l2*"),
	}
	single := core.New(g, core.Options{})
	cluster := New(g, Options{Shards: 4})
	rels, _, err := cluster.EvaluateBatchParallelRelCtx(nil, queries, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := single.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		if !relEqual(rels[i], want) {
			t.Errorf("%q: cluster %d pairs, single %d", q, rels[i].Len(), want.Len())
		}
	}
	var scattered int64
	for _, ss := range cluster.ShardStats() {
		scattered += ss.RTCRequests + ss.ClosureRequests + ss.RelationRequests
		if ss.Declined != 0 {
			t.Errorf("shard %d declined %d requests under the barrier, want 0", ss.Shard, ss.Declined)
		}
	}
	if scattered == 0 {
		t.Error("no scatter traffic reached any shard; the hook is not wired")
	}
}
