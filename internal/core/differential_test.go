package core

import (
	"math/rand"
	"testing"

	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/workload"
)

// pairsSet aliases the reference oracle's mutable set type; the
// identifier "pairs" is taken by the package.
type pairsSet = pairs.Set

// This file is the end-to-end differential property test: the paper's
// correctness claim is that RTCSharing, FullSharing and NoSharing all
// compute the same Q_G (Theorems 1 and 2), so on random graphs ×
// random workloads every strategy — serial, batch-parallel, and the
// single shared engine — must agree pairwise with the compositional
// reference evaluator, which knows nothing about automata, DNF,
// reductions or caches.

// differentialCase is one random graph × workload combination.
type differentialCase struct {
	graphSeed, workSeed int64
	vertices, edges     int
	labels              int
}

// differentialCases enumerates ≥ 20 combinations, varying density and
// alphabet so the closure sub-queries range from near-empty to
// SCC-heavy.
func differentialCases() []differentialCase {
	var cases []differentialCase
	for i := int64(0); i < 7; i++ {
		for j := int64(0); j < 3; j++ {
			cases = append(cases, differentialCase{
				graphSeed: 100 + i,
				workSeed:  200 + 7*j + i,
				vertices:  48 + 16*int(i%3),
				edges:     (48 + 16*int(i%3)) * (2 + int(j)),
				labels:    3 + int(i%2),
			})
		}
	}
	return cases
}

func (c differentialCase) graph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := datagen.RMAT(datagen.RMATConfig{
		Vertices: c.vertices,
		Edges:    c.edges,
		Labels:   c.labels,
		Seed:     c.graphSeed,
	})
	if err != nil {
		t.Fatalf("RMAT: %v", err)
	}
	return g
}

// queries draws the workload: the paper's Pre·R+·Post batch units plus a
// few unconstrained random expressions so the test also covers
// alternation-heavy DNFs, stars, optionals and inverse labels.
func (c differentialCase) queries(t *testing.T, dict *graph.Dict) []rpq.Expr {
	t.Helper()
	wcfg := workload.DefaultConfig(2, c.workSeed)
	wcfg.MaxRPQs = 3
	sets, err := workload.Generate(dict, wcfg)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	var qs []rpq.Expr
	for _, s := range sets {
		qs = append(qs, s.Queries...)
	}
	rng := rand.New(rand.NewSource(c.workSeed))
	labels := dict.Names()
	for i := 0; i < 4; i++ {
		qs = append(qs, rpq.RandomExpr(rng, labels, 3))
	}
	return qs
}

// TestDifferentialUpdates is the update-oracle differential test:
// random insert/delete sequences on RMAT graphs, and after every batch
// the long-lived engine (incremental path: epoch-carried and patched
// structures) must agree with a fresh engine rebuilt from scratch over
// the updated graph AND with the compositional reference evaluator —
// crossed over layouts, closure algorithms, planners, strategies and
// the incremental/rebuild maintenance policies.
func TestDifferentialUpdates(t *testing.T) {
	configs := []Options{
		{}, // columnar, BFS closure, heuristic planner
		{Layout: LayoutMapSet},
		{TCAlgo: rtc.BitsetClosure},
		{Layout: LayoutMapSet, TCAlgo: rtc.NuutilaClosure},
		{Planner: PlannerCostBased, TCAlgo: rtc.PurdomClosure},
		{Strategy: FullSharing},
		{DisableIncremental: true}, // rebuild-on-update fallback policy
	}
	// The queries keep single-label closure bodies in play (the patched
	// path) next to multi-label bodies and closure-free clauses (the
	// carry/drop paths).
	queries := []rpq.Expr{
		rpq.MustParse("l0+"),
		rpq.MustParse("l0+.l1"),
		rpq.MustParse("l1.l0*.l2?"),
		rpq.MustParse("(l0.l1)+"),
		rpq.MustParse("l2|^l0+"),
	}

	for caseSeed := int64(0); caseSeed < 3; caseSeed++ {
		g, err := datagen.RMAT(datagen.RMATConfig{
			Vertices: 56,
			Edges:    168,
			Labels:   3,
			Seed:     300 + caseSeed,
		})
		if err != nil {
			t.Fatal(err)
		}

		// One shared update script per case, so every config sees the
		// same insert/delete sequence: ~1/5 deletes of existing edges,
		// the rest random inserts (duplicates included on purpose).
		rng := rand.New(rand.NewSource(400 + caseSeed))
		labels := []string{"l0", "l1", "l2"}
		var script [][]GraphUpdate
		for b := 0; b < 5; b++ {
			var batch []GraphUpdate
			for i := 0; i < 6; i++ {
				src, dst := graph.VID(rng.Intn(56)), graph.VID(rng.Intn(56))
				label := labels[rng.Intn(len(labels))]
				if rng.Intn(5) == 0 {
					// Delete something that exists when possible: walk to a
					// random existing edge of the label.
					if lid, ok := g.Dict().Lookup(label); ok {
						if succs := g.Successors(src, lid); len(succs) > 0 {
							dst = succs[rng.Intn(len(succs))]
						}
					}
					batch = append(batch, DeleteEdge(src, label, dst))
					continue
				}
				batch = append(batch, InsertEdge(src, label, dst))
			}
			script = append(script, batch)
		}

		for _, opts := range configs {
			engine := New(g, opts)
			// Warm the caches so the migration has structures to carry,
			// patch and drop.
			for _, q := range queries {
				if _, err := engine.Evaluate(q); err != nil {
					t.Fatalf("seed %d %+v: warmup %q: %v", caseSeed, opts, q, err)
				}
			}
			for b, batch := range script {
				if _, err := engine.ApplyUpdates(batch); err != nil {
					t.Fatalf("seed %d %+v batch %d: %v", caseSeed, opts, b, err)
				}
				rebuilt := New(engine.Graph(), opts)
				for _, q := range queries {
					got, err := engine.Evaluate(q)
					if err != nil {
						t.Fatalf("seed %d %+v batch %d: incremental %q: %v", caseSeed, opts, b, q, err)
					}
					fresh, err := rebuilt.Evaluate(q)
					if err != nil {
						t.Fatalf("seed %d %+v batch %d: rebuilt %q: %v", caseSeed, opts, b, q, err)
					}
					want := eval.Reference(engine.Graph(), q)
					if !got.EqualSet(want) {
						t.Errorf("seed %d %+v batch %d: %q: incremental %d pairs, reference %d",
							caseSeed, opts, b, q, got.Len(), want.Len())
					}
					if !fresh.EqualSet(want) {
						t.Errorf("seed %d %+v batch %d: %q: rebuilt %d pairs, reference %d",
							caseSeed, opts, b, q, fresh.Len(), want.Len())
					}
				}
			}
			if cc := engine.Cache().Counters(); cc.CrossEpochHits != 0 {
				t.Errorf("seed %d %+v: CrossEpochHits = %d", caseSeed, opts, cc.CrossEpochHits)
			}
		}
	}
}

func TestDifferentialStrategiesMatchReference(t *testing.T) {
	cases := differentialCases()
	if len(cases) < 20 {
		t.Fatalf("only %d graph/workload combinations, want ≥ 20", len(cases))
	}
	planners := []PlannerMode{PlannerHeuristic, PlannerCostBased}
	for _, c := range cases {
		g := c.graph(t)
		qs := c.queries(t, g.Dict())

		// The oracle, computed once per query.
		want := make([]*pairsSet, len(qs))
		for i, q := range qs {
			want[i] = eval.Reference(g, q)
		}

		// Every strategy × planner combination must agree with the
		// oracle: the cost-based planner may pick different anchors,
		// backward joins or automaton bypasses, but never different
		// results.
		for _, strategy := range strategies() {
			for _, planner := range planners {
				engine := New(g, Options{Strategy: strategy, Planner: planner})
				for i, q := range qs {
					got, err := engine.Evaluate(q)
					if err != nil {
						t.Fatalf("seed %d/%d %v/%v: evaluate %q: %v", c.graphSeed, c.workSeed, strategy, planner, q, err)
					}
					if !got.EqualSet(want[i]) {
						t.Errorf("seed %d/%d %v/%v: %q: engine %d pairs, reference %d pairs",
							c.graphSeed, c.workSeed, strategy, planner, q, got.Len(), want[i].Len())
					}
				}
			}
		}

		// The data plane must never change answers: the seed's map-set
		// executor, the bitset closure hybrid and their combination all
		// run the same oracle. (The columnar default is already covered
		// above.)
		for _, opts := range []Options{
			{Layout: LayoutMapSet},
			{TCAlgo: rtc.BitsetClosure},
			{Layout: LayoutMapSet, TCAlgo: rtc.BitsetClosure},
			{Strategy: FullSharing, Layout: LayoutMapSet},
		} {
			engine := New(g, opts)
			for i, q := range qs {
				got, err := engine.Evaluate(q)
				if err != nil {
					t.Fatalf("seed %d/%d %+v: evaluate %q: %v", c.graphSeed, c.workSeed, opts, q, err)
				}
				if !got.EqualSet(want[i]) {
					t.Errorf("seed %d/%d %+v: %q: engine %d pairs, reference %d pairs",
						c.graphSeed, c.workSeed, opts, q, got.Len(), want[i].Len())
				}
			}
		}
		// The parallel path must agree with the same oracle under both
		// planners.
		for _, planner := range planners {
			engine := New(g, Options{Planner: planner})
			got, err := engine.EvaluateBatchParallel(qs, 4)
			if err != nil {
				t.Fatalf("seed %d/%d parallel/%v: %v", c.graphSeed, c.workSeed, planner, err)
			}
			for i := range qs {
				if !got[i].EqualSet(want[i]) {
					t.Errorf("seed %d/%d parallel/%v: %q: got %d pairs, reference %d pairs",
						c.graphSeed, c.workSeed, planner, qs[i], got[i].Len(), want[i].Len())
				}
			}
		}
	}
}
