package core

import (
	"math/rand"
	"testing"

	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/pairs"
	"rtcshare/internal/plan"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/tc"
)

// The backward joins must produce exactly the forward joins' results on
// every batch unit: same Pre, R, Type, Post — only the drive direction
// differs. This exercises EvalBatchUnitBackward/EvalBatchUnitFullBackward
// directly, independent of whether the cost-based planner happens to
// pick them. The later draws have 65–300 vertices, so the result rows —
// forward ones keyed by v_i, backward ones keyed by v_l and transposed
// at seal — span more than one 64-bit word of the row kernel's bitmap.
func TestBackwardJoinMatchesForward(t *testing.T) {
	labels := []string{"a", "b", "c"}
	for seed := int64(0); seed < 37; seed++ {
		rng := rand.New(rand.NewSource(600 + seed))
		n, m := 10+rng.Intn(40), 20+rng.Intn(120)
		if seed >= 25 {
			n = 65 + rng.Intn(236)
			m = 2*n + rng.Intn(4*n)
		}
		g := fixtures.RandomGraph(rng, n, m, labels)
		e := New(g, Options{})

		units := []rpq.BatchUnit{
			{Pre: rpq.MustParse("a"), R: rpq.MustParse("b"), Type: rpq.ClosurePlus, Post: rpq.MustParse("c")},
			{Pre: rpq.MustParse("a"), R: rpq.MustParse("b.c"), Type: rpq.ClosureStar, Post: rpq.MustParse("a")},
			{Pre: rpq.Epsilon{}, R: rpq.MustParse("a"), Type: rpq.ClosurePlus, Post: rpq.Epsilon{}},
			{Pre: rpq.MustParse("a.b"), R: rpq.MustParse("c"), Type: rpq.ClosureStar, Post: rpq.Epsilon{}},
			{Pre: rpq.Epsilon{}, R: rpq.MustParse("b"), Type: rpq.ClosurePlus, Post: rpq.MustParse("a.c")},
		}
		for _, bu := range units {
			preG := pairs.RelationFromSet(g.NumVertices(), eval.Evaluate(g, bu.Pre))
			postG := pairs.RelationFromSet(g.NumVertices(), eval.Evaluate(g, bu.Post))
			rg := eval.Evaluate(g, bu.R)
			structure := rtc.ComputeFromResult(g.NumVertices(), rg, rtc.BFSClosure)
			closure := tc.BFS(rtc.EdgeReduce(g.NumVertices(), rg))

			fwd, err := e.EvalBatchUnit(preG, structure, bu.Type, bu.Post)
			if err != nil {
				t.Fatal(err)
			}
			bwd, err := e.EvalBatchUnitBackward(preG, structure, bu.Type, postG)
			if err != nil {
				t.Fatal(err)
			}
			if !bwd.Equal(fwd) {
				t.Errorf("seed %d %v: RTC backward %d pairs, forward %d pairs", seed, bu, bwd.Len(), fwd.Len())
			}

			fullFwd, err := e.EvalBatchUnitFull(preG, closure, bu.Type, bu.Post)
			if err != nil {
				t.Fatal(err)
			}
			fullBwd, err := e.EvalBatchUnitFullBackward(preG, closure, bu.Type, postG)
			if err != nil {
				t.Fatal(err)
			}
			if !fullBwd.Equal(fullFwd) {
				t.Errorf("seed %d %v: full backward %d pairs, forward %d pairs", seed, bu, fullBwd.Len(), fullFwd.Len())
			}
			if !fwd.Equal(fullFwd) {
				t.Errorf("seed %d %v: RTC and full joins disagree", seed, bu)
			}
		}
	}
}

// A backward-planned engine evaluation must agree with the reference on
// a workload where the planner genuinely picks backward: the paper-scale
// RMAT_3 graph with a three-label Post chain (the selpost shape of the
// planner benchmark).
func TestBackwardPlanEndToEnd(t *testing.T) {
	g, err := datagen.PaperRMATN(3, 9, 2025)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, Options{Planner: PlannerCostBased})

	q := rpq.MustParse("l3.l0+.l3.l3.l3")
	pl, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Clauses[0].Direction != plan.Backward.String() {
		t.Fatalf("planner chose %s/%s; the skewed fixture should force backward",
			pl.Clauses[0].Kind, pl.Clauses[0].Direction)
	}
	got, err := e.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := eval.Reference(g, q); !got.EqualSet(want) {
		t.Fatalf("backward plan: %d pairs, reference %d pairs", got.Len(), want.Len())
	}
}
