package core

import (
	"testing"

	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/workload"
)

// joinPostCase is one batch unit's Post join staged in isolation: the
// engine version to run it on, the ResEq9 tuples the Pre·R+ half
// produced (grouped by ascending start vertex, as EvalBatchUnit leaves
// them), and the Post expression that extends them.
type joinPostCase struct {
	v      *engineVersion
	resEq9 []pairs.Pair
	post   rpq.Expr
}

// stageJoinPost evaluates bu's Pre·R{+,*} half on g once and keeps its
// tuples, so the benchmark loop times joinPost alone.
func stageJoinPost(tb testing.TB, g *graph.Graph, bu rpq.BatchUnit) joinPostCase {
	tb.Helper()
	v := New(g, Options{}).version()
	n := g.NumVertices()
	preG := pairs.RelationFromSet(n, eval.Evaluate(g, bu.Pre))
	structure := rtc.ComputeFromResult(n, eval.Evaluate(g, bu.R), rtc.BFSClosure)
	mid, err := v.EvalBatchUnit(preG, structure, bu.Type, rpq.Epsilon{})
	if err != nil {
		tb.Fatal(err)
	}
	return joinPostCase{v: v, resEq9: mid.Sorted(), post: bu.Post}
}

func (c joinPostCase) run(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	pairsOut := 0
	for i := 0; i < b.N; i++ {
		sc := c.v.acquireScratch()
		sc.resEq9 = append(sc.resEq9[:0], c.resEq9...)
		rel, err := c.v.joinPost(sc, c.post)
		if err != nil {
			b.Fatal(err)
		}
		pairsOut = rel.Len()
	}
	b.ReportMetric(float64(len(c.resEq9)), "rows_in")
	b.ReportMetric(float64(pairsOut), "pairs_out")
}

// BenchmarkJoinPost times equations (9)→(10), Algorithm 2 lines 13–16,
// on its own:
//
//   - dense: the first Pre·R+·Post query of the paper-sets workload's
//     first set (RMAT_3 at 2^10 vertices, seed 1), whose rows are long
//     and packed, so the row kernel emits them by scanning the bitmap;
//   - sparse: chains spread over 2^18 vertices whose Post edges land far
//     apart, so each row's few members span thousands of bitmap words
//     and the kernel sorts them instead.
func BenchmarkJoinPost(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		g, err := datagen.PaperRMATN(3, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		sets, err := workload.Generate(g.Dict(), workload.DefaultConfig(1, 1))
		if err != nil {
			b.Fatal(err)
		}
		bu := rpq.Decompose(sets[0].Queries[0])
		stageJoinPost(b, g, bu).run(b)
	})
	b.Run("sparse", func(b *testing.B) {
		const (
			n      = 1 << 18
			chains = 2048
			length = 8
		)
		gb := graph.NewBuilder(n)
		stride := graph.VID(n / chains)
		for i := graph.VID(0); i < chains; i++ {
			s := i * stride
			gb.MustAddEdge(s, "a", s+1)
			for j := graph.VID(1); j <= length; j++ {
				if j < length {
					gb.MustAddEdge(s+j, "b", s+j+1)
				}
				// A multiplicative hash scatters the Post ends over the
				// whole vertex space.
				gb.MustAddEdge(s+j, "c", graph.VID(uint32(s+j)*2654435761%n))
			}
		}
		bu := rpq.BatchUnit{Pre: rpq.MustParse("a"), R: rpq.MustParse("b"), Type: rpq.ClosureStar, Post: rpq.MustParse("c")}
		stageJoinPost(b, gb.Build(), bu).run(b)
	})
}
