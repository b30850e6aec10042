package shard

import (
	"context"
	"math/rand"
	"testing"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// The sharded half of the differential streaming suite: a cluster's
// stream, ASK and witness surface must agree with the coordinator's
// sealed evaluation at every shard count, across live update batches,
// with the cross-epoch tripwire at zero.

func drain(t *testing.T, s *core.ResultStream, bufSize int) []pairs.Pair {
	t.Helper()
	defer s.Close()
	var out []pairs.Pair
	buf := make([]pairs.Pair, bufSize)
	for {
		n, done, err := s.Next(buf)
		if err != nil {
			t.Fatalf("stream Next: %v", err)
		}
		out = append(out, buf[:n]...)
		if done {
			return out
		}
	}
}

func samePairs(got, want []pairs.Pair) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestClusterStreamMatchesSealed(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 56, Edges: 196, Labels: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	queries := []rpq.Expr{
		rpq.MustParse("l0+"),
		rpq.MustParse("l0+.l1"),
		rpq.MustParse("l1.l0*.l2?"),
		rpq.MustParse("l2|^l0+"),
	}
	for _, shards := range []int{1, 2} {
		cluster := New(g, Options{Shards: shards})
		sealedOracle := New(g, Options{Shards: shards})
		rng := rand.New(rand.NewSource(int64(shards) * 7))
		for batch := 0; batch < 3; batch++ {
			for qi, q := range queries {
				want, err := sealedOracle.Evaluate(q)
				if err != nil {
					t.Fatalf("shards=%d: sealed %q: %v", shards, q, err)
				}
				wantPairs := want.Sorted()

				s, err := cluster.OpenStream(context.Background(), q, core.StreamOptions{})
				if err != nil {
					t.Fatalf("shards=%d: open %q: %v", shards, q, err)
				}
				got := drain(t, s, 3+qi*5)
				if !samePairs(got, wantPairs) {
					t.Fatalf("shards=%d batch %d: %q: cluster stream %d pairs != sealed %d pairs",
						shards, batch, q, len(got), len(wantPairs))
				}

				// ASK and witness agree with the sealed answer.
				found, _, err := cluster.Ask(context.Background(), q)
				if err != nil {
					t.Fatalf("shards=%d: ask %q: %v", shards, q, err)
				}
				if found != (want.Len() > 0) {
					t.Fatalf("shards=%d: ask %q = %v, sealed %d pairs", shards, q, found, want.Len())
				}
				if len(wantPairs) > 0 {
					p := wantPairs[len(wantPairs)/2]
					if _, ok, err := cluster.Witness(context.Background(), q, p.Src, p.Dst); err != nil || !ok {
						t.Fatalf("shards=%d: witness %q (%d,%d) = (%v, %v)", shards, q, p.Src, p.Dst, ok, err)
					}
				}
			}

			// Mutate both cluster and oracle identically, re-check next round.
			var updates []core.GraphUpdate
			for i := 0; i < 8; i++ {
				updates = append(updates, core.InsertEdge(
					graph.VID(rng.Intn(56)), []string{"l0", "l1", "l2"}[rng.Intn(3)], graph.VID(rng.Intn(56))))
			}
			if _, err := cluster.ApplyUpdates(updates); err != nil {
				t.Fatalf("shards=%d: cluster updates: %v", shards, err)
			}
			if _, err := sealedOracle.ApplyUpdates(updates); err != nil {
				t.Fatalf("shards=%d: oracle updates: %v", shards, err)
			}
		}
		if hits := cluster.CrossEpochHits(); hits != 0 {
			t.Fatalf("shards=%d: CrossEpochHits = %d", shards, hits)
		}
	}
}

// TestClusterStreamPinnedAcrossUpdates: a stream opened before an
// update fan-out drains the pinned epoch while the cluster advances.
func TestClusterStreamPinnedAcrossUpdates(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 48, Edges: 144, Labels: 3, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	cluster := New(g, Options{Shards: 2})
	q := rpq.MustParse("l0+.l1?")
	g0 := cluster.Graph()
	want := eval.Reference(g0, q).Sorted()

	s, err := cluster.OpenStream(context.Background(), q, core.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.ApplyUpdates([]core.GraphUpdate{
		core.InsertEdge(1, "l0", 2),
		core.InsertEdge(2, "l1", 3),
	}); err != nil {
		t.Fatal(err)
	}
	got := drain(t, s, 9)
	if !samePairs(got, want) {
		t.Fatalf("pinned cluster stream diverges: %d pairs vs reference %d", len(got), len(want))
	}
	fresh, err := cluster.OpenStream(context.Background(), q, core.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	freshGot := drain(t, fresh, 9)
	freshWant := eval.Reference(cluster.Graph(), q).Sorted()
	if !samePairs(freshGot, freshWant) {
		t.Fatalf("post-update cluster stream diverges: %d pairs vs reference %d", len(freshGot), len(freshWant))
	}
	if hits := cluster.CrossEpochHits(); hits != 0 {
		t.Fatalf("CrossEpochHits = %d", hits)
	}
}
