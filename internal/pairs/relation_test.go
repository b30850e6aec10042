package pairs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rtcshare/internal/graph"
)

// randomPairs draws a pair multiset (duplicates deliberately likely) over
// n vertices.
func randomPairs(rng *rand.Rand, n, m int) []Pair {
	ps := make([]Pair, m)
	for i := range ps {
		ps[i] = Pair{Src: graph.VID(rng.Intn(n)), Dst: graph.VID(rng.Intn(n))}
	}
	return ps
}

// Property: sealing a random pair multiset is equivalent to inserting it
// into a Set — same length (dedup), same membership, same sorted pairs —
// and the round trips Relation→Set→Relation and Set→Relation→Set are
// identities.
func TestRelationSetEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		ps := randomPairs(rng, n, rng.Intn(120))

		set := FromPairs(ps...)
		b := NewBuilder(n)
		for _, p := range ps {
			b.AddPair(p)
		}
		rel := b.Seal()

		if rel.Len() != set.Len() || !rel.EqualSet(set) {
			return false
		}
		// Membership agrees on present and absent pairs.
		for i := 0; i < 40; i++ {
			src, dst := graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n))
			if rel.Contains(src, dst) != set.Contains(src, dst) {
				return false
			}
		}
		// Sorted enumerations agree pair for pair.
		rp, sp := rel.Sorted(), set.Sorted()
		for i := range rp {
			if rp[i] != sp[i] {
				return false
			}
		}
		if !rel.ToSet().Equal(set) {
			return false
		}
		return RelationFromSet(n, set).Equal(rel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: DstsOf/SrcsOf return exactly the Set's per-vertex partners,
// sorted and duplicate-free, and Srcs/Dsts match the Set's endpoint
// projections.
func TestRelationColumnsMatchSetProjections(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		ps := randomPairs(rng, n, rng.Intn(100))
		set := FromPairs(ps...)
		rel := RelationFromSet(n, set)

		for v := graph.VID(0); int(v) < n; v++ {
			var wantDsts, wantSrcs []graph.VID
			set.Each(func(src, dst graph.VID) bool {
				if src == v {
					wantDsts = append(wantDsts, dst)
				}
				if dst == v {
					wantSrcs = append(wantSrcs, src)
				}
				return true
			})
			if len(rel.DstsOf(v)) != len(wantDsts) || len(rel.SrcsOf(v)) != len(wantSrcs) {
				return false
			}
			for _, run := range [][]graph.VID{rel.DstsOf(v), rel.SrcsOf(v)} {
				for i := 1; i < len(run); i++ {
					if run[i] <= run[i-1] {
						return false
					}
				}
			}
		}
		srcs, dsts := rel.Srcs(), rel.Dsts()
		wantSrcs, wantDsts := set.Srcs(), set.Dsts()
		if len(srcs) != len(wantSrcs) || len(dsts) != len(wantDsts) {
			return false
		}
		for i := range srcs {
			if srcs[i] != wantSrcs[i] {
				return false
			}
		}
		for i := range dsts {
			if dsts[i] != wantDsts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: EachSrc and EachDst visit exactly the non-empty runs in
// ascending order, and their runs tile the whole relation.
func TestRelationRunIteration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		rel := RelationFromPairs(n, randomPairs(rng, n, rng.Intn(80))...)

		total, lastSrc := 0, graph.VID(-1)
		ok := true
		rel.EachSrc(func(src graph.VID, dsts []graph.VID) bool {
			if src <= lastSrc || len(dsts) == 0 {
				ok = false
				return false
			}
			lastSrc = src
			total += len(dsts)
			return true
		})
		if !ok || total != rel.Len() {
			return false
		}
		total, lastDst := 0, graph.VID(-1)
		rel.EachDst(func(dst graph.VID, srcs []graph.VID) bool {
			if dst <= lastDst || len(srcs) == 0 {
				ok = false
				return false
			}
			lastDst = dst
			total += len(srcs)
			return true
		})
		return ok && total == rel.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// A builder is reusable after Seal: the second relation is independent
// of the first and of the builder's recycled scratch.
func TestBuilderReuse(t *testing.T) {
	b := NewBuilder(8)
	b.Add(1, 2)
	b.Add(1, 2) // duplicate collapses
	b.Add(3, 0)
	first := b.Seal()
	if first.Len() != 2 || !first.Contains(1, 2) || !first.Contains(3, 0) {
		t.Fatalf("first seal = %v", first.Sorted())
	}
	if b.Len() != 0 {
		t.Fatalf("builder not reset after Seal: %d pending", b.Len())
	}
	b.Add(7, 7)
	second := b.Seal()
	if second.Len() != 1 || !second.Contains(7, 7) {
		t.Fatalf("second seal = %v", second.Sorted())
	}
	// The first relation is untouched by the reuse.
	if first.Len() != 2 || !first.Contains(1, 2) {
		t.Fatal("first relation corrupted by builder reuse")
	}
}

// AddBuilder merges another builder's pending pairs without consuming
// them; sealing the merge equals sealing every pair in one builder.
func TestBuilderAddBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := [][]Pair{randomPairs(rng, 12, 40), randomPairs(rng, 12, 40), nil}
	merged := NewBuilder(12)
	all := NewBuilder(12)
	for _, ps := range parts {
		b := NewBuilder(12)
		for _, p := range ps {
			b.AddPair(p)
			all.AddPair(p)
		}
		merged.AddBuilder(b)
		if b.Len() != len(ps) {
			t.Fatalf("AddBuilder consumed its argument: %d pending, want %d", b.Len(), len(ps))
		}
	}
	if got, want := merged.Seal(), all.Seal(); !got.Equal(want) {
		t.Fatalf("merged seal %v != single-builder seal %v", got.Sorted(), want.Sorted())
	}
}

// Long runs exercise the quicksort path of Seal.
func TestSealLongRuns(t *testing.T) {
	const n = 300
	b := NewBuilder(n)
	for i := n - 1; i >= 0; i-- {
		b.Add(0, graph.VID(i))
		b.Add(0, graph.VID(i)) // every pair duplicated
	}
	rel := b.Seal()
	if rel.Len() != n {
		t.Fatalf("Len = %d, want %d", rel.Len(), n)
	}
	run := rel.DstsOf(0)
	for i := range run {
		if run[i] != graph.VID(i) {
			t.Fatalf("run[%d] = %d", i, run[i])
		}
	}
}

func TestEmptyRelation(t *testing.T) {
	rel := NewBuilder(5).Seal()
	if rel.Len() != 0 || rel.NumVertices() != 5 {
		t.Fatalf("empty relation: len=%d n=%d", rel.Len(), rel.NumVertices())
	}
	if got := rel.DstsOf(3); len(got) != 0 {
		t.Fatalf("DstsOf on empty = %v", got)
	}
	if got := rel.SrcsOf(3); len(got) != 0 {
		t.Fatalf("SrcsOf on empty = %v", got)
	}
	if !rel.EqualSet(NewSet()) {
		t.Fatal("empty relation != empty set")
	}
	zero := NewBuilder(0).Seal()
	if zero.Len() != 0 {
		t.Fatal("zero-vertex relation not empty")
	}
}

// Property: Page(offset, limit) is exactly the corresponding slice of
// Sorted(), for any offset/limit including the degenerate ones.
func TestRelationPage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		b := NewBuilder(n)
		for _, p := range randomPairs(rng, n, rng.Intn(120)) {
			b.AddPair(p)
		}
		rel := b.Seal()
		sorted := rel.Sorted()

		offsets := []int{0, 1, len(sorted) / 2, len(sorted) - 1, len(sorted), len(sorted) + 3, -2}
		limits := []int{0, -1, 1, 2, len(sorted) / 3, len(sorted), len(sorted) + 5}
		for _, off := range offsets {
			for _, lim := range limits {
				got := rel.Page(off, lim)
				start := max(off, 0)
				if start > len(sorted) {
					start = len(sorted)
				}
				end := len(sorted)
				if lim > 0 && start+lim < end {
					end = start + lim
				}
				want := sorted[start:end]
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRelationPageEmpty(t *testing.T) {
	rel := NewBuilder(0).Seal()
	if got := rel.Page(0, 10); len(got) != 0 {
		t.Fatalf("empty relation paged %d pairs", len(got))
	}
}

func TestRelationPageHugeLimit(t *testing.T) {
	rel := RelationFromPairs(4, Pair{Src: 0, Dst: 1}, Pair{Src: 1, Dst: 2}, Pair{Src: 3, Dst: 0})
	// offset+limit must not overflow into a negative slice capacity.
	got := rel.Page(1, math.MaxInt)
	if len(got) != 2 || got[0] != (Pair{Src: 1, Dst: 2}) || got[1] != (Pair{Src: 3, Dst: 0}) {
		t.Fatalf("Page(1, MaxInt) = %v", got)
	}
	if got := rel.Page(math.MaxInt, math.MaxInt); len(got) != 0 {
		t.Fatalf("Page(MaxInt, MaxInt) = %v", got)
	}
}

// Property: PageInto(offset, buf) writes exactly what Page(offset,
// len(buf)) returns, for any offset and buffer size — the streaming
// layer leans on the two staying interchangeable.
func TestRelationPageIntoMatchesPage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		b := NewBuilder(n)
		for _, p := range randomPairs(rng, n, rng.Intn(120)) {
			b.AddPair(p)
		}
		rel := b.Seal()
		for _, off := range []int{-1, 0, 1, rel.Len() / 2, rel.Len() - 1, rel.Len(), rel.Len() + 4} {
			for _, size := range []int{0, 1, 2, 7, rel.Len(), rel.Len() + 3} {
				buf := make([]Pair, size)
				got := buf[:rel.PageInto(off, buf)]
				want := rel.Page(off, size)
				if size == 0 {
					// Page(off, 0) means "to the end"; PageInto with an
					// empty buffer writes nothing. Only the count contract
					// applies here.
					if len(got) != 0 {
						return false
					}
					continue
				}
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRelationPageIntoEdgeCases(t *testing.T) {
	rel := RelationFromPairs(4,
		Pair{Src: 0, Dst: 1}, Pair{Src: 0, Dst: 2}, Pair{Src: 0, Dst: 3},
		Pair{Src: 2, Dst: 0},
		Pair{Src: 3, Dst: 1}, Pair{Src: 3, Dst: 2},
	)
	buf := make([]Pair, 4)
	if n := rel.PageInto(rel.Len(), buf); n != 0 {
		t.Fatalf("PageInto(len) = %d, want 0", n)
	}
	if n := rel.PageInto(rel.Len()+5, buf); n != 0 {
		t.Fatalf("PageInto(past end) = %d, want 0", n)
	}
	if n := rel.PageInto(0, nil); n != 0 {
		t.Fatalf("PageInto(0, nil) = %d, want 0", n)
	}
	if n := rel.PageInto(-2, buf[:2]); n != 2 || buf[0] != (Pair{Src: 0, Dst: 1}) {
		t.Fatalf("negative offset: n=%d buf=%v, want clamp to start", n, buf[:2])
	}
	// Page starting inside the last run.
	if n := rel.PageInto(5, buf); n != 1 || buf[0] != (Pair{Src: 3, Dst: 2}) {
		t.Fatalf("PageInto(5) = %d %v, want the final pair", n, buf[:n])
	}
	empty := NewBuilder(0).Seal()
	if n := empty.PageInto(0, buf); n != 0 {
		t.Fatalf("empty PageInto = %d, want 0", n)
	}
	single := RelationFromPairs(2, Pair{Src: 1, Dst: 0})
	if n := single.PageInto(0, buf); n != 1 || buf[0] != (Pair{Src: 1, Dst: 0}) {
		t.Fatalf("singleton PageInto = %d %v", n, buf[:n])
	}
	if n := single.PageInto(1, buf); n != 0 {
		t.Fatalf("singleton PageInto(1) = %d, want 0", n)
	}
}

// TestRelationPageEdgeCases pins the documented paging semantics on a
// relation whose CSR rows have uneven run lengths, so pages cross row
// boundaries mid-run:
//
//	src 0: (0,1) (0,2) (0,3)   src 2: (2,0)   src 3: (3,1) (3,2)
func TestRelationPageEdgeCases(t *testing.T) {
	rel := RelationFromPairs(4,
		Pair{Src: 0, Dst: 1}, Pair{Src: 0, Dst: 2}, Pair{Src: 0, Dst: 3},
		Pair{Src: 2, Dst: 0},
		Pair{Src: 3, Dst: 1}, Pair{Src: 3, Dst: 2},
	)
	sorted := rel.Sorted()
	cases := []struct {
		name          string
		offset, limit int
		want          []Pair
	}{
		{"offset at end", rel.Len(), 5, nil},
		{"offset past end", rel.Len() + 10, 5, nil},
		{"negative offset clamps to start", -3, 2, sorted[:2]},
		{"zero limit means to the end", 1, 0, sorted[1:]},
		{"negative limit means to the end", 2, -1, sorted[2:]},
		{"page spans row 0 into row 2", 2, 2, []Pair{{Src: 0, Dst: 3}, {Src: 2, Dst: 0}}},
		{"page spans three rows", 1, 5, sorted[1:]},
		{"page starts mid-row 3", 5, 3, []Pair{{Src: 3, Dst: 2}}},
	}
	for _, c := range cases {
		got := rel.Page(c.offset, c.limit)
		if len(got) != len(c.want) {
			t.Errorf("%s: Page(%d, %d) = %v, want %v", c.name, c.offset, c.limit, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: Page(%d, %d) = %v, want %v", c.name, c.offset, c.limit, got, c.want)
				break
			}
		}
	}
}
