package core

import (
	"context"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// This file is the differential streaming suite: the delivery layer's
// contract is that a stream, a sealed evaluation, and a cursor-resumed
// page over the same graph epoch agree pair-for-pair — order included —
// and that the ASK and witness probes never disagree with the sealed
// answer they short-circuit. Every test here drives the streams against
// the sealed engine or the compositional reference oracle.

// drainStream collects the whole stream through a fixed-size buffer,
// exercising the chunk boundaries the buffer size induces.
func drainStream(t *testing.T, s *ResultStream, bufSize int) []pairs.Pair {
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

// fingerprint is an order-independent hash of a pair multiset (XOR of
// per-pair FNV hashes), so two enumerations can be compared without
// trusting either one's order.
func fingerprint(ps []pairs.Pair) uint64 {
	var acc uint64
	for _, p := range ps {
		h := fnv.New64a()
		var b [8]byte
		b[0], b[1], b[2], b[3] = byte(p.Src), byte(p.Src>>8), byte(p.Src>>16), byte(p.Src>>24)
		b[4], b[5], b[6], b[7] = byte(p.Dst), byte(p.Dst>>8), byte(p.Dst>>16), byte(p.Dst>>24)
		h.Write(b[:])
		acc ^= h.Sum64()
	}
	return acc
}

func pairsEqual(got, want []pairs.Pair) bool {
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

// TestStreamMatchesSealedDifferential is the core oracle: across random
// graphs × workloads × strategies × planners × layouts, a live stream
// must reproduce the sealed relation's exact (src, dst) order — prefix
// equality, not just set equality — through awkward buffer sizes, and
// the memo-warm sealed-backed stream must agree with both.
func TestStreamMatchesSealedDifferential(t *testing.T) {
	bufSizes := []int{1, 3, 17, 256}
	for ci, c := range differentialCases() {
		g := c.graph(t)
		qs := c.queries(t, g.Dict())

		configs := []Options{
			{Strategy: RTCSharing, Planner: PlannerHeuristic},
			{Strategy: RTCSharing, Planner: PlannerCostBased},
			{Strategy: FullSharing, Planner: PlannerCostBased},
			{Strategy: NoSharing, Planner: PlannerHeuristic},
			{Layout: LayoutMapSet},
		}
		for _, opts := range configs {
			sealedEngine := New(g, opts)
			streamEngine := New(g, opts)
			for qi, q := range qs {
				want, err := sealedEngine.Evaluate(q)
				if err != nil {
					t.Fatalf("case %d %+v: sealed %q: %v", ci, opts, q, err)
				}
				wantPairs := want.Sorted()

				// Live stream from a cold engine: the per-source re-drive.
				s, err := streamEngine.OpenStream(context.Background(), q, StreamOptions{})
				if err != nil {
					t.Fatalf("case %d %+v: open %q: %v", ci, opts, q, err)
				}
				got := drainStream(t, s, bufSizes[qi%len(bufSizes)])
				if !pairsEqual(got, wantPairs) {
					t.Fatalf("case %d %+v: %q: stream %d pairs != sealed %d pairs (prefix order)",
						ci, opts, q, len(got), len(wantPairs))
				}
				if fingerprint(got) != fingerprint(wantPairs) {
					t.Fatalf("case %d %+v: %q: stream fingerprint diverges from sealed", ci, opts, q)
				}

				// Memo-warm stream from the sealed engine: the cached-relation
				// fast path must page out the identical sequence.
				s2, err := sealedEngine.OpenStream(context.Background(), q, StreamOptions{})
				if err != nil {
					t.Fatalf("case %d %+v: warm open %q: %v", ci, opts, q, err)
				}
				if s2.Epoch() != sealedEngine.Epoch() {
					t.Fatalf("case %d: warm stream epoch %d != engine epoch %d", ci, s2.Epoch(), sealedEngine.Epoch())
				}
				warm := drainStream(t, s2, bufSizes[(qi+1)%len(bufSizes)])
				if !pairsEqual(warm, wantPairs) {
					t.Fatalf("case %d %+v: %q: warm stream diverges from sealed", ci, opts, q)
				}
			}
			if cc := streamEngine.Cache().Counters(); cc.CrossEpochHits != 0 {
				t.Fatalf("case %d %+v: CrossEpochHits = %d", ci, opts, cc.CrossEpochHits)
			}
		}
	}
}

// TestStreamLimitIsPrefix pins the LIMIT contract: a limit-k stream is
// exactly the first k pairs of the sealed order, for every k including
// the degenerate ones.
func TestStreamLimitIsPrefix(t *testing.T) {
	c := differentialCases()[0]
	g := c.graph(t)
	qs := c.queries(t, g.Dict())
	engine := New(g, Options{})
	oracle := New(g, Options{})
	for _, q := range qs {
		want, err := oracle.Evaluate(q)
		if err != nil {
			t.Fatalf("sealed %q: %v", q, err)
		}
		sorted := want.Sorted()
		for _, k := range []int{1, 2, 5, len(sorted) - 1, len(sorted), len(sorted) + 10} {
			if k <= 0 {
				continue
			}
			s, err := engine.OpenStream(context.Background(), q, StreamOptions{Limit: k})
			if err != nil {
				t.Fatalf("open %q limit %d: %v", q, k, err)
			}
			got := drainStream(t, s, 7)
			wantK := sorted
			if k < len(sorted) {
				wantK = sorted[:k]
			}
			if !pairsEqual(got, wantK) {
				t.Fatalf("%q limit %d: got %d pairs, want prefix of %d", q, k, len(got), len(wantK))
			}
			if st := s.Stats(); st.Pairs != int64(len(got)) {
				t.Fatalf("%q limit %d: Stats().Pairs = %d, want %d", q, k, st.Pairs, len(got))
			}
		}
	}
}

// TestStreamPinnedAcrossUpdates checks the epoch-pinning contract: a
// stream opened before an update batch keeps answering from its pinned
// graph version even while updates land and later streams see the new
// epoch — with the cross-epoch cache tripwire at zero throughout.
func TestStreamPinnedAcrossUpdates(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 56, Edges: 168, Labels: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	queries := []rpq.Expr{
		rpq.MustParse("l0+"),
		rpq.MustParse("l0+.l1"),
		rpq.MustParse("l1.l0*.l2?"),
		rpq.MustParse("l2|^l0+"),
	}
	for _, opts := range []Options{{}, {Strategy: FullSharing}, {Planner: PlannerCostBased}} {
		engine := New(g, opts)
		g0 := engine.Graph()
		oracles := make([]*pairsSet, len(queries))
		for i, q := range queries {
			oracles[i] = eval.Reference(g0, q)
		}

		// Open all streams at epoch 0, then mutate underneath them.
		streams := make([]*ResultStream, len(queries))
		for i, q := range queries {
			s, err := engine.OpenStream(context.Background(), q, StreamOptions{})
			if err != nil {
				t.Fatalf("%+v: open %q: %v", opts, q, err)
			}
			streams[i] = s
		}
		rng := rand.New(rand.NewSource(99))
		for b := 0; b < 3; b++ {
			var batch []GraphUpdate
			for i := 0; i < 8; i++ {
				batch = append(batch, InsertEdge(
					graph.VID(rng.Intn(56)), []string{"l0", "l1", "l2"}[rng.Intn(3)], graph.VID(rng.Intn(56))))
			}
			if _, err := engine.ApplyUpdates(batch); err != nil {
				t.Fatalf("%+v: updates: %v", opts, err)
			}
		}

		for i, q := range queries {
			got := drainStream(t, streams[i], 13)
			want := oracles[i].Sorted()
			if !pairsEqual(got, want) {
				t.Fatalf("%+v: %q: pinned stream diverges from pre-update reference (%d vs %d pairs)",
					opts, q, len(got), len(want))
			}
			// A fresh stream sees the post-update graph.
			s, err := engine.OpenStream(context.Background(), q, StreamOptions{})
			if err != nil {
				t.Fatalf("%+v: reopen %q: %v", opts, q, err)
			}
			fresh := drainStream(t, s, 13)
			freshWant := eval.Reference(engine.Graph(), q).Sorted()
			if !pairsEqual(fresh, freshWant) {
				t.Fatalf("%+v: %q: post-update stream diverges from reference", opts, q)
			}
		}
		if cc := engine.Cache().Counters(); cc.CrossEpochHits != 0 {
			t.Fatalf("%+v: CrossEpochHits = %d", opts, cc.CrossEpochHits)
		}
	}
}

// TestStreamConcurrentUpdates races open streams against live update
// batches (meaningful under -race): draining threads must keep reading
// their pinned version pair-for-pair while the writer advances epochs.
func TestStreamConcurrentUpdates(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 48, Edges: 144, Labels: 3, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	engine := New(g, Options{})
	queries := []rpq.Expr{
		rpq.MustParse("l0+"),
		rpq.MustParse("l0+.l1"),
		rpq.MustParse("l2|^l0+"),
	}
	g0 := engine.Graph()
	oracles := make([][]pairs.Pair, len(queries))
	for i, q := range queries {
		oracles[i] = eval.Reference(g0, q).Sorted()
	}
	streams := make([]*ResultStream, len(queries))
	for i, q := range queries {
		s, err := engine.OpenStream(context.Background(), q, StreamOptions{})
		if err != nil {
			t.Fatalf("open %q: %v", q, err)
		}
		streams[i] = s
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(31))
		for b := 0; b < 6; b++ {
			var batch []GraphUpdate
			for i := 0; i < 5; i++ {
				batch = append(batch, InsertEdge(
					graph.VID(rng.Intn(48)), []string{"l0", "l1", "l2"}[rng.Intn(3)], graph.VID(rng.Intn(48))))
			}
			if _, err := engine.ApplyUpdates(batch); err != nil {
				t.Errorf("updates: %v", err)
				return
			}
		}
	}()

	var drains sync.WaitGroup
	for i := range streams {
		drains.Add(1)
		go func(i int) {
			defer drains.Done()
			got := drainStream(t, streams[i], 5)
			if !pairsEqual(got, oracles[i]) {
				t.Errorf("%q: stream raced with updates diverges from pinned reference", queries[i])
			}
		}(i)
	}
	drains.Wait()
	wg.Wait()
	if cc := engine.Cache().Counters(); cc.CrossEpochHits != 0 {
		t.Fatalf("CrossEpochHits = %d", cc.CrossEpochHits)
	}
}

// TestStreamCancellation: a cancelled context kills the stream with the
// context's error, and the error is sticky.
func TestStreamCancellation(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 64, Edges: 256, Labels: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	engine := New(g, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	s, err := engine.OpenStream(ctx, rpq.MustParse("l0+.l1?"), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]pairs.Pair, 4)
	if _, _, err := s.Next(buf); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	cancel()
	var gotErr error
	for i := 0; i < 1000; i++ {
		_, done, err := s.Next(buf)
		if err != nil {
			gotErr = err
			break
		}
		if done {
			break
		}
	}
	if gotErr == nil {
		t.Skip("stream drained before a cancellation checkpoint fired")
	}
	if _, _, err := s.Next(buf); err == nil {
		t.Fatal("error not sticky after cancellation")
	}
	s.Close()
	if _, _, err := s.Next(buf); err != ErrStreamClosed {
		t.Fatalf("Next after Close = %v, want ErrStreamClosed", err)
	}
}

// TestAskMatchesSealed: the existence probe must agree with sealed
// non-emptiness across the full differential matrix.
func TestAskMatchesSealed(t *testing.T) {
	for ci, c := range differentialCases() {
		if ci%3 != 0 { // a third of the matrix keeps the runtime sane
			continue
		}
		g := c.graph(t)
		qs := c.queries(t, g.Dict())
		for _, opts := range []Options{
			{Strategy: RTCSharing, Planner: PlannerHeuristic},
			{Strategy: RTCSharing, Planner: PlannerCostBased},
			{Strategy: FullSharing, Planner: PlannerCostBased},
			{Strategy: NoSharing, Planner: PlannerHeuristic},
			{Layout: LayoutMapSet},
		} {
			engine := New(g, opts)
			oracle := New(g, opts)
			for _, q := range qs {
				want, err := oracle.Evaluate(q)
				if err != nil {
					t.Fatalf("case %d: sealed %q: %v", ci, q, err)
				}
				found, epoch, _, err := engine.AskCounted(context.Background(), q)
				if err != nil {
					t.Fatalf("case %d %+v: ask %q: %v", ci, opts, q, err)
				}
				if found != (want.Len() > 0) {
					t.Fatalf("case %d %+v: ask %q = %v, sealed has %d pairs", ci, opts, q, found, want.Len())
				}
				if epoch != engine.Epoch() {
					t.Fatalf("case %d: ask epoch %d != engine epoch %d", ci, epoch, engine.Epoch())
				}
			}
		}
	}
}

// TestAskShortCircuits pins the instrumentation claim: on a closure-
// heavy graph whose full answer is quadratic, the ASK probe stops within
// one source expansion of the first hit — the rows counter stays linear
// in one run, orders of magnitude below the sealed row count.
func TestAskShortCircuits(t *testing.T) {
	const n = 96
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.MustAddEdge(graph.VID(i), "l0", graph.VID((i+1)%n))
	}
	b.MustAddEdge(0, "l1", 1)
	g := b.Build()

	for _, opts := range []Options{{}, {Strategy: FullSharing}, {Strategy: NoSharing}} {
		engine := New(g, opts)
		q := rpq.MustParse("l0+") // one big cycle: n² pairs sealed
		found, _, rows, err := engine.AskCounted(context.Background(), q)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !found {
			t.Fatalf("%+v: ask(l0+) = false on a cycle", opts)
		}
		// The sealed evaluation touches ≥ n² join rows; the probe must
		// stop inside the first source's expansion (≤ one chunk ≈ 3n
		// rows of slack for the Pre scan + first member probes).
		if rows > 3*n {
			t.Fatalf("%+v: ask scanned %d rows, want ≤ %d (short-circuit broken)", opts, rows, 3*n)
		}

		// Empty answers scan everything but still report false.
		empty := rpq.MustParse("l1.l1")
		found, _, _, err = engine.AskCounted(context.Background(), empty)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if found {
			t.Fatalf("%+v: ask(l1.l1) = true, want false", opts)
		}
	}

	// The memo-warm fast path answers from the cached relation with zero
	// rows scanned.
	engine := New(g, Options{})
	q := rpq.MustParse("l0+")
	if _, err := engine.Evaluate(q); err != nil {
		t.Fatal(err)
	}
	found, _, rows, err := engine.AskCounted(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !found || rows != 0 {
		t.Fatalf("cached ask = (%v, %d rows), want (true, 0)", found, rows)
	}
}

// TestAskBackwardProbe forces the cost-based ASK planner into the
// backward direction with a hugely selective Post, and checks the probe
// still answers correctly with a small row count.
func TestAskBackwardProbe(t *testing.T) {
	const n = 80
	b := graph.NewBuilder(n)
	// Dense Pre: many pre-edges per vertex, so the forward plan's
	// Pre⋈R+ join term (|Pre|·jt) dwarfs the backward plan's extra
	// eval of the one-edge Post, forcing the planner backward.
	for i := 0; i < n; i++ {
		for k := 0; k < 8; k++ {
			b.MustAddEdge(graph.VID(i), "pre", graph.VID((i*7+k+1)%n))
		}
		b.MustAddEdge(graph.VID(i), "l0", graph.VID((i+1)%n))
	}
	// Selective Post: exactly one edge.
	b.MustAddEdge(3, "post", 4)
	g := b.Build()

	engine := New(g, Options{Planner: PlannerCostBased})
	q := rpq.MustParse("pre.l0+.post")
	found, _, rows, err := engine.AskCounted(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("ask(pre.l0+.post) = false, want true")
	}
	want, err := New(g, Options{}).Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("fixture broken: sealed result empty")
	}
	if rows > 5*n {
		t.Fatalf("backward ask scanned %d rows, want ≤ %d", rows, 5*n)
	}
	// The uncounted wrapper agrees.
	found2, epoch, err := engine.Ask(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !found2 || epoch != engine.Epoch() {
		t.Fatalf("Ask = (%v, %d), want (true, %d)", found2, epoch, engine.Epoch())
	}
}

// TestWitnessAgainstReference: for sampled member pairs the witness must
// exist, its label word must actually walk src → dst in the graph, and
// the word must be in the query's language (checked on a line graph of
// the word); for non-member pairs the witness must not exist.
func TestWitnessAgainstReference(t *testing.T) {
	for ci, c := range differentialCases() {
		if ci%4 != 0 {
			continue
		}
		g := c.graph(t)
		qs := c.queries(t, g.Dict())
		engine := New(g, Options{})
		for _, q := range qs {
			want := eval.Reference(g, q)
			members := want.Sorted()
			step := 1
			if len(members) > 8 {
				step = len(members) / 8
			}
			for i := 0; i < len(members); i += step {
				p := members[i]
				wp, ok, err := engine.Witness(context.Background(), q, p.Src, p.Dst)
				if err != nil {
					t.Fatalf("case %d: witness %q (%d,%d): %v", ci, q, p.Src, p.Dst, err)
				}
				if !ok {
					t.Fatalf("case %d: witness %q (%d,%d): no witness for a member pair", ci, q, p.Src, p.Dst)
				}
				validateWitness(t, g, q, wp)
			}
			// Sample non-members.
			rng := rand.New(rand.NewSource(int64(ci)*31 + 7))
			for tries := 0; tries < 8; tries++ {
				src := graph.VID(rng.Intn(g.NumVertices()))
				dst := graph.VID(rng.Intn(g.NumVertices()))
				if want.Contains(src, dst) {
					continue
				}
				if _, ok, err := engine.Witness(context.Background(), q, src, dst); err != nil {
					t.Fatalf("case %d: witness %q: %v", ci, q, err)
				} else if ok {
					t.Fatalf("case %d: witness %q (%d,%d): witness for a non-member pair", ci, q, src, dst)
				}
			}
		}
	}
}

// validateWitness checks both halves of the witness contract.
func validateWitness(t *testing.T, g *graph.Graph, q rpq.Expr, wp WitnessPath) {
	t.Helper()
	// Half 1: the label word walks Src → Dst in g (frontier simulation,
	// since a word can follow many concrete edge paths).
	frontier := map[graph.VID]bool{wp.Src: true}
	for _, step := range wp.Labels {
		name, inverse := step, false
		if strings.HasPrefix(step, "^") {
			name, inverse = step[1:], true
		}
		lid, ok := g.Dict().Lookup(name)
		if !ok {
			t.Fatalf("witness %q: unknown label %q", q, step)
		}
		next := map[graph.VID]bool{}
		for v := range frontier {
			var ws []graph.VID
			if inverse {
				ws = g.Predecessors(v, lid)
			} else {
				ws = g.Successors(v, lid)
			}
			for _, w := range ws {
				next[w] = true
			}
		}
		frontier = next
	}
	if !frontier[wp.Dst] {
		t.Fatalf("witness %q (%d,%d): word %v does not reach Dst", q, wp.Src, wp.Dst, wp.Labels)
	}

	// Half 2: the word is in L(q) — build the word's line graph (inverse
	// steps become backward edges) and ask the reference oracle whether q
	// connects its endpoints.
	k := len(wp.Labels)
	lb := graph.NewBuilder(k + 1)
	for i, step := range wp.Labels {
		name, inverse := step, false
		if strings.HasPrefix(step, "^") {
			name, inverse = step[1:], true
		}
		if inverse {
			lb.MustAddEdge(graph.VID(i+1), name, graph.VID(i))
		} else {
			lb.MustAddEdge(graph.VID(i), name, graph.VID(i+1))
		}
	}
	if !eval.Reference(lb.Build(), q).Contains(0, graph.VID(k)) {
		t.Fatalf("witness %q (%d,%d): word %v not accepted by the query", q, wp.Src, wp.Dst, wp.Labels)
	}
}

// TestWitnessShortest pins minimality and the zero-length case on
// deterministic fixtures.
func TestWitnessShortest(t *testing.T) {
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, "l0", 1)
	b.MustAddEdge(1, "l0", 2)
	b.MustAddEdge(0, "l0", 2) // shortcut: 0 → 2 in one step
	g := b.Build()
	engine := New(g, Options{})

	wp, ok, err := engine.Witness(context.Background(), rpq.MustParse("l0+"), 0, 2)
	if err != nil || !ok {
		t.Fatalf("witness = (%v, %v)", ok, err)
	}
	if len(wp.Labels) != 1 {
		t.Fatalf("witness labels = %v, want the 1-step shortcut", wp.Labels)
	}

	// The empty word witnesses (v, v) under a star.
	wp, ok, err = engine.Witness(context.Background(), rpq.MustParse("l0*"), 3, 3)
	if err != nil || !ok {
		t.Fatalf("star self witness = (%v, %v)", ok, err)
	}
	if len(wp.Labels) != 0 {
		t.Fatalf("star self witness labels = %v, want empty", wp.Labels)
	}

	// Out-of-range pairs error instead of panicking.
	if _, _, err := engine.Witness(context.Background(), rpq.MustParse("l0+"), 0, 99); err == nil {
		t.Fatal("out-of-range witness: want error")
	}
}
