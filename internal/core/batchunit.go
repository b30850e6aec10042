package core

import (
	"time"

	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/tc"
)

// This file implements the batch-unit joins over the columnar layout:
// Algorithm 2 for RTCSharing and the pair-level counterpart for
// FullSharing. The relations ResEq7, ResEq8 and ResEq10 of the paper are
// sets; they are realised here with generation-stamped arrays, grouped
// by the start vertex v_i, so that a membership test is one array read.
// The set *semantics* (which unions happen where, and therefore which
// redundant/useless operations each method performs) exactly follows
// Section IV-B; only the data plane differs from the paper's pseudocode:
//
//   - Side relations arrive as sealed pairs.Relation values, already
//     grouped by start vertex (and, through the lazy transpose, by end
//     vertex), so no per-call re-bucketing happens — the seed executor's
//     bucketBySrc/bucketByDst live on only in the LayoutMapSet baseline
//     (batchunit_legacy.go).
//   - The stamp sets, the ResEq9 tuple buffer, the Post memo and the
//     result row kernel come from a per-engine pool (joinScratch), so a
//     warm engine's joins run allocation-free up to the sealed output
//     columns.
//   - ResEq10 is emitted in sealed order. The joins produce it one start
//     vertex at a time, ascending, so each row goes through the
//     pairs.RowBuilder kernel: a bitmap test-and-set dedups it and a scan
//     of the touched words writes it sorted into the CSR column, with no
//     re-bucketing by src and no comparison sort at seal time.

// stampSet is a constant-time set over a dense ID space, cleared in O(1)
// by bumping the generation.
type stampSet struct {
	marks []uint32
	gen   uint32
}

func newStampSet(n int) *stampSet { return &stampSet{marks: make([]uint32, n)} }

// ensure grows the mark space to cover n IDs.
func (s *stampSet) ensure(n int) {
	if len(s.marks) < n {
		s.marks = make([]uint32, n)
		s.gen = 0
	}
}

func (s *stampSet) reset() {
	s.gen++
	if s.gen == 0 {
		for i := range s.marks {
			s.marks[i] = 0
		}
		s.gen = 1
	}
}

// add inserts id and reports whether it was new.
func (s *stampSet) add(id int32) bool {
	if s.marks[id] == s.gen {
		return false
	}
	s.marks[id] = s.gen
	return true
}

// joinScratch is the pooled working state of one batch-unit join: two
// stamp sets sized to the vertex space (which bounds the SCC space) for
// the ResEq7/ResEq8 unions, the ResEq9 tuple buffer, the per-unit memo
// of Post traversals, and the row kernel that emits ResEq10 in sealed
// order. One join owns a scratch exclusively from acquire to release.
type joinScratch struct {
	seenA, seenB stampSet
	resEq9       []pairs.Pair
	post         postMemo
	rows         pairs.RowBuilder
}

// postMemo memoises EvalRestrictedRPQ(Post, v_k) per distinct v_k within
// one batch unit: end vertices append into one flat buffer, and a
// VID-indexed span array addresses them. A generation stamp on each
// span clears the memo in O(1), so repeated traversal results cost
// neither an allocation nor a hash lookup.
type postMemo struct {
	buf   []graph.VID
	spans []endSpan
	gen   uint32
}

// endSpan addresses one memoised ReachFrom result inside postMemo.buf;
// it is live only while gen matches the memo's.
type endSpan struct {
	start, end int32
	gen        uint32
}

// reset empties the memo for a vertex space of n.
func (m *postMemo) reset(n int) {
	m.buf = m.buf[:0]
	if len(m.spans) < n {
		m.spans = make([]endSpan, n)
		m.gen = 0
	}
	m.gen++
	if m.gen == 0 {
		clear(m.spans)
		m.gen = 1
	}
}

// ends returns the end vertices of Post paths from vk, traversing with
// ev on the first request for vk since the last reset.
func (m *postMemo) ends(ev *eval.Evaluator, vk graph.VID) []graph.VID {
	sp := &m.spans[vk]
	if sp.gen != m.gen {
		start := int32(len(m.buf))
		m.buf = ev.AppendReachFrom(vk, m.buf)
		*sp = endSpan{start: start, end: int32(len(m.buf)), gen: m.gen}
	}
	return m.buf[sp.start:sp.end]
}

// acquireScratch checks a join scratch out of the engine pool, sized for
// the engine's vertex space. Sizing the row kernel also resets it,
// clearing the bits of any row a cancelled join abandoned mid-way.
func (e *engineVersion) acquireScratch() *joinScratch {
	sc := e.scratchPool.Get().(*joinScratch)
	n := e.g.NumVertices()
	sc.seenA.ensure(n)
	sc.seenB.ensure(n)
	sc.rows.Grow(n)
	return sc
}

func (e *engineVersion) releaseScratch(sc *joinScratch) {
	sc.resEq9 = sc.resEq9[:0]
	e.scratchPool.Put(sc)
}

// acquireBuilder checks a relation builder over the engine's vertex
// space out of the pool. Builders return to the pool empty (Seal resets
// them), keeping their scratch columns warm.
func (e *engineVersion) acquireBuilder() *pairs.Builder {
	return e.builderPool.Get().(*pairs.Builder)
}

func (e *engineVersion) releaseBuilder(b *pairs.Builder) {
	b.Reset()
	e.builderPool.Put(b)
}

// EvalBatchUnit implements Algorithm 2 (EvalBatchUnit) for RTCSharing:
// the join pipeline of equations (6)–(10) over the RTC, eliminating
//
//   - useless-1 operations: R+ is explored only from end vertices of
//     Pre_G tuples (the iteration runs over Pre_G, line 4);
//   - redundant-1 operations: Pre_G tuples with equal start vertex whose
//     ends share an SCC collapse at ResEq7 (lines 6–7);
//   - redundant-2 operations: tuples whose ends lie in different SCCs
//     reaching a common SCC collapse at ResEq8 (lines 9–10);
//   - useless-2 operations: members of distinct SCCs are disjoint, so
//     ResEq9 inserts perform no duplicate check (line 12).
//
// Pre_G arrives as a sealed relation: the per-start runs the loop wants
// are its frozen columns, walked in ascending start order with no
// bucketing pass. It is exported so benchmarks can measure the join in
// isolation; query evaluation reaches it through Engine.Evaluate.
func (e *engineVersion) EvalBatchUnit(preG *pairs.Relation, structure *rtc.RTC, typ rpq.ClosureType, post rpq.Expr) (*pairs.Relation, error) {
	joinStart := time.Now()

	sc := e.acquireScratch()
	seen7 := &sc.seenA // the ResEq7 union, per v_i
	seen8 := &sc.seenB // the ResEq8 union, per v_i

	// ResEq9 is an append-only list (useless-2 elimination), grouped by
	// v_i because the relation's runs are walked in vertex order. A
	// cancellation checkpoint runs per Pre_G group and per expanded SCC:
	// one v_i can expand O(|V|) pairs, so group granularity alone would
	// not bound the stop latency.
	var cancelErr error
	resEq9 := sc.resEq9[:0]
	preG.EachSrc(func(vi graph.VID, vjs []graph.VID) bool {
		if cancelErr = e.checkpoint(len(vjs)); cancelErr != nil {
			return false
		}
		seen7.reset()
		seen8.reset()
		if typ == rpq.ClosureStar {
			// Pre·R*·Post ⊇ Pre·Post: seed ResEq9 with this v_i's Pre_G
			// tuples (Algorithm 2 lines 2–3).
			for _, vj := range vjs {
				resEq9 = append(resEq9, pairs.Pair{Src: vi, Dst: vj})
			}
		}
		for _, vj := range vjs {
			// Line 5: s_j ← SCC containing v_j; v_j ∉ V_R starts no R+ path.
			sj := structure.CompOf(vj)
			if sj < 0 {
				continue
			}
			// Lines 6–7: union into ResEq7; repeats are redundant-1.
			if !seen7.add(sj) {
				continue
			}
			// Line 8: σ_{START_S=s_j} R̄+_Ḡ.
			for _, sk := range structure.ReachableFrom(sj) {
				// Lines 9–10: union into ResEq8; repeats are redundant-2.
				if !seen8.add(int32(sk)) {
					continue
				}
				// Lines 11–12: expand members with no duplicate check.
				members := structure.Members(int32(sk))
				if cancelErr = e.checkpoint(len(members)); cancelErr != nil {
					return false
				}
				for _, vk := range members {
					resEq9 = append(resEq9, pairs.Pair{Src: vi, Dst: vk})
				}
			}
		}
		return true
	})
	sc.resEq9 = resEq9 // keep the grown buffer pooled
	e.addPreJoin(time.Since(joinStart))
	if cancelErr != nil {
		e.releaseScratch(sc)
		return nil, cancelErr
	}

	return e.joinPost(sc, post)
}

// EvalBatchUnitFull is FullSharing's batch-unit evaluation: the same
// logical join Pre_G ⋈ R+_G ⋈ Post_G, but enumerated at vertex-pair
// level over the full closure. For every Pre_G tuple (v_i, v_j) the
// entire reachable set From(v_j) is walked and inserted with a duplicate
// check — the redundant-1 and redundant-2 operations of Definitions 3
// and 4 that Algorithm 2 eliminates are all performed here.
func (e *engineVersion) EvalBatchUnitFull(preG *pairs.Relation, closure *tc.Closure, typ rpq.ClosureType, post rpq.Expr) (*pairs.Relation, error) {
	joinStart := time.Now()

	sc := e.acquireScratch()
	seenV := &sc.seenA

	var cancelErr error
	resEq9 := sc.resEq9[:0]
	preG.EachSrc(func(vi graph.VID, vjs []graph.VID) bool {
		if cancelErr = e.checkpoint(len(vjs)); cancelErr != nil {
			return false
		}
		seenV.reset()
		if typ == rpq.ClosureStar {
			for _, vj := range vjs {
				if seenV.add(vj) {
					resEq9 = append(resEq9, pairs.Pair{Src: vi, Dst: vj})
				}
			}
		}
		for _, vj := range vjs {
			// Pair-level enumeration: vertices of From(v_j) repeat across
			// the v_j of one v_i whenever their ends share SCCs — each
			// repetition costs a duplicate check here (redundant-1/-2).
			from := closure.From(vj)
			if cancelErr = e.checkpoint(len(from)); cancelErr != nil {
				return false
			}
			for _, vk := range from {
				if seenV.add(vk) {
					resEq9 = append(resEq9, pairs.Pair{Src: vi, Dst: vk})
				}
			}
		}
		return true
	})
	sc.resEq9 = resEq9
	e.addPreJoin(time.Since(joinStart))
	if cancelErr != nil {
		e.releaseScratch(sc)
		return nil, cancelErr
	}

	return e.joinPost(sc, post)
}

// EvalBatchUnitBackward is the mirror image of EvalBatchUnit, chosen by
// the cost-based planner when Post_G is far more selective than Pre_G:
// the join is driven from Post's start vertices through the *transposed*
// RTC, and Pre_G — already materialised — is joined in last from the
// destination side. The elimination structure is Algorithm 2's under
// transposition: SCC collapses play the redundant-1/2 roles per distinct
// result end vertex v_l, and member expansion needs no duplicate check.
// Both relations arrive sealed, so the end-vertex runs this direction
// wants are Post_G's transposed columns — built once per relation, then
// reused by every batch unit that probes the same Post.
func (e *engineVersion) EvalBatchUnitBackward(preG *pairs.Relation, structure *rtc.RTC, typ rpq.ClosureType, postG *pairs.Relation) (*pairs.Relation, error) {
	joinStart := time.Now()

	sc := e.acquireScratch()
	seen7 := &sc.seenA // transposed ResEq7, per v_l
	seen8 := &sc.seenB // transposed ResEq8, per v_l

	// resEq9 holds (v_l, v_j): the R{+,*} ⋈ Post_G tuples transposed,
	// grouped by the result end vertex v_l.
	var cancelErr error
	resEq9 := sc.resEq9[:0]
	postG.EachDst(func(vl graph.VID, vks []graph.VID) bool {
		if cancelErr = e.checkpoint(len(vks)); cancelErr != nil {
			return false
		}
		seen7.reset()
		seen8.reset()
		if typ == rpq.ClosureStar {
			// Pre·R*·Post ⊇ Pre·Post: the zero-iteration paths join Pre
			// directly to Post's start vertices (v_j = v_k).
			for _, vk := range vks {
				resEq9 = append(resEq9, pairs.Pair{Src: vl, Dst: vk})
			}
		}
		for _, vk := range vks {
			sk := structure.CompOf(vk)
			if sk < 0 {
				continue // v_k ∉ V_R ends no R+ path
			}
			if !seen7.add(sk) {
				continue
			}
			for _, sj := range structure.ReachableInto(sk) {
				if !seen8.add(int32(sj)) {
					continue
				}
				members := structure.Members(int32(sj))
				if cancelErr = e.checkpoint(len(members)); cancelErr != nil {
					return false
				}
				for _, vj := range members {
					resEq9 = append(resEq9, pairs.Pair{Src: vl, Dst: vj})
				}
			}
		}
		return true
	})
	sc.resEq9 = resEq9
	e.addPreJoin(time.Since(joinStart))
	if cancelErr != nil {
		e.releaseScratch(sc)
		return nil, cancelErr
	}

	return e.joinPreBackward(sc, preG)
}

// EvalBatchUnitFullBackward is the backward join over the full closure:
// pair-level enumeration through the transposed closure with duplicate
// checks everywhere, exactly as EvalBatchUnitFull is the pair-level
// forward join.
func (e *engineVersion) EvalBatchUnitFullBackward(preG *pairs.Relation, closure *tc.Closure, typ rpq.ClosureType, postG *pairs.Relation) (*pairs.Relation, error) {
	joinStart := time.Now()

	sc := e.acquireScratch()
	seenV := &sc.seenA

	var cancelErr error
	resEq9 := sc.resEq9[:0]
	postG.EachDst(func(vl graph.VID, vks []graph.VID) bool {
		if cancelErr = e.checkpoint(len(vks)); cancelErr != nil {
			return false
		}
		seenV.reset()
		if typ == rpq.ClosureStar {
			for _, vk := range vks {
				if seenV.add(vk) {
					resEq9 = append(resEq9, pairs.Pair{Src: vl, Dst: vk})
				}
			}
		}
		for _, vk := range vks {
			into := closure.Into(vk)
			if cancelErr = e.checkpoint(len(into)); cancelErr != nil {
				return false
			}
			for _, vj := range into {
				if seenV.add(vj) {
					resEq9 = append(resEq9, pairs.Pair{Src: vl, Dst: vj})
				}
			}
		}
		return true
	})
	sc.resEq9 = resEq9
	e.addPreJoin(time.Since(joinStart))
	if cancelErr != nil {
		e.releaseScratch(sc)
		return nil, cancelErr
	}

	return e.joinPreBackward(sc, preG)
}

// joinPreBackward finishes a backward batch unit: sc.resEq9 holds (v_l,
// v_j) tuples grouped by ascending v_l, and every Pre_G tuple (v_i, v_j)
// extends one to a result (v_i, v_l). Like the forward joinPost this is
// Remainder time (the strategies share it identically); the row
// kernel's duplicate check on v_i per v_l mirrors joinPost's on v_l per
// v_i. Pre_G is walked end-vertex-first through its transposed columns
// — one lazy build per relation, in place of the seed's per-call
// re-bucketing. The rows are keyed by v_l, so they seal through one
// transpose into the (v_i, v_l) relation; its runs come out sorted. The
// scratch is released on return.
func (e *engineVersion) joinPreBackward(sc *joinScratch, preG *pairs.Relation) (*pairs.Relation, error) {
	t0 := time.Now()
	defer func() { e.addRemainder(time.Since(t0)) }()
	defer e.releaseScratch(sc)

	rows := &sc.rows
	resEq9 := sc.resEq9
	for i := 0; i < len(resEq9); {
		vl := resEq9[i].Src
		rows.Begin(vl)
		for ; i < len(resEq9) && resEq9[i].Src == vl; i++ {
			srcs := preG.SrcsOf(resEq9[i].Dst)
			if err := e.checkpoint(len(srcs) + 1); err != nil {
				return nil, err
			}
			rows.AddAll(srcs)
		}
		rows.EndRow()
	}
	return rows.SealTransposed(), nil
}

// joinPost implements equations (9)→(10) — Algorithm 2 lines 13–16: for
// every (v_i, v_k) of the Pre·R{+,*} result, extend by the paths
// satisfying Post from v_k (EvalRestrictedRPQ), unioning into ResEq10.
// Both sharing strategies run this identically; it is Remainder time.
// sc.resEq9 must be grouped by ascending Src, which both join
// implementations guarantee, so each v_i's extensions form one row of
// the row kernel: its bitmap is the duplicate check of lines 15–16, and
// the row lands sorted in the sealed column. The scratch is released on
// return.
func (e *engineVersion) joinPost(sc *joinScratch, post rpq.Expr) (*pairs.Relation, error) {
	t0 := time.Now()
	defer func() { e.addRemainder(time.Since(t0)) }()
	defer e.releaseScratch(sc)

	_, postIsEps := post.(rpq.Epsilon)
	var evalPost *eval.Evaluator
	if !postIsEps {
		var evalKey string
		evalPost, evalKey = e.acquireEvaluator(post)
		defer e.releaseEvaluator(evalKey, evalPost)
		sc.post.reset(e.g.NumVertices())
	}

	rows := &sc.rows
	resEq9 := sc.resEq9
	for i := 0; i < len(resEq9); {
		vi := resEq9[i].Src
		rows.Begin(vi)
		for ; i < len(resEq9) && resEq9[i].Src == vi; i++ {
			if err := e.checkpoint(1); err != nil {
				return nil, err
			}
			vk := resEq9[i].Dst
			if postIsEps {
				// Post = ε: ResEq10 is ResEq9 de-duplicated. Duplicates
				// only arise from the R* seeding.
				rows.Add(vk)
				continue
			}
			rows.AddAll(sc.post.ends(evalPost, vk))
		}
		rows.EndRow()
	}
	return rows.Seal(), nil
}
