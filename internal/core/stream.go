package core

import (
	"context"
	"errors"

	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/plan"
	"rtcshare/internal/rpq"
	"rtcshare/internal/tc"
)

// This file is the enumeration-grade delivery layer: a pull-based result
// stream that yields (src, dst) pairs in exactly the order a sealed
// relation would hold them — per-source ascending, each source's
// destination run sorted and duplicate-free — without ever sealing the
// full top-level relation. The batch-unit join still runs through the
// shared structures (sub-relations, RTCs and closures resolve through
// the same caches as sealed evaluation, at stream-open time), but the
// top-level ResEq10 union is re-driven one source vertex at a time, so
// the peak working set is one source's run plus the pooled join scratch
// instead of the whole answer.
//
// Determinism is the load-bearing property: a stream, a sealed
// evaluation and a cursor-resumed page over the same graph epoch must
// agree pair-for-pair, prefix included. The per-source re-drive gives
// that for free — sealed evaluation and the stream both emit each
// source's run through the same pairs.RowBuilder kernel, ascending and
// duplicate-free, sources in ascending order — which the differential
// streaming suite enforces across layouts and planners.

// ErrStreamClosed is returned by Next after Close.
var ErrStreamClosed = errors.New("core: result stream closed")

// StreamOptions configure OpenStream.
type StreamOptions struct {
	// Limit, when positive, stops the stream after that many pairs —
	// exactly the first Limit pairs of the sealed (src, dst) order, so a
	// LIMIT k response is a prefix of the full answer.
	Limit int
}

// StreamStats is the instrumentation counter set of one stream or ASK
// probe: how much work the short-circuit modes actually did. Rows
// counts join/traversal tuples touched; Sources counts source vertices
// whose runs were produced; Pairs counts pairs handed to the caller.
type StreamStats struct {
	Sources int64
	Rows    int64
	Pairs   int64
}

// ResultStream enumerates one query's result in deterministic sealed
// order. It is pinned to the graph epoch current at OpenStream: the
// engine version it forked is immutable, so concurrent ApplyUpdates
// never perturb an open stream. Not safe for concurrent use; the
// goroutine that opened it must drive Next and Close.
type ResultStream struct {
	owner  *Engine
	worker *Engine
	v      *engineVersion
	epoch  uint64
	query  rpq.Expr

	limit int

	// sealed, when non-nil, backs the stream with an already-sealed
	// relation (memo-warm fast path, LayoutMapSet fallback) instead of
	// the per-source re-drive.
	sealed    *pairs.Relation
	sealedPos int

	clauses []*clauseStream
	scratch *joinScratch // rows = the per-source run, deduplicated across clauses

	nextSrc int
	curSrc  graph.VID
	run     []graph.VID
	runPos  int

	stats  StreamStats
	done   bool
	closed bool
	err    error
}

// clauseStream is the per-clause producer: the resolved inputs of one
// planned clause, re-driven one source vertex at a time. Shared-plan
// clauses always execute in forward orientation — streaming must emit
// in ascending source order, which only the Pre-driven loop yields; the
// backward direction remains an ASK-only optimisation.
type clauseStream struct {
	cp plan.ClausePlan

	// KindAutomaton: the product-traversal evaluator plus the candidate
	// start filter (nil seedable means every vertex is a candidate).
	ev       *eval.Evaluator
	evKey    string
	seedable []bool

	// KindShared: the resolved side inputs.
	preG      *pairs.Relation
	structure rtcHandle
	closure   *tc.Closure
	post      rpq.Expr
	postIsEps bool
	postEv    *eval.Evaluator
	postKey   string

	sc   *joinScratch // seenA/seenB = per-source ResEq7/ResEq8 stamps; post = the Post memo
	mids []graph.VID  // per-source Pre⋈R{+,*} frontier
}

// rtcHandle is the slice of the RTC interface the re-drive needs; it
// keeps clauseStream testable without building real structures.
type rtcHandle interface {
	CompOf(v graph.VID) int32
	ReachableFrom(sid int32) []graph.VID
	ReachableInto(sid int32) []graph.VID
	Members(sid int32) []graph.VID
}

// OpenStream opens a pull-based stream over the result of q, pinned to
// the engine's current graph epoch. All shared inputs — sub-relations,
// closure structures, compiled evaluators — are resolved before
// OpenStream returns (through the same caches sealed evaluation uses),
// so Next touches only immutable version-local state: a caller may
// drop any lock that guarded the open before draining the stream.
//
// A memo-warm query streams from its cached sealed relation; a
// LayoutMapSet engine evaluates sealed and streams from the result
// (the map executor has no columnar runs to re-drive). Everything else
// streams live: the batch-unit join is re-driven one source vertex at a
// time, with a cancellation checkpoint per source run.
func (e *Engine) OpenStream(ctx context.Context, q rpq.Expr, opts StreamOptions) (rs *ResultStream, err error) {
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}
	if rel, epoch, ok := e.CachedResult(q); ok {
		s := streamFromRelation(rel, epoch)
		s.query = q
		s.limit = opts.Limit
		return s, nil
	}

	worker := e.Fork()
	worker.setCancel(ctx)
	// handoff marks the worker's ownership as settled — transferred to
	// the stream, or already absorbed — so the panic-recovery defer never
	// folds its stats back twice.
	handoff := false
	defer func() {
		r := recover()
		if !handoff && (r != nil || err != nil) {
			worker.setCancel(nil)
			e.absorb(worker)
		}
		asPanicError(q.String(), r, &err)
	}()

	if e.opts.Layout == LayoutMapSet {
		rel, epoch, serr := worker.EvaluateRelEpoch(q)
		worker.setCancel(nil)
		e.absorb(worker)
		handoff = true
		if serr != nil {
			return nil, serr
		}
		s := streamFromRelation(rel, epoch)
		s.query = q
		s.limit = opts.Limit
		return s, nil
	}

	v := worker.version()
	s := &ResultStream{
		owner:  e,
		worker: worker,
		v:      v,
		epoch:  v.epoch,
		query:  q,
		limit:  opts.Limit,
	}
	if oerr := s.open(q); oerr != nil {
		s.release()
		handoff = true
		return nil, oerr
	}
	handoff = true
	return s, nil
}

// streamFromRelation wraps an already-sealed relation as a ResultStream
// at the given epoch — the memo-warm fast path and the LayoutMapSet
// fallback.
func streamFromRelation(rel *pairs.Relation, epoch uint64) *ResultStream {
	return &ResultStream{sealed: rel, epoch: epoch}
}

// open plans q and resolves every clause's inputs eagerly.
func (s *ResultStream) open(q rpq.Expr) error {
	v := s.v
	clauses, err := rpq.ToDNFLimit(q, v.maxClauses())
	if err != nil {
		return err
	}
	qp := v.planner().Plan(q, clauses)
	s.scratch = v.acquireScratch()
	for i := range qp.Clauses {
		cs, err := s.openClause(&qp.Clauses[i])
		if err != nil {
			return err
		}
		s.clauses = append(s.clauses, cs)
	}
	return nil
}

// openClause resolves one planned clause's inputs. Shared plans run
// forward regardless of the planned direction: the stream's contract is
// ascending source order, which the Post-driven backward loop cannot
// produce incrementally.
func (s *ResultStream) openClause(cp *plan.ClausePlan) (*clauseStream, error) {
	v := s.v
	cs := &clauseStream{cp: *cp}
	if cp.Kind == plan.KindAutomaton {
		cs.ev, cs.evKey = v.acquireEvaluator(cp.Clause)
		if seeds, ok := eval.CandidateStarts(v.g, cp.Clause); ok {
			seedable := make([]bool, v.g.NumVertices())
			for _, vid := range seeds {
				seedable[vid] = true
			}
			cs.seedable = seedable
		}
		return cs, nil
	}

	bu := cp.Unit
	preG, err := v.subEvaluateRel(bu.Pre)
	if err != nil {
		return cs, err
	}
	cs.preG = preG
	switch v.opts.Strategy {
	case RTCSharing:
		structure, err := v.getRTC(bu.R)
		if err != nil {
			return cs, err
		}
		cs.structure = structure
	default: // FullSharing, NoSharing
		closure, err := v.getFullClosure(bu.R)
		if err != nil {
			return cs, err
		}
		cs.closure = closure
	}
	cs.post = bu.Post
	_, cs.postIsEps = bu.Post.(rpq.Epsilon)
	cs.sc = v.acquireScratch()
	if !cs.postIsEps {
		cs.postEv, cs.postKey = v.acquireEvaluator(bu.Post)
		cs.sc.post.reset(v.g.NumVertices())
	}
	return cs, nil
}

// Epoch returns the graph epoch the stream is pinned to.
func (s *ResultStream) Epoch() uint64 { return s.epoch }

// Stats returns the stream's work counters so far.
func (s *ResultStream) Stats() StreamStats { return s.stats }

// Next fills buf with the next pairs of the sealed (src, dst) order and
// reports how many were written plus whether the stream is exhausted.
// It may return n > 0 together with done. After an error (cancellation,
// or a recovered evaluation panic) the stream is dead: the same error
// returns on every subsequent call.
func (s *ResultStream) Next(buf []pairs.Pair) (n int, done bool, err error) {
	if s.closed {
		return 0, true, ErrStreamClosed
	}
	if s.err != nil {
		return 0, true, s.err
	}
	if s.done {
		return 0, true, nil
	}
	defer func() {
		if r := recover(); r != nil {
			asPanicError(s.query.String(), r, &s.err)
			n, done, err = 0, true, s.err
		}
	}()

	if s.sealed != nil {
		return s.nextSealed(buf)
	}

	for n < len(buf) {
		if s.runPos >= len(s.run) {
			if err := s.fillRun(); err != nil {
				s.err = err
				return n, true, err
			}
			if s.done {
				return n, true, nil
			}
		}
		for s.runPos < len(s.run) && n < len(buf) {
			buf[n] = pairs.Pair{Src: s.curSrc, Dst: s.run[s.runPos]}
			n++
			s.runPos++
			s.stats.Pairs++
			if s.limit > 0 && s.stats.Pairs >= int64(s.limit) {
				s.done = true
				return n, true, nil
			}
		}
	}
	if s.runPos >= len(s.run) && s.nextSrc >= s.v.g.NumVertices() {
		s.done = true
	}
	return n, s.done, nil
}

// nextSealed pages through the backing sealed relation.
func (s *ResultStream) nextSealed(buf []pairs.Pair) (int, bool, error) {
	remaining := s.sealed.Len() - s.sealedPos
	if s.limit > 0 {
		if left := s.limit - int(s.stats.Pairs); left < remaining {
			remaining = left
		}
	}
	if remaining <= 0 {
		s.done = true
		return 0, true, nil
	}
	want := len(buf)
	if want > remaining {
		want = remaining
	}
	n := s.sealed.PageInto(s.sealedPos, buf[:want])
	s.sealedPos += n
	s.stats.Pairs += int64(n)
	s.done = s.sealedPos >= s.sealed.Len() ||
		(s.limit > 0 && s.stats.Pairs >= int64(s.limit))
	return n, s.done, nil
}

// fillRun advances to the next source vertex with a non-empty merged
// run, producing it in sorted, duplicate-free order — one sealed CSR
// run, built without sealing. Sets s.done when sources are exhausted.
func (s *ResultStream) fillRun() error {
	numV := s.v.g.NumVertices()
	rows := &s.scratch.rows
	for s.nextSrc < numV {
		vi := graph.VID(s.nextSrc)
		s.nextSrc++
		if err := s.worker.checkpoint(1); err != nil {
			return err
		}
		// One row at a time: Reset drops the drained run, so the kernel
		// holds only the current source's destinations.
		rows.Reset()
		rows.Begin(vi)
		for _, cs := range s.clauses {
			if err := cs.appendDsts(s, vi, rows); err != nil {
				return err
			}
		}
		s.run = rows.EndRow()
		if len(s.run) > 0 {
			s.curSrc = vi
			s.runPos = 0
			s.stats.Sources++
			return nil
		}
	}
	s.done = true
	return nil
}

// appendDsts adds source vi's destinations under this clause to the open
// row of rows, whose bitmap deduplicates across clauses. It is the
// per-source slice of exactly the work EvalBatchUnit/EvalBatchUnitFull +
// joinPost (or AppendAllSeeded, for automaton plans) perform for vi.
func (cs *clauseStream) appendDsts(s *ResultStream, vi graph.VID, rows *pairs.RowBuilder) error {
	if cs.cp.Kind == plan.KindAutomaton {
		if cs.seedable != nil && !cs.seedable[vi] {
			return nil
		}
		cs.mids = cs.ev.AppendReachFrom(vi, cs.mids[:0])
		s.stats.Rows += int64(len(cs.mids))
		rows.AddAll(cs.mids)
		return nil
	}

	vjs := cs.preG.DstsOf(vi)
	if len(vjs) == 0 {
		return nil
	}
	if err := s.worker.checkpoint(len(vjs)); err != nil {
		return err
	}
	s.stats.Rows += int64(len(vjs))

	// Pre ⋈ R{+,*}: the per-vi frontier, exactly EvalBatchUnit's resEq9
	// group for vi (RTCSharing) or EvalBatchUnitFull's (Full/NoSharing).
	cs.mids = cs.mids[:0]
	seen7, seen8 := &cs.sc.seenA, &cs.sc.seenB
	seen7.reset()
	seen8.reset()
	if cs.cp.Unit.Type == rpq.ClosureStar {
		cs.mids = append(cs.mids, vjs...)
	}
	if cs.structure != nil {
		for _, vj := range vjs {
			sj := cs.structure.CompOf(vj)
			if sj < 0 {
				continue
			}
			if !seen7.add(sj) {
				continue
			}
			for _, sk := range cs.structure.ReachableFrom(sj) {
				if !seen8.add(int32(sk)) {
					continue
				}
				members := cs.structure.Members(int32(sk))
				if err := s.worker.checkpoint(len(members)); err != nil {
					return err
				}
				s.stats.Rows += int64(len(members))
				cs.mids = append(cs.mids, members...)
			}
		}
	} else {
		// Full-closure enumeration dedups the frontier itself (the
		// redundant-1/-2 checks); seen8 plays EvalBatchUnitFull's seenV.
		// The Star seeds above may duplicate frontier members, but the
		// row kernel dedups the emitted run regardless.
		for _, vj := range vjs {
			from := cs.closure.From(vj)
			if err := s.worker.checkpoint(len(from)); err != nil {
				return err
			}
			s.stats.Rows += int64(len(from))
			for _, vk := range from {
				if seen8.add(vk) {
					cs.mids = append(cs.mids, vk)
				}
			}
		}
	}

	// Post extension: joinPost's per-vi slice, with the same per-clause
	// ReachFrom memo.
	if cs.postIsEps {
		rows.AddAll(cs.mids)
		return nil
	}
	for _, vk := range cs.mids {
		if err := s.worker.checkpoint(1); err != nil {
			return err
		}
		ends := cs.sc.post.ends(cs.postEv, vk)
		s.stats.Rows += int64(len(ends))
		rows.AddAll(ends)
	}
	return nil
}

// Close releases the stream's pooled resources and folds the worker's
// timing split back into the owning engine. Idempotent; Next after
// Close returns ErrStreamClosed.
func (s *ResultStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.release()
}

func (s *ResultStream) release() {
	for _, cs := range s.clauses {
		if cs.ev != nil {
			s.v.releaseEvaluator(cs.evKey, cs.ev)
		}
		if cs.postEv != nil {
			s.v.releaseEvaluator(cs.postKey, cs.postEv)
		}
		if cs.sc != nil {
			s.v.releaseScratch(cs.sc)
		}
	}
	s.clauses = nil
	if s.scratch != nil {
		s.v.releaseScratch(s.scratch)
		s.scratch = nil
	}
	if s.worker != nil {
		s.worker.setCancel(nil)
		s.owner.absorb(s.worker)
		s.worker = nil
	}
}

// Ask reports whether the result of q is non-empty, stopping the moment
// the first pair is found. See AskCounted for the instrumented form.
func (e *Engine) Ask(ctx context.Context, q rpq.Expr) (bool, uint64, error) {
	found, epoch, _, err := e.AskCounted(ctx, q)
	return found, epoch, err
}

// AskCounted is Ask plus the rows-scanned counter the short-circuit
// tests assert on: the probe stops within one source expansion of the
// first hit, so rows stays far below the full evaluation's row count on
// any non-trivial answer. Clause probes follow the planner's ASK
// direction choice (PlanClauseAsk): a selective Post drives the probe
// backward through the transposed structure, reaching a first hit
// without expanding Pre's whole fan-out.
func (e *Engine) AskCounted(ctx context.Context, q rpq.Expr) (found bool, epoch uint64, rows int64, err error) {
	if rel, ep, ok := e.CachedResult(q); ok {
		return rel.Len() > 0, ep, 0, nil
	}
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return false, e.Epoch(), 0, cerr
		}
	}
	worker := e.Fork()
	worker.setCancel(ctx)
	defer func() {
		r := recover()
		e.absorb(worker)
		asPanicError(q.String(), r, &err)
	}()

	v := worker.version()
	epoch = v.epoch
	if e.opts.Layout == LayoutMapSet {
		rel, rerr := worker.Evaluate(q)
		if rerr != nil {
			return false, epoch, 0, rerr
		}
		return rel.Len() > 0, epoch, int64(rel.Len()), nil
	}
	found, rows, err = v.askPlanned(q)
	return found, epoch, rows, err
}

// askPlanned checks result existence clause by clause, stopping at the
// first clause that yields a pair.
func (v *engineVersion) askPlanned(q rpq.Expr) (bool, int64, error) {
	clauses, err := rpq.ToDNFLimit(q, v.maxClauses())
	if err != nil {
		return false, 0, err
	}
	var rows int64
	for _, clause := range clauses {
		cp := v.planner().PlanClauseAsk(clause)
		found, err := v.askClause(&cp, &rows)
		if err != nil {
			return false, rows, err
		}
		if found {
			return true, rows, nil
		}
	}
	return false, rows, nil
}

// askClause probes one planned clause for existence.
func (v *engineVersion) askClause(cp *plan.ClausePlan, rows *int64) (bool, error) {
	if cp.Kind == plan.KindAutomaton {
		ev, key := v.acquireEvaluator(cp.Clause)
		defer v.releaseEvaluator(key, ev)
		starts, ok := eval.CandidateStarts(v.g, cp.Clause)
		if !ok {
			starts = nil
		}
		probe := func(vi graph.VID) bool {
			*rows++
			return ev.AnyFrom(vi)
		}
		if starts != nil {
			for _, vi := range starts {
				if err := v.checkpoint(1); err != nil {
					return false, err
				}
				if probe(vi) {
					return true, nil
				}
			}
			return false, nil
		}
		for vi := 0; vi < v.g.NumVertices(); vi++ {
			if err := v.checkpoint(1); err != nil {
				return false, err
			}
			if probe(graph.VID(vi)) {
				return true, nil
			}
		}
		return false, nil
	}

	bu := cp.Unit
	preG, err := v.subEvaluateRel(bu.Pre)
	if err != nil {
		return false, err
	}
	var (
		structure rtcHandle
		closure   *tc.Closure
	)
	switch v.opts.Strategy {
	case RTCSharing:
		if structure, err = v.getRTC(bu.R); err != nil {
			return false, err
		}
	default:
		if closure, err = v.getFullClosure(bu.R); err != nil {
			return false, err
		}
	}
	if cp.Direction == plan.Backward {
		postG, err := v.subEvaluateRel(bu.Post)
		if err != nil {
			return false, err
		}
		return v.askBackward(cp, preG, postG, structure, closure, rows)
	}
	return v.askForward(cp, preG, structure, closure, rows)
}

// askForward drives the existence probe from Pre's side, stopping at
// the first (vi, vl): the forward stream's fillRun, truncated.
func (v *engineVersion) askForward(cp *plan.ClausePlan, preG *pairs.Relation, structure rtcHandle, closure *tc.Closure, rows *int64) (found bool, err error) {
	var postEv *eval.Evaluator
	_, postIsEps := cp.Unit.Post.(rpq.Epsilon)
	if !postIsEps {
		var key string
		postEv, key = v.acquireEvaluator(cp.Unit.Post)
		defer v.releaseEvaluator(key, postEv)
	}
	sc := v.acquireScratch()
	defer v.releaseScratch(sc)
	seen7, seen8 := &sc.seenA, &sc.seenB

	// hasPost reports whether vk extends to any result end vertex.
	hasPost := func(vk graph.VID) bool {
		if postIsEps {
			return true
		}
		*rows++
		return postEv.AnyFrom(vk)
	}

	preG.EachSrc(func(vi graph.VID, vjs []graph.VID) bool {
		if err = v.checkpoint(len(vjs)); err != nil {
			return false
		}
		*rows += int64(len(vjs))
		seen7.reset()
		seen8.reset()
		if cp.Unit.Type == rpq.ClosureStar {
			for _, vj := range vjs {
				if hasPost(vj) {
					found = true
					return false
				}
			}
		}
		for _, vj := range vjs {
			if structure != nil {
				sj := structure.CompOf(vj)
				if sj < 0 || !seen7.add(sj) {
					continue
				}
				for _, sk := range structure.ReachableFrom(sj) {
					if !seen8.add(int32(sk)) {
						continue
					}
					for _, vk := range structure.Members(int32(sk)) {
						*rows++
						if hasPost(vk) {
							found = true
							return false
						}
					}
					if err = v.checkpoint(1); err != nil {
						return false
					}
				}
			} else {
				from := closure.From(vj)
				if err = v.checkpoint(len(from)); err != nil {
					return false
				}
				for _, vk := range from {
					*rows++
					if !seen8.add(vk) {
						continue
					}
					if hasPost(vk) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found, err
}

// askBackward drives the existence probe from Post's side through the
// transposed structure, probing Pre's end-vertex runs — cheaper when
// Post is far more selective than Pre, which is exactly when
// PlanClauseAsk picks it.
func (v *engineVersion) askBackward(cp *plan.ClausePlan, preG, postG *pairs.Relation, structure rtcHandle, closure *tc.Closure, rows *int64) (found bool, err error) {
	sc := v.acquireScratch()
	defer v.releaseScratch(sc)
	seen7, seen8 := &sc.seenA, &sc.seenB

	// hasPre reports whether any Pre tuple ends at vj.
	hasPre := func(vj graph.VID) bool {
		*rows++
		return len(preG.SrcsOf(vj)) > 0
	}

	postG.EachDst(func(vl graph.VID, vks []graph.VID) bool {
		if err = v.checkpoint(len(vks)); err != nil {
			return false
		}
		*rows += int64(len(vks))
		seen7.reset()
		seen8.reset()
		if cp.Unit.Type == rpq.ClosureStar {
			for _, vk := range vks {
				if hasPre(vk) {
					found = true
					return false
				}
			}
		}
		for _, vk := range vks {
			if structure != nil {
				sk := structure.CompOf(vk)
				if sk < 0 || !seen7.add(sk) {
					continue
				}
				for _, sj := range structure.ReachableInto(sk) {
					if !seen8.add(int32(sj)) {
						continue
					}
					for _, vj := range structure.Members(int32(sj)) {
						if hasPre(vj) {
							found = true
							return false
						}
					}
					if err = v.checkpoint(1); err != nil {
						return false
					}
				}
			} else {
				into := closure.Into(vk)
				if err = v.checkpoint(len(into)); err != nil {
					return false
				}
				for _, vj := range into {
					if !seen8.add(vj) {
						continue
					}
					if hasPre(vj) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found, err
}
