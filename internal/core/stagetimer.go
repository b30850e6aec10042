package core

import (
	"time"

	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// StageTimer is the per-request latency breakdown of one query
// evaluation: a flat struct of nanosecond counters, one per pipeline
// stage, cheap enough to thread through the hot path without
// allocating. The HTTP handler attributes the decode and page stages,
// the serving layer the queue stage, and the engine plan, closure-build,
// join, seal and the traversal/union remainder (Other). The server
// stamps its stages as consecutive intervals of one clock and charges
// whatever engine time no engine stage claimed to Other, so for a
// served request the stages partition the wall time exactly.
//
// A StageTimer is not safe for concurrent writers. The engine
// guarantees single-writer use by attaching a timer only to private
// worker forks (one evaluation at a time); see EvaluateRelTimed and
// EvaluateBatchParallelRelTimed.
type StageTimer struct {
	// DecodeNS covers request decoding, query parsing and cursor
	// decoding in the HTTP handler.
	DecodeNS int64 `json:"decode_ns"`
	// QueueNS covers the result-memo probe and the wait for an
	// evaluation slot.
	QueueNS int64 `json:"queue_ns"`
	// PlanNS covers DNF conversion and clause planning.
	PlanNS int64 `json:"plan_ns"`
	// ClosureBuildNS covers computing the shared closure structure —
	// TC(Ḡ_R) for RTCSharing, TC(G_R) for FullSharing — or waiting for
	// another goroutine's in-flight computation of it.
	ClosureBuildNS int64 `json:"closure_build_ns"`
	// JoinNS is the Pre ⋈ closure join (Algorithm 2).
	JoinNS int64 `json:"join_ns"`
	// SealNS is relation sealing: counting-sort into frozen CSR columns.
	SealNS int64 `json:"seal_ns"`
	// PageNS is result paging and response assembly in the HTTP handler.
	PageNS int64 `json:"page_ns"`
	// OtherNS is everything else the engine does: automaton traversals,
	// sub-query evaluation boundaries, unions, set materialisation.
	OtherNS int64 `json:"other_ns"`
}

// Sum returns the total attributed time across all stages.
func (t *StageTimer) Sum() time.Duration {
	return time.Duration(t.DecodeNS + t.QueueNS + t.PlanNS +
		t.ClosureBuildNS + t.JoinNS + t.SealNS + t.PageNS + t.OtherNS)
}

// Add folds other into t stage by stage.
func (t *StageTimer) Add(other *StageTimer) {
	t.DecodeNS += other.DecodeNS
	t.QueueNS += other.QueueNS
	t.PlanNS += other.PlanNS
	t.ClosureBuildNS += other.ClosureBuildNS
	t.JoinNS += other.JoinNS
	t.SealNS += other.SealNS
	t.PageNS += other.PageNS
	t.OtherNS += other.OtherNS
}

// setStages attaches (or detaches, with nil) a per-request stage timer
// to this engine. Attribution happens under the same mutex as the
// three-part Stats split, so attaching a timer to a private fork adds
// no new synchronisation to the hot path.
func (e *Engine) setStages(st *StageTimer) {
	e.mu.Lock()
	e.stages = st
	e.mu.Unlock()
}

// EvaluateRelTimed is EvaluateRelEpoch with per-stage attribution into
// st: the single-query timed entry. The evaluation runs on a private
// fork so the timer has exactly one writer; the fork's Stats fold back
// into the receiver as usual. A nil st degenerates to EvaluateRelEpoch.
func (e *Engine) EvaluateRelTimed(q rpq.Expr, st *StageTimer) (*pairs.Relation, uint64, error) {
	if st == nil {
		return e.EvaluateRelEpoch(q)
	}
	worker := e.Fork()
	worker.setStages(st)
	rel, epoch, err := worker.EvaluateRelEpoch(q)
	worker.setStages(nil)
	e.absorb(worker)
	return rel, epoch, err
}
