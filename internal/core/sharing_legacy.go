package core

import (
	"time"

	"rtcshare/internal/pairs"
	"rtcshare/internal/plan"
	"rtcshare/internal/rpq"
)

// This file is the LayoutMapSet half of the plan-execute split: the
// seed's evaluation pipeline over map-backed pair sets, preserved
// end-to-end (engine-local Set memo, per-call re-bucketing joins, hash
// inserts, Set unions) so the layout experiment has an honest baseline.
// Planning, strategy semantics and the timing split are identical to the
// columnar path; only the data plane differs.

// evaluatePlannedMap is evaluatePlanned over the map layout.
func (e *engineVersion) evaluatePlannedMap(q rpq.Expr, obs *planObserver) (*pairs.Set, error) {
	start := time.Now()
	clauses, err := rpq.ToDNFLimit(q, e.maxClauses())
	if err != nil {
		e.addRemainder(time.Since(start))
		return nil, err
	}
	qp := e.planner().Plan(q, clauses)
	e.addRemainder(time.Since(start))
	if obs != nil {
		obs.plan = qp
		obs.actuals = make([]clauseActuals, len(qp.Clauses))
	}

	var result *pairs.Set
	for i := range qp.Clauses {
		t0 := time.Now()
		clauseG, act, err := e.execClauseMap(&qp.Clauses[i])
		if err != nil {
			return nil, err
		}
		if obs != nil {
			act.Result = clauseG.Len()
			act.Elapsed = time.Since(t0)
			obs.actuals[i] = act
		}
		t0 = time.Now()
		if result == nil {
			// First clause: adopt its (fresh) result set instead of
			// copying it pair by pair. With a single-clause DNF — the
			// common case — the final union disappears entirely.
			result = clauseG
		} else {
			result.Union(clauseG)
		}
		e.addRemainder(time.Since(t0))
	}
	if result == nil {
		result = pairs.NewSet()
	}
	return result, nil
}

// execClauseMap executes one planned clause on the map layout.
func (e *engineVersion) execClauseMap(cp *plan.ClausePlan) (*pairs.Set, clauseActuals, error) {
	act := clauseActuals{Pre: -1, Post: -1}

	if cp.Kind == plan.KindAutomaton {
		t0 := time.Now()
		ev, key := e.acquireEvaluator(cp.Clause)
		clauseG := ev.EvaluateAllSeeded()
		e.releaseEvaluator(key, ev)
		e.addRemainder(time.Since(t0))
		return clauseG, act, nil
	}

	bu := cp.Unit
	preG, err := e.subEvaluateMap(bu.Pre)
	if err != nil {
		return nil, act, err
	}
	act.Pre = preG.Len()

	var postG *pairs.Set
	if cp.Direction == plan.Backward {
		if postG, err = e.subEvaluateMap(bu.Post); err != nil {
			return nil, act, err
		}
		act.Post = postG.Len()
	}

	var clauseG *pairs.Set
	switch e.opts.Strategy {
	case RTCSharing:
		r, err := e.getRTC(bu.R)
		if err != nil {
			return nil, act, err
		}
		if cp.Direction == plan.Backward {
			clauseG, err = e.evalBatchUnitBackwardMap(preG, r, bu.Type, postG)
		} else {
			clauseG, err = e.evalBatchUnitMap(preG, r, bu.Type, bu.Post)
		}
		if err != nil {
			return nil, act, err
		}
	case FullSharing, NoSharing:
		closure, err := e.getFullClosure(bu.R)
		if err != nil {
			return nil, act, err
		}
		if cp.Direction == plan.Backward {
			clauseG, err = e.evalBatchUnitFullBackwardMap(preG, closure, bu.Type, postG)
		} else {
			clauseG, err = e.evalBatchUnitFullMap(preG, closure, bu.Type, bu.Post)
		}
		if err != nil {
			return nil, act, err
		}
	}
	return clauseG, act, nil
}

// subEvaluateMap evaluates a sub-query with the engine's own sharing
// strategy, memoising the result Set per engine — the seed's discipline:
// map sets can be O(|V|²), so they live and die with the engine while
// only compact structures persist process-wide. Memoised sets are
// immutable by contract; every consumer only reads them.
func (e *engineVersion) subEvaluateMap(q rpq.Expr) (*pairs.Set, error) {
	if !e.shouldCache() {
		return e.evaluatePlannedMap(q, nil)
	}
	key := q.String()
	e.subMu.Lock()
	res, ok := e.subSets[key]
	e.subMu.Unlock()
	if ok {
		return res, nil
	}
	res, err := e.evaluatePlannedMap(q, nil)
	if err != nil {
		return nil, err
	}
	// Concurrent evaluations of the same sub-query may both get here;
	// both results are fresh, correct and immutable, so last-write-wins
	// is fine — the duplicated work is bounded by one evaluation.
	e.subMu.Lock()
	e.subSets[key] = res
	e.subMu.Unlock()
	return res, nil
}
