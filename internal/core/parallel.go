package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// EvaluateBatchParallel evaluates a query batch across worker
// goroutines, sharing one SharedCache: the parallel form of the paper's
// multiple-RPQ evaluation. Each worker is a Fork of the receiver, so the
// closure structures (RTCs for RTCSharing, full closures for
// FullSharing) are computed once per distinct sub-query R no matter how
// many workers race to need them — the singleflight in the cache makes
// the losers wait instead of recompute. Per-worker Stats accumulate
// privately and are folded into the receiver's Stats before the call
// returns, so the timing split and cache counters aggregate the whole
// batch race-free.
//
// Results are returned in input order. workers ≤ 0 uses GOMAXPROCS;
// one worker (or a one-query batch) degenerates to EvaluateSet. The
// first error aborts the batch and is returned; queries already
// completed are discarded.
//
// For NoSharing the workers share nothing, by definition of the
// baseline — the batch still parallelises, each worker paying the full
// per-query cost, which is exactly the NoSharing wall-clock a fair
// comparison needs.
//
// The whole batch is pinned to the graph version current when the call
// starts: every worker forks onto that one version, so even if
// ApplyUpdates lands mid-batch, all results of one call describe a
// single graph epoch (the -race update stress test asserts exactly
// this).
func (e *Engine) EvaluateBatchParallel(qs []rpq.Expr, workers int) ([]*pairs.Relation, error) {
	results, _, err := evalBatchPinned(e, nil, qs, workers, nil, (*Engine).Evaluate)
	return results, err
}

// EvaluateBatchParallelRel is EvaluateBatchParallel in the executor's
// native sealed form, additionally returning the graph epoch the whole
// batch was pinned to: all results of one call describe a single graph
// version.
func (e *Engine) EvaluateBatchParallelRel(qs []rpq.Expr, workers int) ([]*pairs.Relation, uint64, error) {
	return evalBatchPinned(e, nil, qs, workers, nil, (*Engine).Evaluate)
}

// EvaluateBatchParallelRelTimed is EvaluateBatchParallelRel with
// per-query stage attribution: timers[i], when non-nil, receives the
// engine-side stage breakdown (plan / closure-build / join / seal /
// other) of qs[i]. A worker evaluates one query at a time on a private
// fork, so attaching the query's timer to the fork for the duration of
// that evaluation gives every timer exactly one writer — no allocation
// and no synchronisation beyond the Stats mutex the hot path already
// takes. timers may be nil (untimed) but must otherwise have len(qs).
func (e *Engine) EvaluateBatchParallelRelTimed(qs []rpq.Expr, workers int, timers []*StageTimer) ([]*pairs.Relation, uint64, error) {
	return e.EvaluateBatchParallelRelCtx(nil, qs, workers, timers)
}

// EvaluateBatchParallelRelCtx is EvaluateBatchParallelRelTimed with
// cooperative cancellation: ctx (when non-nil) is attached to every
// worker fork, and each evaluation polls it at the engine's amortized
// checkpoints — closure-build loops, batch-unit joins, clause
// boundaries — so a batch whose clients have all walked away stops
// burning CPU within one checkpoint interval. The first ctx error
// aborts the batch and is returned. ctx may be nil (uncancellable) and
// timers may be nil (untimed).
func (e *Engine) EvaluateBatchParallelRelCtx(ctx context.Context, qs []rpq.Expr, workers int, timers []*StageTimer) ([]*pairs.Relation, uint64, error) {
	if timers != nil && len(timers) != len(qs) {
		timers = nil
	}
	return evalBatchPinned(e, ctx, qs, workers, timers, (*Engine).Evaluate)
}

// evalBatchPinned is the shared skeleton of the parallel batch
// evaluators: pin one graph version, fan the queries over forked
// workers (each fork pinned to that version, with ctx attached when
// cancellable), fold the workers' Stats back into the receiver, and
// return the results in input order plus the pinned epoch. A panic
// while evaluating one query is recovered into a *QueryPanicError and
// aborts the batch like any other error — the worker goroutine, and
// with it the serving daemon, survives.
func evalBatchPinned[T any](e *Engine, ctx context.Context, qs []rpq.Expr, workers int, timers []*StageTimer, eval func(*Engine, rpq.Expr) (T, error)) ([]T, uint64, error) {
	n := len(qs)
	pinned := e.version()
	if n == 0 {
		return nil, pinned.epoch, nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, pinned.epoch, err
		}
	}
	// evalTimed runs one query on a worker fork with that query's stage
	// timer (if any) attached for the duration. The fork is private and
	// evaluates one query at a time, so the timer has a single writer;
	// the deferred detach keeps a panicking query from leaking its timer
	// onto the fork's next evaluation.
	evalTimed := func(worker *Engine, i int) (res T, err error) {
		timed := timers != nil && timers[i] != nil
		if timed {
			worker.setStages(timers[i])
		}
		defer func() {
			// recover must run directly in this deferred function; the
			// helper then folds a non-nil panic value into err.
			r := recover()
			if timed {
				worker.setStages(nil)
			}
			asPanicError(qs[i].String(), r, &err)
		}()
		return eval(worker, qs[i])
	}
	newWorker := func() *Engine {
		worker := e.forkVersion(pinned)
		worker.setCancel(ctx)
		return worker
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fallback, still pinned to one version via a fork.
		worker := newWorker()
		out := make([]T, n)
		for i := range qs {
			res, err := evalTimed(worker, i)
			if err != nil {
				e.absorb(worker)
				return nil, pinned.epoch, err
			}
			out[i] = res
		}
		e.absorb(worker)
		return out, pinned.epoch, nil
	}

	var (
		results = make([]T, n)
		errs    = make([]error, workers)
		engines = make([]*Engine, workers)
		next    atomic.Int64
		aborted atomic.Bool
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		engines[w] = newWorker()
		wg.Add(1)
		go func(w int, worker *Engine) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || aborted.Load() {
					return
				}
				res, err := evalTimed(worker, i)
				if err != nil {
					errs[w] = err
					aborted.Store(true)
					return
				}
				results[i] = res
			}
		}(w, engines[w])
	}
	wg.Wait()

	for _, worker := range engines {
		e.absorb(worker)
	}
	for _, err := range errs {
		if err != nil {
			return nil, pinned.epoch, err
		}
	}
	return results, pinned.epoch, nil
}

// EvaluateQueriesParallel parses a query batch and evaluates it with
// EvaluateBatchParallel.
func (e *Engine) EvaluateQueriesParallel(queries []string, workers int) ([]*pairs.Relation, error) {
	qs := make([]rpq.Expr, len(queries))
	for i, q := range queries {
		expr, err := rpq.Parse(q)
		if err != nil {
			return nil, err
		}
		qs[i] = expr
	}
	return e.EvaluateBatchParallel(qs, workers)
}

// absorb folds a finished worker's stats and summaries into e.
func (e *Engine) absorb(worker *Engine) {
	worker.mu.Lock()
	ws := worker.stats
	wsum := worker.summaries
	worker.mu.Unlock()

	e.mu.Lock()
	e.stats.Add(ws)
	for k, s := range wsum {
		e.summaries[k] = s
	}
	e.mu.Unlock()
}
