package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// Sentinel errors of the admission path. Handlers map them to HTTP 503.
var (
	// ErrShuttingDown rejects queries submitted after Close.
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrOverloaded rejects a query when every evaluation slot is busy
	// and the slot's waiter bound is full — the admission-control
	// backstop that keeps an overload from growing an unbounded backlog.
	ErrOverloaded = errors.New("server: overloaded, retry later")
)

// waitersPerSlot bounds the backlog: at most waitersPerSlot ×
// MaxInFlight requests may wait for an evaluation slot at once, and any
// request beyond that is refused with ErrOverloaded. 64 per slot keeps
// the order of the backlog the retired window admitted (eight queued
// batches of up to 64 distinct queries behind one slot).
const waitersPerSlot = 64

// result is what submit hands the handler: the sealed relation and the
// graph epoch the evaluation was pinned to (or the error), the
// request's stage breakdown, the serving path it took, and the instant
// submit finished — where the handler's page stage starts.
type result struct {
	rel    *pairs.Relation
	epoch  uint64
	err    error
	stages core.StageTimer
	path   resultPath
	done   time.Time
}

// coalescer admits /query evaluations. It keeps its historical name
// (and /metrics key) but no longer batches: a memo-warm query is
// answered from the engine's epoch-tagged result memo, and every other
// query waits for one of MaxInFlight evaluation slots and is then
// evaluated directly on the shared engine under its own request's
// context. Identical concurrent queries still share one evaluation:
// the engine's shared cache runs one computation per (epoch, query)
// and parks the other callers on it.
type coalescer struct {
	engine Engine

	// slots holds one token per running evaluation; maxWaiting bounds
	// the requests blocked on it, counted by waiting.
	slots      chan struct{}
	maxWaiting int64
	waiting    atomic.Int64

	// mu orders admission against close: submit registers with inflight
	// under mu only while closed is false, so once close has flipped
	// closed under mu, inflight.Wait covers every admitted request.
	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup

	// quar tracks query strings that panicked the evaluator; blocked
	// ones are rejected at admission with ErrQuarantined.
	quar *quarantine

	// Counters behind CoalescerStats, all atomic.
	submitted, fastPathHits atomic.Int64
	rejected, abandoned     atomic.Int64
	evalErrors, panics      atomic.Int64
	quarantineRejected      atomic.Int64
}

// newCoalescer sizes the evaluation slots from default-filled options.
func newCoalescer(engine Engine, opts Options) *coalescer {
	return &coalescer{
		engine:     engine,
		slots:      make(chan struct{}, opts.MaxInFlight),
		maxWaiting: int64(waitersPerSlot * opts.MaxInFlight),
		quar:       newQuarantine(),
	}
}

// notePanic inspects an evaluation error and, when it is a recovered
// panic, counts it and charges it to key's quarantine entry.
func (c *coalescer) notePanic(key string, err error) {
	var pe *core.QueryPanicError
	if errors.As(err, &pe) {
		c.panics.Add(1)
		c.quar.note(key)
	}
}

// admit registers one request with the drain barrier, reporting false
// after close.
func (c *coalescer) admit() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.inflight.Add(1)
	return true
}

// acquire waits for an evaluation slot, bounded by the request's
// context and by the waiter bound.
func (c *coalescer) acquire(ctx context.Context) error {
	select {
	case c.slots <- struct{}{}:
		return nil
	default:
	}
	if c.waiting.Add(1) > c.maxWaiting {
		c.waiting.Add(-1)
		c.rejected.Add(1)
		return ErrOverloaded
	}
	defer c.waiting.Add(-1)
	select {
	case c.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		c.abandoned.Add(1)
		return ctx.Err()
	}
}

// submit serves one parsed query and blocks until its result is ready,
// the context ends, or admission fails. key is the query string the
// request carried — the quarantine identity. start is the handler's
// last stage stamp: the queue stage runs from it to the moment
// evaluation starts (or the memo answers), so the handler's stages and
// these stay consecutive intervals of one clock.
func (c *coalescer) submit(ctx context.Context, key string, expr rpq.Expr, start time.Time) result {
	c.submitted.Add(1)
	// A request whose context is already done (client gone, or the
	// deadline burned up in handler parsing) must not take a slot:
	// nobody will read the result.
	if err := ctx.Err(); err != nil {
		c.abandoned.Add(1)
		return result{err: err}
	}
	if !c.admit() {
		c.rejected.Add(1)
		return result{err: ErrShuttingDown}
	}
	defer c.inflight.Done()
	if c.quar.blocked(key) {
		c.quarantineRejected.Add(1)
		return result{err: ErrQuarantined}
	}

	// Fast path: a result already memoised at the current epoch answers
	// immediately, without a slot.
	if rel, epoch, ok := c.engine.CachedResult(expr); ok {
		c.fastPathHits.Add(1)
		now := time.Now()
		return result{rel: rel, epoch: epoch, path: pathFastPath, done: now,
			stages: core.StageTimer{QueueNS: now.Sub(start).Nanoseconds()}}
	}

	if err := c.acquire(ctx); err != nil {
		return result{err: err}
	}
	defer func() { <-c.slots }()
	// The deadline may have passed in the same instant the slot freed;
	// such a request is never handed to the engine.
	if err := ctx.Err(); err != nil {
		c.abandoned.Add(1)
		return result{err: err}
	}
	evalStart := time.Now()
	var st core.StageTimer
	rel, epoch, err := c.engine.EvaluateRelTimedCtx(ctx, expr, &st)
	done := time.Now()
	// Engine time no engine stage claimed (fork set-up, the cache's
	// retry after a co-waiter's cancellation) is charged to Other, so
	// the stages cover the evaluation interval exactly.
	if gap := done.Sub(evalStart) - st.Sum(); gap > 0 {
		st.OtherNS += gap.Nanoseconds()
	}
	st.QueueNS = evalStart.Sub(start).Nanoseconds()
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		c.abandoned.Add(1)
	default:
		c.evalErrors.Add(1)
		c.notePanic(key, err)
	}
	return result{rel: rel, epoch: epoch, err: err, stages: st, path: pathEvaluated, done: done}
}

// close drains the coalescer: new queries are refused with
// ErrShuttingDown, and close returns once every admitted request has
// its result.
func (c *coalescer) close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.inflight.Wait()
}

// CoalescerStats is a snapshot of the /query admission counters — the
// /metrics "coalescer" section.
type CoalescerStats struct {
	// Submitted counts /query evaluations submitted, whatever their
	// outcome.
	Submitted int64 `json:"submitted"`
	// FastPathHits counts queries answered straight from the engine's
	// epoch-tagged result memo, without an evaluation slot.
	FastPathHits int64 `json:"fast_path_hits"`

	// Rejected counts queries turned away by admission control (the
	// waiter bound, or Close); Abandoned counts requests whose context
	// ended before their result — already expired at submission, while
	// waiting for a slot, or mid-evaluation; EvalErrors counts
	// evaluations that failed for any other reason.
	Rejected   int64 `json:"rejected"`
	Abandoned  int64 `json:"abandoned"`
	EvalErrors int64 `json:"eval_errors"`

	// Panics counts evaluator panics recovered into per-query errors;
	// QuarantineRejected counts queries refused at admission because
	// their string is quarantined, and QuarantineSize is how many
	// crashed strings are currently tracked.
	Panics             int64 `json:"panics"`
	QuarantineRejected int64 `json:"quarantine_rejected"`
	QuarantineSize     int64 `json:"quarantine_size"`
}

// stats snapshots the counters.
func (c *coalescer) stats() CoalescerStats {
	return CoalescerStats{
		Submitted:          c.submitted.Load(),
		FastPathHits:       c.fastPathHits.Load(),
		Rejected:           c.rejected.Load(),
		Abandoned:          c.abandoned.Load(),
		EvalErrors:         c.evalErrors.Load(),
		Panics:             c.panics.Load(),
		QuarantineRejected: c.quarantineRejected.Load(),
		QuarantineSize:     int64(c.quar.size()),
	}
}
