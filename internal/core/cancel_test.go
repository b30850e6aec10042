package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// countingCtx is a context whose Err flips to Canceled after failAfter
// polls — a deterministic stand-in for "the client walked away
// mid-evaluation" that also counts exactly how often the engine's
// checkpoints look at it, and records where the first failing poll
// happened.
type countingCtx struct {
	context.Context
	polls     atomic.Int64
	failAfter int64
	failedAt  []uintptr // call stack of the first failing poll
}

func (c *countingCtx) Err() error {
	n := c.polls.Add(1)
	if n <= c.failAfter {
		return nil
	}
	if n == c.failAfter+1 {
		pcs := make([]uintptr, 64)
		c.failedAt = pcs[:runtime.Callers(2, pcs)]
	}
	return context.Canceled
}

// failedIn reports whether the first failing poll ran inside a function
// whose qualified name ends in fn.
func (c *countingCtx) failedIn(fn string) bool {
	frames := runtime.CallersFrames(c.failedAt)
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// heavyFixture returns a fresh engine over a graph, with a query,
// expensive enough that an uncancelled evaluation polls an attached
// context many times — the precondition for asserting anything about
// checkpoint granularity. Each call builds a new engine so its caches
// are cold: a cache hit would answer without ever reaching a
// checkpoint, which is correct behaviour but useless for these tests.
func heavyFixture(t *testing.T) (*Engine, rpq.Expr) {
	t.Helper()
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 1500, Edges: 9000, Labels: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return New(g, Options{}), rpq.MustParse("(l0|l1)+.(l1|l2)+")
}

// TestEvaluateRelTimedCtxPreCancelled: an already-done context returns
// its error immediately, before any evaluation work.
func TestEvaluateRelTimedCtxPreCancelled(t *testing.T) {
	e := New(fixtures.Figure1(), Options{})
	evals := 0
	e.SetEvalHook(func(string) { evals++ })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.EvaluateRelTimedCtx(ctx, rpq.MustParse("d.(b.c)+.c"), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if evals != 0 {
		t.Fatalf("pre-cancelled context still ran %d evaluations", evals)
	}
}

// TestCancellationStopsWithinOneCheckpoint is the acceptance gate for
// the cancellation tentpole, made deterministic: the heavy query is
// first shown to poll an attached context many times (so checkpoints
// are dense in its evaluation), then a context that fails on poll K is
// attached and the evaluation must stop essentially at that poll — at
// most one further poll may happen (a second checkpoint site reached
// before the first's error propagates through a phase boundary), which
// is exactly the "within one checkpoint interval" bound.
func TestCancellationStopsWithinOneCheckpoint(t *testing.T) {
	e, q := heavyFixture(t)

	full := &countingCtx{Context: context.Background(), failAfter: 1 << 62}
	want, _, err := e.EvaluateRelTimedCtx(full, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := full.polls.Load()
	if total < 20 {
		t.Fatalf("uncancelled evaluation polled only %d times — fixture not heavy enough to test granularity", total)
	}

	// A cold engine for the cancelled run: on e the first run populated
	// the shared caches, so a repeat would answer without reaching a
	// single checkpoint.
	cold, _ := heavyFixture(t)
	const failAfter = 3
	cc := &countingCtx{Context: context.Background(), failAfter: failAfter}
	_, _, err = cold.EvaluateRelTimedCtx(cc, q, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if polls := cc.polls.Load(); polls > failAfter+2 {
		t.Fatalf("evaluation kept running for %d polls after cancellation at poll %d", polls-failAfter, failAfter)
	}

	// The engine must be unharmed: the same query evaluates to the
	// uncancelled answer — the aborted run must not have cached a partial
	// result or left pooled scratch dirty. (The heavy fixture is too big
	// for eval.Reference; TestCancelledRerunMatchesReference checks the
	// same property against it on a smaller graph.)
	got, _, err := cold.EvaluateRelTimedCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatalf("evaluation after a cancelled run: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("evaluation after a cancelled run: %d pairs, want %d", got.Len(), want.Len())
	}
}

// TestCancelledRerunMatchesReference sweeps the cancelling poll across a
// whole sealed evaluation and a whole live stream, and after every abort
// re-runs the query on the same engine against eval.Reference. An abort
// inside joinPost leaves a row half-built in a pooled row kernel; a bit
// that survived into the next use would drop pairs from the re-run
// silently, which only an answer check sees. The sealed half attaches
// the context to the engine itself rather than through
// EvaluateRelTimedCtx, whose private fork has pools of its own: the
// re-run must draw from the pool the aborted run released into. A
// stream always runs on a private fork, so its half checks that an abort
// inside a row is clean and the next stream right.
func TestCancelledRerunMatchesReference(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 300, Edges: 1800, Labels: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := rpq.MustParse("(l0|l1)+.(l1|l2)+")
	want := pairs.RelationFromSet(g.NumVertices(), eval.Reference(g, q))

	// evalWith runs q on e with ctx attached for the evaluation only.
	evalWith := func(e *Engine, ctx context.Context) (*pairs.Relation, error) {
		e.setCancel(ctx)
		defer e.setCancel(nil)
		return e.Evaluate(q)
	}

	// Sealed evaluation: every poll of the uncancelled run, in turn.
	probe := &countingCtx{Context: context.Background(), failAfter: 1 << 62}
	if _, err := evalWith(New(g, Options{}), probe); err != nil {
		t.Fatal(err)
	}
	inJoinPost := 0
	for failAfter := int64(0); failAfter < probe.polls.Load(); failAfter++ {
		e := New(g, Options{})
		cc := &countingCtx{Context: context.Background(), failAfter: failAfter}
		if _, err := evalWith(e, cc); !errors.Is(err, context.Canceled) {
			t.Fatalf("failAfter %d: err = %v, want context.Canceled", failAfter, err)
		}
		if cc.failedIn(".joinPost") {
			inJoinPost++
		}
		got, err := e.Evaluate(q)
		if err != nil {
			t.Fatalf("failAfter %d: re-run: %v", failAfter, err)
		}
		if !got.Equal(want) {
			t.Fatalf("failAfter %d: re-run has %d pairs, reference %d", failAfter, got.Len(), want.Len())
		}
	}
	if inJoinPost == 0 {
		t.Fatal("no cancellation landed inside joinPost")
	}

	// Live stream: the same sweep over open and drain.
	sprobe := &countingCtx{Context: context.Background(), failAfter: 1 << 62}
	s, err := New(g, Options{}).OpenStream(sprobe, q, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	drainStream(t, s, 97)
	inRow := 0
	for failAfter := int64(0); failAfter < sprobe.polls.Load(); failAfter++ {
		e := New(g, Options{})
		cc := &countingCtx{Context: context.Background(), failAfter: failAfter}
		s, err := e.OpenStream(cc, q, StreamOptions{})
		if err == nil {
			buf := make([]pairs.Pair, 97)
			for err == nil {
				var done bool
				if _, done, err = s.Next(buf); done && err == nil {
					t.Fatalf("failAfter %d: stream drained without cancelling", failAfter)
				}
			}
			s.Close()
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("failAfter %d: stream err = %v, want context.Canceled", failAfter, err)
		}
		if cc.failedIn(".fillRun") {
			inRow++
		}
		s, err = e.OpenStream(context.Background(), q, StreamOptions{})
		if err != nil {
			t.Fatalf("failAfter %d: re-opened stream: %v", failAfter, err)
		}
		if got := drainStream(t, s, 97); !pairsEqual(got, want.Sorted()) {
			t.Fatalf("failAfter %d: re-streamed %d pairs, reference %d", failAfter, len(got), want.Len())
		}
	}
	if inRow == 0 {
		t.Fatal("no cancellation landed inside a stream row")
	}
}

// TestCancellationStopsCPU is the wall-clock face of the same gate: an
// evaluation cancelled right after it starts must return far sooner
// than the full evaluation takes. Bounds are deliberately loose (4x) so
// scheduler noise cannot flake the test.
func TestCancellationStopsCPU(t *testing.T) {
	e, q := heavyFixture(t)

	t0 := time.Now()
	if _, _, err := e.EvaluateRelTimedCtx(context.Background(), q, nil); err != nil {
		t.Fatal(err)
	}
	serial := time.Since(t0)

	cold, _ := heavyFixture(t)
	cc := &countingCtx{Context: context.Background(), failAfter: 2}
	t0 = time.Now()
	_, _, err := cold.EvaluateRelTimedCtx(cc, q, nil)
	cancelled := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if serial > 20*time.Millisecond && cancelled > serial/4 {
		t.Fatalf("cancelled evaluation took %v of the serial %v — cancellation is not stopping work", cancelled, serial)
	}
}

// TestBatchParallelRelCtxCancelled: the batch entry point honours a
// context cancelled mid-flight across all its workers, and a fresh call
// on the same engine still succeeds.
func TestBatchParallelRelCtxCancelled(t *testing.T) {
	e, _ := heavyFixture(t)
	qs := []rpq.Expr{
		rpq.MustParse("(l0|l1)+.(l1|l2)+"),
		rpq.MustParse("(l1|l2)+.(l0|l2)+"),
		rpq.MustParse("(l0|l2)+.(l0|l1)+"),
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := e.EvaluateBatchParallelRelCtx(ctx, qs, 2, nil)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		// Cancellation may have lost the race with a fast evaluation; a
		// nil error is acceptable, anything else must be the context's.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("batch err = %v, want context.Canceled or nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled batch did not return")
	}
	if _, _, err := e.EvaluateBatchParallelRelCtx(context.Background(), qs, 2, nil); err != nil {
		t.Fatalf("batch after cancelled batch: %v", err)
	}
}

// TestPanicIsolatedToQuery: a panic raised inside one query's
// evaluation surfaces as *QueryPanicError carrying the query text, and
// the engine — including its singleflight cache — stays fully usable
// for other queries and for the same query once the fault is removed.
func TestPanicIsolatedToQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := fixtures.RandomGraph(rng, 32, 96, []string{"a", "b", "c"})
	e := New(g, Options{})
	poison := "(a.b)+"
	armed := true
	e.SetEvalHook(func(q string) {
		if armed && q == poison {
			panic("injected evaluator fault")
		}
	})

	_, _, err := e.EvaluateRelTimedCtx(context.Background(), rpq.MustParse(poison), nil)
	var pe *QueryPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *QueryPanicError", err)
	}
	if pe.Query == "" || pe.Value == nil || len(pe.Stack) == 0 {
		t.Fatalf("panic error missing context: %+v", pe)
	}

	// Neighbours are unaffected, immediately after the recovered panic.
	if _, _, err := e.EvaluateRelTimedCtx(context.Background(), rpq.MustParse("b.c"), nil); err != nil {
		t.Fatalf("healthy query after panic: %v", err)
	}

	// The batch path: the poisoned query fails the batch call with the
	// panic error (recovered, not propagated), workers survive.
	qs := []rpq.Expr{rpq.MustParse("b.c"), rpq.MustParse(poison), rpq.MustParse("c.a")}
	if _, _, err := e.EvaluateBatchParallelRelCtx(context.Background(), qs, 2, nil); !errors.As(err, &pe) {
		t.Fatalf("batch err = %v, want *QueryPanicError", err)
	}

	// Disarm: the same string must evaluate cleanly — no poisoned entry
	// left behind in the singleflight or result caches.
	armed = false
	if _, _, err := e.EvaluateRelTimedCtx(context.Background(), rpq.MustParse(poison), nil); err != nil {
		t.Fatalf("query after fault removed: %v", err)
	}
}

// blockingCtx is a context whose Err reports Canceled from its
// blockAt-th poll on. At that poll it first signals entered, then
// blocks until release closes: the computing goroutine is held
// mid-build, holding the singleflight entry, until the test lets it
// fail.
type blockingCtx struct {
	context.Context
	polls   atomic.Int64
	blockAt int64
	entered chan struct{}
	release chan struct{}
}

func (c *blockingCtx) Err() error {
	n := c.polls.Add(1)
	if n < c.blockAt {
		return nil
	}
	if n == c.blockAt {
		close(c.entered)
		<-c.release
	}
	return context.Canceled
}

// TestCoWaiterSurvivesComputerCancel: a request parked on another
// request's in-flight evaluation of the same query must not inherit
// that request's cancellation. The first evaluation is cancelled
// mid-build while the second waits on its singleflight entry; the
// second must still return the correct relation.
func TestCoWaiterSurvivesComputerCancel(t *testing.T) {
	e, q := heavyFixture(t)
	ref, _ := heavyFixture(t)
	want, err := ref.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}

	first := &blockingCtx{Context: context.Background(), blockAt: 3,
		entered: make(chan struct{}), release: make(chan struct{})}
	firstErr := make(chan error, 1)
	go func() {
		_, _, err := e.EvaluateRelTimedCtx(first, q, nil)
		firstErr <- err
	}()
	<-first.entered // the first evaluation holds the entry, mid-build

	hits := e.Cache().Counters().RelHits
	type outcome struct {
		rel *pairs.Relation
		err error
	}
	second := make(chan outcome, 1)
	go func() {
		rel, _, err := e.EvaluateRelTimedCtx(context.Background(), q, nil)
		second <- outcome{rel, err}
	}()
	// The second evaluation's first cache access is the top-level
	// relation entry the first holds: once it has counted its hit it
	// holds that entry and will read its outcome.
	deadline := time.Now().Add(10 * time.Second)
	for e.Cache().Counters().RelHits == hits {
		if time.Now().After(deadline) {
			t.Fatal("second evaluation never reached the shared entry")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(first.release)

	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("first evaluation: err = %v, want context.Canceled", err)
	}
	got := <-second
	if got.err != nil {
		t.Fatalf("co-waiter inherited the first request's cancellation: %v", got.err)
	}
	if !got.rel.Equal(want) {
		t.Fatalf("co-waiter relation has %d pairs, want %d", got.rel.Len(), want.Len())
	}
}
