package core

import (
	"testing"
	"time"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/rpq"
)

// TestStageTimerSumAdd: Sum totals every stage, Add folds stage by stage.
func TestStageTimerSumAdd(t *testing.T) {
	a := StageTimer{DecodeNS: 1, QueueNS: 2, PlanNS: 3, ClosureBuildNS: 4,
		JoinNS: 5, SealNS: 6, PageNS: 7, OtherNS: 8}
	if got := a.Sum(); got != 36*time.Nanosecond {
		t.Fatalf("Sum = %v, want 36ns", got)
	}
	b := a
	b.Add(&a)
	if got := b.Sum(); got != 72*time.Nanosecond {
		t.Fatalf("Sum after Add = %v, want 72ns", got)
	}
	if b.ClosureBuildNS != 8 || b.PageNS != 14 {
		t.Fatalf("Add did not fold stage-wise: %+v", b)
	}
}

// TestEvaluateRelTimed: a timed evaluation returns the same relation and
// epoch as the untimed path, attributes time to the stages a closure
// query actually exercises, and the stage sum stays within the wall time
// of the call (stages partition work; they never double-count it).
func TestEvaluateRelTimed(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{})
	q := rpq.MustParse("d.(b.c)+.c")

	want, wantEpoch, err := New(g, Options{}).EvaluateRelEpoch(q)
	if err != nil {
		t.Fatalf("untimed: %v", err)
	}

	var st StageTimer
	start := time.Now()
	rel, epoch, err := e.EvaluateRelTimed(q, &st)
	wall := time.Since(start)
	if err != nil {
		t.Fatalf("timed: %v", err)
	}
	if epoch != wantEpoch {
		t.Fatalf("epoch = %d, want %d", epoch, wantEpoch)
	}
	if got, exp := rel.Sorted(), want.Sorted(); len(got) != len(exp) {
		t.Fatalf("timed result %v != untimed %v", got, exp)
	} else {
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("timed result %v != untimed %v", got, exp)
			}
		}
	}
	if st.PlanNS <= 0 {
		t.Errorf("no plan time attributed: %+v", st)
	}
	if st.ClosureBuildNS <= 0 {
		t.Errorf("closure query attributed no closure-build time: %+v", st)
	}
	if st.SealNS <= 0 {
		t.Errorf("no seal time attributed: %+v", st)
	}
	if sum := st.Sum(); sum <= 0 || sum > wall {
		t.Errorf("stage sum %v outside (0, wall %v]", sum, wall)
	}
	// Server-layer stages are not the engine's to fill.
	if st.DecodeNS != 0 || st.QueueNS != 0 || st.PageNS != 0 {
		t.Errorf("engine wrote serving-layer stages: %+v", st)
	}
}

// TestEvaluateRelTimedNil: nil timer degenerates to EvaluateRelEpoch.
func TestEvaluateRelTimedNil(t *testing.T) {
	e := New(fixtures.Figure1(), Options{})
	rel, _, err := e.EvaluateRelTimed(rpq.MustParse("a"), nil)
	if err != nil || rel == nil {
		t.Fatalf("nil-timer evaluation: rel=%v err=%v", rel, err)
	}
}

// TestEvaluateRelTimedDetaches: after a timed evaluation the engine
// family holds no timer, so later untimed traffic cannot race onto it.
func TestEvaluateRelTimedDetaches(t *testing.T) {
	e := New(fixtures.Figure1(), Options{})
	var st StageTimer
	if _, _, err := e.EvaluateRelTimed(rpq.MustParse("(b.c)+"), &st); err != nil {
		t.Fatal(err)
	}
	snap := st
	if _, err := e.EvaluateQuery("d.(b.c)+.c"); err != nil {
		t.Fatal(err)
	}
	if st != snap {
		t.Fatalf("untimed evaluation mutated a detached timer: %+v -> %+v", snap, st)
	}
}

// TestBatchParallelRelTimed: the timed batch entry fills one timer per
// query and returns identical relations to the untimed batch.
func TestBatchParallelRelTimed(t *testing.T) {
	g := fixtures.Figure1()
	qs := []rpq.Expr{
		rpq.MustParse("a"),
		rpq.MustParse("d.(b.c)+.c"),
		rpq.MustParse("(a.b)*.b+"),
	}
	want, _, err := New(g, Options{}).EvaluateBatchParallelRel(qs, 2)
	if err != nil {
		t.Fatal(err)
	}

	e := New(g, Options{})
	timers := make([]*StageTimer, len(qs))
	for i := range timers {
		timers[i] = &StageTimer{}
	}
	rels, _, err := e.EvaluateBatchParallelRelTimed(qs, 2, timers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		gotP, wantP := rels[i].Sorted(), want[i].Sorted()
		if len(gotP) != len(wantP) {
			t.Fatalf("query %d: %v != %v", i, gotP, wantP)
		}
		for j := range gotP {
			if gotP[j] != wantP[j] {
				t.Fatalf("query %d: %v != %v", i, gotP, wantP)
			}
		}
		if timers[i].Sum() <= 0 {
			t.Errorf("query %d: empty stage timer", i)
		}
	}

	// A mismatched timer slice is ignored rather than misattributed.
	if _, _, err := e.EvaluateBatchParallelRelTimed(qs, 2, timers[:1]); err != nil {
		t.Fatalf("short timer slice: %v", err)
	}
}

// TestQueryCost: planner-estimated cost classifies tiny-graph queries as
// cheap, errors propagate, and the calibration accessor starts neutral
// and moves only after ExplainAnalyze observations.
func TestQueryCost(t *testing.T) {
	e := New(fixtures.Figure1(), Options{})
	cost, cheap, err := e.QueryCost(rpq.MustParse("d.(b.c)+.c"))
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 || !cheap {
		t.Fatalf("Figure1 query should classify cheap with positive cost: cost=%v cheap=%v", cost, cheap)
	}

	limited := New(fixtures.Figure1(), Options{MaxDNFClauses: 1})
	if _, _, err := limited.QueryCost(rpq.MustParse("a|b")); err == nil {
		t.Fatal("DNF-limit overflow should surface as a QueryCost error")
	}

	if f, n := e.CostCalibration(); f != 1 || n != 0 {
		t.Fatalf("fresh engine calibration = (%v, %d), want (1, 0)", f, n)
	}
	if _, err := e.ExplainAnalyze(rpq.MustParse("d.(b.c)+.c")); err != nil {
		t.Fatal(err)
	}
	if f, n := e.CostCalibration(); n == 0 || f <= 0 {
		t.Fatalf("calibration after ExplainAnalyze = (%v, %d), want samples > 0", f, n)
	}
}

// TestCalibrationSharedAcrossForks: forks observe into the same
// calibration state, so serving workers recalibrate the family.
func TestCalibrationSharedAcrossForks(t *testing.T) {
	e := New(fixtures.Figure1(), Options{})
	w := e.Fork()
	if _, err := w.ExplainAnalyze(rpq.MustParse("(b.c)+")); err != nil {
		t.Fatal(err)
	}
	if _, n := e.CostCalibration(); n == 0 {
		t.Fatal("fork's ExplainAnalyze observation did not reach the parent's calibration")
	}
}
