package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rtcshare/internal/eval"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/rpq"
)

// The 2RPQ extension must compose with graph reduction: a Kleene closure
// over a sub-query containing inverse labels still reduces to an RTC.

func TestInverseKleeneAllStrategies(t *testing.T) {
	g := fixtures.Figure1()
	for _, q := range []string{"(b.^b)+", "d.(^c.c)+", "a.(^b)+.b", "(^c)*.d?"} {
		want := eval.Reference(g, rpq.MustParse(q))
		for _, s := range strategies() {
			e := New(g, Options{Strategy: s})
			got, err := e.EvaluateQuery(q)
			if err != nil {
				t.Fatalf("%v %q: %v", s, q, err)
			}
			if !got.EqualSet(want) {
				t.Errorf("%v: %q = %v, want %v", s, q, got.Sorted(), want.Sorted())
			}
		}
	}
}

func TestInverseRTCIsShared(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{Strategy: RTCSharing})
	for _, q := range []string{"a.(b.^b)+", "d.(b.^b)+.c"} {
		if _, err := e.EvaluateQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1: (b.^b) must be shared", st.CacheHits, st.CacheMisses)
	}
}

// Property: all engines agree with the reference on random 2RPQs.
func TestEnginesAgreeOn2RPQs(t *testing.T) {
	labels := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := fixtures.RandomGraph(rng, 1+rng.Intn(10), rng.Intn(25), labels)
		e := rpq.RandomExpr2RPQ(rng, labels, 3)
		want := eval.Reference(g, e)
		for _, s := range strategies() {
			eng := New(g, Options{Strategy: s})
			got, err := eng.Evaluate(e)
			if err != nil {
				return true // DNF explosion guard
			}
			if !got.EqualSet(want) {
				t.Logf("strategy=%v expr=%q", s, e)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
