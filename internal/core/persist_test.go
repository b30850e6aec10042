package core

import (
	"testing"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// persistWarmQueries populate every cache region: RTC structures,
// memoised relations, and (under FullSharing) full closures.
var persistWarmQueries = []string{"b.c", "d.(b.c)+.c", "(b.c)*", "a.(e.f)*"}

func warmSnapshotEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(fixtures.Figure1(), opts)
	for _, q := range persistWarmQueries {
		if _, err := e.Evaluate(rpq.MustParse(q)); err != nil {
			t.Fatalf("warm %s: %v", q, err)
		}
	}
	return e
}

func TestSnapshotStateRestoreRoundTrip(t *testing.T) {
	for _, strat := range []Strategy{RTCSharing, FullSharing} {
		e := warmSnapshotEngine(t, Options{Strategy: strat})
		st := e.SnapshotState()
		if st.Epoch != e.Epoch() {
			t.Fatalf("%v: snapshot epoch %d, engine %d", strat, st.Epoch, e.Epoch())
		}
		if len(st.RTCs)+len(st.Fulls) == 0 || len(st.Relations) == 0 {
			t.Fatalf("%v: empty snapshot: %d RTCs, %d fulls, %d relations",
				strat, len(st.RTCs), len(st.Fulls), len(st.Relations))
		}
		r, err := RestoreEngine(st, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%v: restore: %v", strat, err)
		}
		for _, q := range persistWarmQueries {
			want, err := e.Evaluate(rpq.MustParse(q))
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Evaluate(rpq.MustParse(q))
			if err != nil {
				t.Fatalf("%v: restored engine: %s: %v", strat, q, err)
			}
			if !got.Equal(want) {
				t.Errorf("%v: %s: restored answers differ", strat, q)
			}
		}
		// Every structure came from the snapshot: zero misses, and no
		// cross-epoch reuse.
		c := r.Cache().Counters()
		if c.Misses != 0 || c.RelMisses != 0 {
			t.Errorf("%v: restored engine recomputed: %d misses, %d relation misses", strat, c.Misses, c.RelMisses)
		}
		if c.CrossEpochHits != 0 {
			t.Errorf("%v: CrossEpochHits = %d", strat, c.CrossEpochHits)
		}
		// The restored structures report real summaries (derived, not
		// stored).
		for _, s := range r.SharedSummaries() {
			if s.R == "" || s.SharedPairs < 0 {
				t.Errorf("%v: bad restored summary %+v", strat, s)
			}
		}
	}
}

// TestSnapshotStateSkipsStaleEpochs pins that a snapshot describes
// exactly one graph version: entries computed before an update are not
// exported.
func TestSnapshotStateSkipsStaleEpochs(t *testing.T) {
	e := warmSnapshotEngine(t, Options{})
	res, err := e.ApplyUpdates([]GraphUpdate{{Op: OpInsertEdge, Src: 0, Dst: 9, Label: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	st := e.SnapshotState()
	if st.Epoch != res.Epoch {
		t.Fatalf("snapshot epoch %d, want %d", st.Epoch, res.Epoch)
	}
	for key := range st.Relations {
		if _, _, ok := e.CachedResult(rpq.MustParse(key)); !ok {
			t.Errorf("snapshot exported %q which the cache no longer serves", key)
		}
	}
}

func TestRestoreEngineRejectsMismatchedStructures(t *testing.T) {
	st := warmSnapshotEngine(t, Options{}).SnapshotState()
	small := graph.NewBuilder(2)
	small.AddEdge(0, "b", 1)
	stSmall := *st
	stSmall.Graph = small.Build()
	if _, err := RestoreEngine(&stSmall, Options{}); err == nil {
		t.Error("RTCs spanning the wrong vertex count were accepted")
	}
	stFulls := *st
	stFulls.RTCs = nil
	stFulls.Fulls = warmSnapshotEngine(t, Options{Strategy: FullSharing}).SnapshotState().Fulls
	stFulls.Graph = small.Build()
	stFulls.Relations = nil
	if _, err := RestoreEngine(&stFulls, Options{}); err == nil {
		t.Error("closures spanning the wrong vertex count were accepted")
	}
	stRels := *st
	stRels.RTCs = nil
	stRels.Graph = small.Build()
	if _, err := RestoreEngine(&stRels, Options{}); err == nil {
		t.Error("relations spanning the wrong vertex count were accepted")
	}
	if _, err := RestoreEngine(nil, Options{}); err == nil {
		t.Error("nil snapshot was accepted")
	}
	if _, err := RestoreEngine(&SnapshotState{}, Options{}); err == nil {
		t.Error("graphless snapshot was accepted")
	}
}

// TestRestoreEngineNonCaching pins the documented degradation: a
// non-caching configuration restores graph and epoch only.
func TestRestoreEngineNonCaching(t *testing.T) {
	st := warmSnapshotEngine(t, Options{}).SnapshotState()
	e, err := RestoreEngine(st, Options{Strategy: NoSharing})
	if err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != st.Epoch {
		t.Fatalf("epoch %d, want %d", e.Epoch(), st.Epoch)
	}
	if _, err := e.Evaluate(rpq.MustParse("b.c")); err != nil {
		t.Fatal(err)
	}
}

// TestInstallStructureExistingWins pins the race rule: an entry already
// in the cache is not replaced by a restored copy.
func TestInstallStructureExistingWins(t *testing.T) {
	e := warmSnapshotEngine(t, Options{})
	st := e.SnapshotState()
	r, err := RestoreEngine(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for key := range st.RTCs {
		r.Cache().installStructure(nsRTC+key, &rtcValue{})
	}
	for _, q := range persistWarmQueries {
		if _, err := r.Evaluate(rpq.MustParse(q)); err != nil {
			t.Fatalf("after duplicate install: %s: %v", q, err)
		}
	}
	for key, rel := range st.Relations {
		if r.Cache().installRelation(key, rel) {
			t.Errorf("installRelation(%q) replaced an existing entry", key)
		}
	}
}
