package store

import (
	"strings"
	"testing"

	"rtcshare/internal/core"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// warmQueries drives a fixed workload through an engine so its cache
// holds RTCs, closures and sealed relations worth snapshotting.
var warmQueries = []string{"b.c", "d.(b.c)+.c", "(b.c)*", "a.(e.f)*"}

func warmedEngine(t *testing.T) *core.Engine {
	t.Helper()
	e := core.New(fixtures.Figure1(), core.Options{})
	for _, q := range warmQueries {
		if _, err := e.Evaluate(rpq.MustParse(q)); err != nil {
			t.Fatalf("warm %q: %v", q, err)
		}
	}
	return e
}

// sameAnswers asserts two engines answer the warm workload identically.
func sameAnswers(t *testing.T, want, got *core.Engine) {
	t.Helper()
	for _, q := range warmQueries {
		w, err := want.Evaluate(rpq.MustParse(q))
		if err != nil {
			t.Fatalf("oracle %q: %v", q, err)
		}
		g, err := got.Evaluate(rpq.MustParse(q))
		if err != nil {
			t.Fatalf("restored %q: %v", q, err)
		}
		if !w.Equal(g) {
			t.Fatalf("query %q: restored engine answers differ (want %d pairs, got %d)", q, w.Len(), g.Len())
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	e := warmedEngine(t)
	st := e.SnapshotState()
	if len(st.RTCs) == 0 || len(st.Relations) == 0 {
		t.Fatalf("warm engine snapshot holds no structures (RTCs=%d rels=%d) — workload no longer caches?",
			len(st.RTCs), len(st.Relations))
	}

	data := encodeSnapshotFile(st)
	got, err := decodeSnapshotFile(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Epoch != st.Epoch {
		t.Fatalf("epoch: want %d, got %d", st.Epoch, got.Epoch)
	}
	if got.Graph.NumVertices() != st.Graph.NumVertices() || got.Graph.NumEdges() != st.Graph.NumEdges() {
		t.Fatalf("graph shape changed: want %d/%d, got %d/%d",
			st.Graph.NumVertices(), st.Graph.NumEdges(), got.Graph.NumVertices(), got.Graph.NumEdges())
	}
	if len(got.RTCs) != len(st.RTCs) || len(got.Fulls) != len(st.Fulls) || len(got.Relations) != len(st.Relations) {
		t.Fatalf("structure counts changed: want %d/%d/%d, got %d/%d/%d",
			len(st.RTCs), len(st.Fulls), len(st.Relations), len(got.RTCs), len(got.Fulls), len(got.Relations))
	}
	for key, rel := range st.Relations {
		if !rel.Equal(got.Relations[key]) {
			t.Fatalf("relation %q changed across round trip", key)
		}
	}

	restored, err := core.RestoreEngine(got, core.Options{})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if restored.Epoch() != e.Epoch() {
		t.Fatalf("restored epoch %d, want %d", restored.Epoch(), e.Epoch())
	}
	sameAnswers(t, e, restored)
	// The restored answers above must come from the installed structures,
	// not recomputation: every warm query should hit, not miss.
	c := restored.Cache().Counters()
	if c.Misses != 0 {
		t.Fatalf("restored engine recomputed %d structures; warm queries should hit the installed cache", c.Misses)
	}
	if c.CrossEpochHits != 0 {
		t.Fatalf("CrossEpochHits = %d after restore, want 0", c.CrossEpochHits)
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	e := warmedEngine(t)
	st := e.SnapshotState()
	a := encodeSnapshotFile(st)
	b := encodeSnapshotFile(e.SnapshotState())
	if string(a) != string(b) {
		t.Fatal("same state encoded to different bytes; keys not sorted?")
	}
}

// TestSnapshotOddLabels: the text format (graph.Write) refuses labels
// with whitespace or a leading '#', but the binary snapshot must carry
// them verbatim — they are legal in-memory labels reachable via
// AddEdgeLID.
func TestSnapshotOddLabels(t *testing.T) {
	odd := []string{"# comment-ish", "two words", "tab\tsep", " lead", "trail ", "%w"}
	b := graph.NewBuilder(4)
	for i, l := range odd {
		if err := graph.ValidateLabel(l); err == nil {
			t.Fatalf("label %q unexpectedly passes text-format validation", l)
		}
		lid := b.Dict().Intern(l)
		if err := b.AddEdgeLID(graph.VID(i%3), lid, graph.VID((i+1)%4)); err != nil {
			t.Fatalf("AddEdgeLID(%q): %v", l, err)
		}
	}
	g := b.Build()

	st := &core.SnapshotState{Graph: g, Epoch: 7}
	got, err := decodeSnapshotFile(encodeSnapshotFile(st))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("edges: want %d, got %d", g.NumEdges(), got.Graph.NumEdges())
	}
	for _, l := range odd {
		lid, ok := got.Graph.Dict().Lookup(l)
		if !ok {
			t.Fatalf("label %q lost across round trip", l)
		}
		want, _ := g.Dict().Lookup(l)
		if got.Graph.LabelEdgeCount(lid) != g.LabelEdgeCount(want) {
			t.Fatalf("label %q edge count changed", l)
		}
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	e := warmedEngine(t)
	data := encodeSnapshotFile(e.SnapshotState())

	cases := map[string]func([]byte) []byte{
		"empty":        func(b []byte) []byte { return nil },
		"short header": func(b []byte) []byte { return b[:10] },
		"bad magic":    func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad version": func(b []byte) []byte {
			b[8] = 99
			return b
		},
		"flipped body byte": func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		},
		"truncated body": func(b []byte) []byte { return b[:len(b)-4] },
		"trailing junk":  func(b []byte) []byte { return append(b, 0xde, 0xad) },
	}
	for name, mutate := range cases {
		cp := append([]byte(nil), data...)
		if _, err := decodeSnapshotFile(mutate(cp)); err == nil {
			t.Errorf("%s: decode accepted corrupt snapshot", name)
		}
	}
}

func TestSnapshotDecodeErrorsMentionSection(t *testing.T) {
	st := warmedEngine(t).SnapshotState()
	// A body whose graph section declares 1 vertex but whose RTC sections
	// came from the 10-vertex fixture must fail CompOf validation, and
	// the error must say which section refused it.
	mixed := &core.SnapshotState{Graph: graph.NewBuilder(1).Build(), Epoch: 1, RTCs: st.RTCs}
	_, err := decodeSnapshotFile(encodeSnapshotFile(mixed))
	if err == nil {
		t.Fatal("decode accepted RTC spanning more vertices than the graph")
	}
	if !strings.Contains(err.Error(), "RTC") {
		t.Fatalf("error does not locate the failing section: %v", err)
	}
}
