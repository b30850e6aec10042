package pairs

import (
	"math/rand"
	"slices"
	"testing"

	"rtcshare/internal/graph"
)

// rowInput is one src-ascending row stream: rows[i] is the multiset of
// destinations added to row srcs[i] (possibly empty, duplicates likely).
type rowInput struct {
	n    int
	srcs []graph.VID
	rows [][]graph.VID
}

// drawRows draws a row stream over n vertices: sources are skipped at
// random, some rows stay empty, destinations repeat, and the word-edge
// IDs 0, 63, 64 and n−1 turn up often. With sparse set, each row holds
// a handful of destinations drawn from the whole space.
func drawRows(rng *rand.Rand, n int, sparse bool) rowInput {
	in := rowInput{n: n}
	if n == 0 {
		return in
	}
	edges := []graph.VID{0, 63, 64, graph.VID(n - 1)}
	src := rng.Intn(4)
	for src < n && len(in.srcs) < 200 {
		var row []graph.VID
		k := rng.Intn(3 * (1 + n/16))
		if sparse {
			k = 2 + rng.Intn(9)
		}
		if rng.Intn(8) == 0 {
			k = 0
		}
		for j := 0; j < k; j++ {
			var d graph.VID
			switch {
			case rng.Intn(6) == 0:
				d = edges[rng.Intn(len(edges))]
			case len(row) > 0 && rng.Intn(4) == 0:
				d = row[rng.Intn(len(row))] // a repeat
			default:
				d = graph.VID(rng.Intn(n))
			}
			if int(d) < n {
				row = append(row, d)
			}
		}
		in.srcs = append(in.srcs, graph.VID(src))
		in.rows = append(in.rows, row)
		src += 1 + rng.Intn(3)
		if n > 4096 {
			src += rng.Intn(n / 256)
		}
	}
	return in
}

// reference seals the stream through the general-purpose Builder.
func (in rowInput) reference() *Relation {
	b := NewBuilder(in.n)
	for i, src := range in.srcs {
		for _, d := range in.rows[i] {
			b.Add(src, d)
		}
	}
	return b.Seal()
}

// build feeds the stream to rb row by row, checking every EndRow run
// against want's run for the same source.
func (in rowInput) build(t *testing.T, rb *RowBuilder, want *Relation) {
	t.Helper()
	for i, src := range in.srcs {
		rb.Begin(src)
		for j, d := range in.rows[i] {
			if j%2 == 0 {
				rb.Add(d)
			} else {
				rb.AddAll(in.rows[i][j : j+1])
			}
		}
		if run := rb.EndRow(); !slices.Equal(run, want.DstsOf(src)) {
			t.Fatalf("n=%d row %d: EndRow run %v, want %v", in.n, src, run, want.DstsOf(src))
		}
	}
}

// sameColumns reports whether two relations have identical CSR columns,
// and got's are exactly sized.
func sameColumns(t *testing.T, got, want *Relation) {
	t.Helper()
	gOff, gDst := got.CSR()
	wOff, wDst := want.CSR()
	if got.NumVertices() != want.NumVertices() || !slices.Equal(gOff, wOff) || !slices.Equal(gDst, wDst) {
		t.Fatalf("n=%d: row-built relation (%d pairs) differs from Builder.Seal (%d pairs)", want.NumVertices(), got.Len(), want.Len())
	}
	if cap(gDst) != len(gDst) || cap(gOff) != len(gOff) {
		t.Fatalf("n=%d: sealed columns keep slack: dsts %d/%d, offsets %d/%d", want.NumVertices(), len(gDst), cap(gDst), len(gOff), cap(gOff))
	}
}

// clean fails if any bit of the builder's row bitmap is still set.
func clean(t *testing.T, rb *RowBuilder) {
	t.Helper()
	for w, word := range rb.words {
		if word != 0 {
			t.Fatalf("stale bits %#x left in bitmap word %d", word, w)
		}
	}
}

// Property: the row kernel seals exactly what Builder.Seal seals for the
// same src-ascending input, across word boundaries, vertex spaces that
// are not a multiple of 64 and the empty space. One builder is reused
// throughout, so leftovers of a Seal, a Reset or a row abandoned mid-way
// would show as wrong answers.
func TestRowBuilderMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rb := NewRowBuilder(0)
	sizes := []int{0, 1, 2, 63, 64, 65, 100, 127, 128, 129, 1000, 4097}
	for iter := 0; iter < 200; iter++ {
		n := sizes[rng.Intn(len(sizes))]
		in := drawRows(rng, n, false)
		want := in.reference()
		rb.Grow(n)
		in.build(t, rb, want)
		sameColumns(t, rb.Seal(), want)
		clean(t, rb)

		// Abandon a row part-way, then rebuild on the same builder.
		if n > 0 && len(in.srcs) > 0 {
			rb.Begin(in.srcs[0])
			rb.Add(graph.VID(n - 1))
			rb.AddAll([]graph.VID{0, graph.VID(n / 2)})
			rb.Reset()
			clean(t, rb)
			in.build(t, rb, want)
			sameColumns(t, rb.Seal(), want)
		}
	}
}

// Sparse rows over a 2^20 space take the sort fallback; dense rows over
// a small space take the word scan. Both must seal what Builder seals.
func TestRowBuilderSparseFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const n = 1 << 20
	rb := NewRowBuilder(n)
	sorted, scanned := 0, 0
	for iter := 0; iter < 8; iter++ {
		in := drawRows(rng, n, true)
		want := in.reference()
		in.build(t, rb, want)
		sameColumns(t, rb.Seal(), want)
		clean(t, rb)
		for _, src := range in.srcs {
			run := want.DstsOf(src)
			if len(run) == 0 {
				continue
			}
			span := int(run[len(run)-1]>>6-run[0]>>6) + 1
			if sortsRow(len(run), span) {
				sorted++
			} else {
				scanned++
			}
		}
	}
	if sorted == 0 {
		t.Fatal("no sparse row took the sort fallback")
	}
	if scanned == 0 {
		t.Fatal("no sparse row took the word scan")
	}

	// A packed row over a small space is scanned, never sorted.
	if sortsRow(4, 2) {
		t.Fatal("a 4-member row over 2 words would be sorted")
	}
	dense := NewRowBuilder(128)
	dense.Begin(0)
	dense.AddAll([]graph.VID{127, 0, 64, 63, 0})
	if run := dense.EndRow(); !slices.Equal(run, []graph.VID{0, 63, 64, 127}) {
		t.Fatalf("packed row emitted %v", run)
	}
	t.Logf("%d sparse rows sorted, %d scanned", sorted, scanned)
}

// SealTransposed returns the inverse of what Seal would return.
func TestRowBuilderSealTransposed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rb := NewRowBuilder(0)
	for iter := 0; iter < 100; iter++ {
		n := []int{0, 1, 64, 65, 300}[rng.Intn(5)]
		in := drawRows(rng, n, false)
		b := NewBuilder(n)
		for i, src := range in.srcs {
			for _, d := range in.rows[i] {
				b.Add(d, src)
			}
		}
		want := b.Seal()
		rb.Grow(n)
		for i, src := range in.srcs {
			rb.Begin(src)
			rb.AddAll(in.rows[i])
		}
		got := rb.SealTransposed()
		if !got.Equal(want) {
			t.Fatalf("n=%d: transposed seal has %d pairs, want %d", n, got.Len(), want.Len())
		}
		clean(t, rb)
	}
}

// Rows must be begun in strictly ascending source order.
func TestRowBuilderRejectsOutOfOrderRow(t *testing.T) {
	rb := NewRowBuilder(10)
	rb.Begin(5)
	defer func() {
		if recover() == nil {
			t.Fatal("Begin(5) after Begin(5) did not panic")
		}
	}()
	rb.Begin(5)
}
