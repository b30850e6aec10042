package pairs

import (
	"fmt"
	"math/bits"
	"slices"

	"rtcshare/internal/graph"
)

// RowBuilder seals a relation whose pairs arrive row by row: every pair
// of one start vertex between Begin and EndRow, start vertices strictly
// ascending. That is the order the batch-unit joins already produce, so
// the builder never re-buckets by src and never compares destinations:
// a |V|-bit row bitmap deduplicates each Add with one test-and-set, and
// EndRow rewrites the row in ascending order by scanning only the bitmap
// words the row touched. A sparse row — few members spread over many
// words, as on a large vertex space — is sorted instead, so emitting a
// row costs O(row + min(span words, row·log row)), never O(|V|/64).
//
// A RowBuilder is reusable: Seal and Reset leave it empty with its
// scratch warm, and Reset also discards a row abandoned mid-way (a
// cancelled join), so no stale bit survives into the next use. Not safe
// for concurrent use. The zero value is a builder over an empty vertex
// space; Grow sizes it.
type RowBuilder struct {
	numVertices int
	words       []uint64    // row bitmap: bit d set iff d is in the open row
	dsts        []graph.VID // sorted runs of the ended rows, then the open row
	ends        []rowEnd    // one per ended non-empty row, srcs ascending

	open     bool
	src      graph.VID // the open row's start vertex
	next     int       // the smallest start vertex Begin accepts
	rowStart int       // index in dsts where the open row starts
	lo, hi   int       // touched word span of the open row; lo > hi when empty

	offs []int32 // transpose-side scratch offsets, reused by SealTransposed
}

// rowEnd records where an ended row's run stops in dsts.
type rowEnd struct {
	src graph.VID
	end int32
}

// NewRowBuilder returns a row builder over the dense VID space
// [0, numVertices).
func NewRowBuilder(numVertices int) *RowBuilder {
	b := &RowBuilder{}
	b.Grow(numVertices)
	return b
}

// Grow resizes the builder for the VID space [0, numVertices) and
// empties it. The bitmap is reallocated only when it must grow.
func (b *RowBuilder) Grow(numVertices int) {
	b.Reset()
	b.numVertices = numVertices
	if w := (numVertices + 63) >> 6; len(b.words) < w {
		b.words = make([]uint64, w)
	}
}

// Begin opens the row of start vertex src, ending the open row first if
// there is one. src must exceed every start vertex begun since the last
// Seal or Reset.
func (b *RowBuilder) Begin(src graph.VID) {
	if b.open {
		b.EndRow()
	}
	if int(src) < b.next || int(src) >= b.numVertices {
		panic(fmt.Sprintf("pairs: row %d begun out of order or out of range (next %d, |V| %d)", src, b.next, b.numVertices))
	}
	b.open = true
	b.src = src
	b.next = int(src) + 1
	b.rowStart = len(b.dsts)
	b.lo, b.hi = len(b.words), -1
}

// Add puts dst into the open row; a repeat is a no-op.
func (b *RowBuilder) Add(dst graph.VID) {
	w := int(dst >> 6)
	m := uint64(1) << (dst & 63)
	if b.words[w]&m != 0 {
		return
	}
	b.words[w] |= m
	b.dsts = append(b.dsts, dst)
	b.lo = min(b.lo, w)
	b.hi = max(b.hi, w)
}

// AddAll puts every vertex of dsts into the open row.
func (b *RowBuilder) AddAll(dsts []graph.VID) {
	words, lo, hi := b.words, b.lo, b.hi
	for _, dst := range dsts {
		w := int(dst >> 6)
		m := uint64(1) << (dst & 63)
		if words[w]&m != 0 {
			continue
		}
		words[w] |= m
		b.dsts = append(b.dsts, dst)
		lo = min(lo, w)
		hi = max(hi, w)
	}
	b.lo, b.hi = lo, hi
}

// sortsRow reports whether a row of k members spread over span bitmap
// words is cheaper to sort than to scan: the fixed emission rule.
func sortsRow(k, span int) bool {
	return span > 4*k*bits.Len(uint(k))
}

// EndRow closes the open row and returns its run: ascending and
// duplicate-free. The run aliases the builder's scratch and stays valid
// only until the next Begin, Add, Reset or Seal. Without an open row it
// returns nil.
func (b *RowBuilder) EndRow() []graph.VID {
	if !b.open {
		return nil
	}
	b.open = false
	row := b.dsts[b.rowStart:]
	if len(row) == 0 {
		return row
	}
	words := b.words
	if sortsRow(len(row), b.hi-b.lo+1) {
		slices.Sort(row)
		for _, d := range row {
			words[d>>6] = 0
		}
	} else {
		i := 0
		for w := b.lo; w <= b.hi; w++ {
			word := words[w]
			if word == 0 {
				continue
			}
			words[w] = 0
			base := graph.VID(w << 6)
			for word != 0 {
				row[i] = base + graph.VID(bits.TrailingZeros64(word))
				i++
				word &= word - 1
			}
		}
	}
	b.ends = append(b.ends, rowEnd{src: b.src, end: int32(len(b.dsts))})
	return row
}

// Reset empties the builder, discarding the ended rows and any open
// row, and clears the open row's bits so the bitmap is clean for reuse.
func (b *RowBuilder) Reset() {
	if b.open {
		for _, d := range b.dsts[b.rowStart:] {
			b.words[d>>6] = 0
		}
		b.open = false
	}
	b.dsts = b.dsts[:0]
	b.ends = b.ends[:0]
	b.next = 0
}

// fillOffsets writes the CSR offsets of the ended rows into off (len
// numVertices+1), every entry exactly once.
func (b *RowBuilder) fillOffsets(off []int32) {
	v, prev := 0, int32(0)
	for _, r := range b.ends {
		for ; v <= int(r.src); v++ {
			off[v] = prev
		}
		prev = r.end
	}
	for ; v < len(off); v++ {
		off[v] = prev
	}
}

// Seal ends the open row, freezes the rows into a Relation and resets
// the builder for reuse. The sealed columns are exactly sized and
// independent of the builder.
func (b *RowBuilder) Seal() *Relation {
	b.EndRow()
	n := b.numVertices
	if n == 0 {
		b.Reset()
		return emptyRelation
	}
	off := make([]int32, n+1)
	b.fillOffsets(off)
	dsts := make([]graph.VID, len(b.dsts))
	copy(dsts, b.dsts)
	b.Reset()
	return &Relation{numVertices: n, srcOffsets: off, dsts: dsts}
}

// SealTransposed is Seal for rows keyed by the *end* vertex: it returns
// the inverse of the relation the rows describe, the pair (d, s) for
// every row s holding d. The rows' runs are sorted, so the transpose's
// runs come out sorted too (graph.TransposeCSR walks sources in order)
// and only the transposed columns are allocated.
func (b *RowBuilder) SealTransposed() *Relation {
	b.EndRow()
	n := b.numVertices
	if n == 0 {
		b.Reset()
		return emptyRelation
	}
	if cap(b.offs) < n+1 {
		b.offs = make([]int32, n+1)
	}
	off := b.offs[:n+1]
	b.fillOffsets(off)
	tOff, tDsts := graph.TransposeCSR(n, off, b.dsts)
	b.Reset()
	return &Relation{numVertices: n, srcOffsets: tOff, dsts: tDsts}
}
