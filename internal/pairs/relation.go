package pairs

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"rtcshare/internal/graph"
)

// Relation is an immutable, columnar vertex-pair relation: the sealed
// counterpart of the mutable Set. Pairs are stored in CSR form grouped
// by start vertex — the destinations of src v are the contiguous sorted
// run dsts[srcOffsets[v]:srcOffsets[v+1]] — so a batch-unit join probes
// a relation as cache-friendly column slices instead of iterating a
// hash map in random order and re-bucketing it per call. A dst-side
// transpose (the mirror CSR) is built lazily on first SrcsOf/EachDst
// and cached, so the backward joins pay for it once per relation, not
// once per batch unit.
//
// Relations are safe for concurrent use: the columns never change after
// Seal, and the transpose is guarded by a Once. Callers must not modify
// any returned slice.
type Relation struct {
	numVertices int
	srcOffsets  []int32     // len numVertices+1
	dsts        []graph.VID // sorted, duplicate-free within each run

	invOnce    sync.Once
	dstOffsets []int32
	srcs       []graph.VID
}

// emptyRelation backs every sealed relation over a zero-vertex space.
var emptyRelation = &Relation{srcOffsets: []int32{0}}

// NumVertices returns the size of the VID space the relation is defined
// over.
func (r *Relation) NumVertices() int { return r.numVertices }

// Len returns the number of pairs.
func (r *Relation) Len() int { return len(r.dsts) }

// DstsOf returns the end vertices paired with start vertex v, sorted
// ascending. O(1): it is a sub-slice of the src-side column.
func (r *Relation) DstsOf(v graph.VID) []graph.VID {
	return r.dsts[r.srcOffsets[v]:r.srcOffsets[v+1]]
}

// SrcsOf returns the start vertices paired with end vertex w, sorted
// ascending. O(1) after the first call builds the transpose.
func (r *Relation) SrcsOf(w graph.VID) []graph.VID {
	r.transpose()
	return r.srcs[r.dstOffsets[w]:r.dstOffsets[w+1]]
}

// transpose builds the dst-side CSR once (graph.TransposeCSR: sources
// are walked ascending, so every transposed run is already sorted).
func (r *Relation) transpose() {
	r.invOnce.Do(func() {
		r.dstOffsets, r.srcs = graph.TransposeCSR(r.numVertices, r.srcOffsets, r.dsts)
	})
}

// Contains reports whether (src, dst) is in the relation: one binary
// search over src's run.
func (r *Relation) Contains(src, dst graph.VID) bool {
	_, ok := slices.BinarySearch(r.DstsOf(src), dst)
	return ok
}

// Each calls fn for every pair in (src, dst) order, stopping early if
// fn returns false.
func (r *Relation) Each(fn func(src, dst graph.VID) bool) {
	r.EachSrc(func(src graph.VID, dsts []graph.VID) bool {
		for _, dst := range dsts {
			if !fn(src, dst) {
				return false
			}
		}
		return true
	})
}

// EachSrc calls fn once per start vertex with a non-empty run, in
// ascending src order, passing the sorted destination run. fn must not
// modify the run; returning false stops the iteration.
func (r *Relation) EachSrc(fn func(src graph.VID, dsts []graph.VID) bool) {
	for v := 0; v+1 < len(r.srcOffsets); v++ {
		if r.srcOffsets[v] == r.srcOffsets[v+1] {
			continue
		}
		if !fn(graph.VID(v), r.dsts[r.srcOffsets[v]:r.srcOffsets[v+1]]) {
			return
		}
	}
}

// EachDst is EachSrc through the transpose: fn runs once per end vertex
// with a non-empty run, in ascending dst order, with the sorted start
// vertices pairing to it.
func (r *Relation) EachDst(fn func(dst graph.VID, srcs []graph.VID) bool) {
	r.transpose()
	for v := 0; v+1 < len(r.dstOffsets); v++ {
		if r.dstOffsets[v] == r.dstOffsets[v+1] {
			continue
		}
		if !fn(graph.VID(v), r.srcs[r.dstOffsets[v]:r.dstOffsets[v+1]]) {
			return
		}
	}
}

// Srcs returns the sorted distinct start vertices.
func (r *Relation) Srcs() []graph.VID {
	var out []graph.VID
	r.EachSrc(func(src graph.VID, _ []graph.VID) bool {
		out = append(out, src)
		return true
	})
	return out
}

// Dsts returns the sorted distinct end vertices.
func (r *Relation) Dsts() []graph.VID {
	var out []graph.VID
	r.EachDst(func(dst graph.VID, _ []graph.VID) bool {
		out = append(out, dst)
		return true
	})
	return out
}

// CSR exposes the raw src-side columns: offsets (len NumVertices+1) and
// the destination column. Both alias internal storage and must not be
// modified; the edge-level reduction builds G_R directly from them.
func (r *Relation) CSR() (offsets []int32, dsts []graph.VID) {
	return r.srcOffsets, r.dsts
}

// Page returns the pairs at positions [offset, offset+limit) of the
// relation's global (src, dst) order — the paging primitive of the
// query service. A limit <= 0 means "through the end"; an offset at or
// past the end returns an empty page. Cost is O(log |V|) to locate the
// starting run plus O(len(page)) to copy it, so paging a huge sealed
// result never touches the pairs outside the page.
func (r *Relation) Page(offset, limit int) []Pair {
	n := r.Len()
	if offset < 0 {
		offset = 0
	}
	if offset >= n {
		return nil
	}
	count := n - offset
	// Compare by subtraction from the bounded side: offset+limit would
	// overflow for huge limits.
	if limit > 0 && limit < count {
		count = limit
	}
	out := make([]Pair, count)
	return out[:r.PageInto(offset, out)]
}

// PageInto is Page writing into a caller-owned buffer: it fills buf
// with the pairs at positions [offset, offset+len(buf)) of the global
// (src, dst) order and returns how many were written — fewer than
// len(buf) only when the relation ends first. Streaming delivery and
// cursor paging reuse one buffer across calls instead of allocating a
// page per response chunk. A negative offset is clamped to 0; an offset
// at or past the end writes nothing.
func (r *Relation) PageInto(offset int, buf []Pair) int {
	n := r.Len()
	if offset < 0 {
		offset = 0
	}
	if offset >= n || len(buf) == 0 {
		return 0
	}
	end := n
	if len(buf) < n-offset {
		end = offset + len(buf)
	}
	// The first run overlapping the page: the smallest v whose run ends
	// past offset.
	v := sort.Search(r.numVertices, func(v int) bool { return int(r.srcOffsets[v+1]) > offset })
	written := 0
	pos := offset
	for ; v < r.numVertices && pos < end; v++ {
		runEnd := int(r.srcOffsets[v+1])
		for ; pos < runEnd && pos < end; pos++ {
			buf[written] = Pair{graph.VID(v), r.dsts[pos]}
			written++
		}
	}
	return written
}

// Sorted returns the pairs in (src, dst) order.
func (r *Relation) Sorted() []Pair {
	out := make([]Pair, 0, r.Len())
	r.Each(func(src, dst graph.VID) bool {
		out = append(out, Pair{src, dst})
		return true
	})
	return out
}

// ToSet materialises the relation as a mutable Set.
func (r *Relation) ToSet() *Set {
	s := NewSetCap(r.Len())
	r.Each(func(src, dst graph.VID) bool {
		s.Add(src, dst)
		return true
	})
	return s
}

// Equal reports whether two relations over the same VID space hold
// exactly the same pairs.
func (r *Relation) Equal(other *Relation) bool {
	if r.numVertices != other.numVertices || r.Len() != other.Len() {
		return false
	}
	equal := true
	r.EachSrc(func(src graph.VID, dsts []graph.VID) bool {
		orun := other.DstsOf(src)
		if len(orun) != len(dsts) {
			equal = false
			return false
		}
		for j := range dsts {
			if dsts[j] != orun[j] {
				equal = false
				return false
			}
		}
		return true
	})
	return equal
}

// EqualSet reports whether the relation holds exactly the pairs of s.
func (r *Relation) EqualSet(s *Set) bool {
	if r.Len() != s.Len() {
		return false
	}
	ok := true
	r.Each(func(src, dst graph.VID) bool {
		if !s.Contains(src, dst) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Builder accumulates pairs and seals them into an immutable Relation.
// Duplicates are collapsed at Seal time. A Builder is reusable: Seal
// leaves it empty, and the engine pools builders so steady-state
// evaluation reuses the same scratch columns. Not safe for concurrent
// use.
type Builder struct {
	numVertices int
	srcs        []graph.VID
	dsts        []graph.VID

	// scatter buffers reused across Seals.
	counts []int32
	tmp    []graph.VID
}

// NewBuilder returns a builder over the dense VID space
// [0, numVertices).
func NewBuilder(numVertices int) *Builder {
	return &Builder{numVertices: numVertices}
}

// NumVertices returns the VID space size the builder was created with.
func (b *Builder) NumVertices() int { return b.numVertices }

// Add records the pair (src, dst).
func (b *Builder) Add(src, dst graph.VID) {
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
}

// AddPair records p.
func (b *Builder) AddPair(p Pair) { b.Add(p.Src, p.Dst) }

// AddSet records every pair of s.
func (b *Builder) AddSet(s *Set) {
	s.Each(func(src, dst graph.VID) bool {
		b.Add(src, dst)
		return true
	})
}

// AddRelation records every pair of r.
func (b *Builder) AddRelation(r *Relation) {
	r.Each(func(src, dst graph.VID) bool {
		b.Add(src, dst)
		return true
	})
}

// AddBuilder records every pair o has recorded, leaving o unchanged:
// the merge step for builders filled by independent workers, which then
// seal once.
func (b *Builder) AddBuilder(o *Builder) {
	b.srcs = append(b.srcs, o.srcs...)
	b.dsts = append(b.dsts, o.dsts...)
}

// Len returns the number of pairs recorded so far (before dedup).
func (b *Builder) Len() int { return len(b.srcs) }

// Reset drops the recorded pairs, keeping capacity for reuse.
func (b *Builder) Reset() {
	b.srcs = b.srcs[:0]
	b.dsts = b.dsts[:0]
}

// Seal freezes the recorded pairs into a Relation — counting sort by
// src into pooled scratch, an insertion/quick sort per run, one dedup
// pass — and resets the builder for reuse. The sealed columns are
// exactly sized and independent of the builder.
func (b *Builder) Seal() *Relation {
	n := b.numVertices
	if len(b.srcs) == 0 {
		if n == 0 {
			return emptyRelation
		}
		return &Relation{numVertices: n, srcOffsets: make([]int32, n+1)}
	}

	if cap(b.counts) < n+1 {
		b.counts = make([]int32, n+1)
	}
	counts := b.counts[:n+1]
	for i := range counts {
		counts[i] = 0
	}
	for _, s := range b.srcs {
		counts[s+1]++
	}
	for v := 0; v < n; v++ {
		counts[v+1] += counts[v]
	}
	if cap(b.tmp) < len(b.dsts) {
		b.tmp = make([]graph.VID, len(b.dsts))
	}
	tmp := b.tmp[:len(b.dsts)]
	// counts now holds the run start of each src; scatter dsts, walking
	// the cursor forward. Afterwards counts[v] is the end of run v, i.e.
	// the start of run v+1.
	for i, s := range b.srcs {
		tmp[counts[s]] = b.dsts[i]
		counts[s]++
	}

	// Sort and dedup each run in tmp, compacting into the final column.
	dsts := make([]graph.VID, 0, len(tmp))
	offsets := make([]int32, n+1)
	start := int32(0)
	for v := 0; v < n; v++ {
		end := counts[v]
		run := tmp[start:end]
		start = end
		slices.Sort(run)
		for i, d := range run {
			if i == 0 || d != run[i-1] {
				dsts = append(dsts, d)
			}
		}
		offsets[v+1] = int32(len(dsts))
	}
	b.Reset()
	return &Relation{numVertices: n, srcOffsets: offsets, dsts: dsts}
}

// RelationFromCSR rebuilds a sealed relation from raw CSR columns,
// validating them first (offsets monotone and spanning dsts, runs
// strictly increasing, dsts in range) so columns loaded from disk can
// never break the binary searches or index out of range. The relation
// shares the given slices; the caller must not modify them afterwards.
func RelationFromCSR(numVertices int, srcOffsets []int32, dsts []graph.VID) (*Relation, error) {
	if err := graph.ValidateCSR(numVertices, numVertices, srcOffsets, dsts, true); err != nil {
		return nil, fmt.Errorf("pairs: relation CSR: %w", err)
	}
	return &Relation{numVertices: numVertices, srcOffsets: srcOffsets, dsts: dsts}, nil
}

// RelationFromSet seals a mutable Set into a Relation over the given
// VID space.
func RelationFromSet(numVertices int, s *Set) *Relation {
	b := NewBuilder(numVertices)
	b.AddSet(s)
	return b.Seal()
}

// RelationFromPairs seals a pair list into a Relation.
func RelationFromPairs(numVertices int, ps ...Pair) *Relation {
	b := NewBuilder(numVertices)
	for _, p := range ps {
		b.AddPair(p)
	}
	return b.Seal()
}
