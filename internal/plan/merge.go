package plan

import (
	"slices"

	"repro/internal/ops"
	"repro/internal/table"
	"repro/internal/xmltree"
)

// The merges fold an edge's result pairs into a component relation; the
// "Execution: Catalog, Env, Runner" section of DESIGN.md states their
// contract. In short: the pair list is read through a pair-group index, never
// a hash map; a merge runs count-then-fill, so each output column is
// allocated once at the exact output cardinality and filled column by column;
// output order is context-row-major, then pair order within one context node,
// then — joining two relations — the second relation's row order; a merge
// copies only the live columns (mergeScratch.live); and every index and
// per-row work array is mergeScratch, owned by the Runner.

// pairGroups is a CSR-style index over a pair list (key[i], val[i]): the
// distinct keys in ascending order and, per key, the run of its values in
// pair order. Built over pairs that are already key-major ascending — what
// every operator emits for a document-ordered context — it is one scan and
// vals aliases the input; otherwise (Swapped pairs, the value-ordered output
// of the merge join) one stable regroup sorts (key, position) as a single
// integer.
type pairGroups struct {
	keys []xmltree.NodeID // distinct keys, ascending
	off  []int32          // key g owns vals[off[g]:off[g+1]]
	vals []xmltree.NodeID // values grouped by key, pair order within a key
	last int              // group of the previous hit, tried first by find

	// Backing for a regroup (and for vals when it cannot alias the input).
	packed             []uint64 // key<<32 | position
	sortedKey, ownVals []xmltree.NodeID
}

// build indexes the pairs (keys[i], vals[i]); node ids are non-negative. A
// nil vals stands for the positions 0..len(keys)-1, which makes the index
// "rows of a column by node".
func (pg *pairGroups) build(keys, vals []xmltree.NodeID) {
	n := len(keys)
	switch {
	case !slices.IsSorted(keys):
		// The position in the low half makes the sort stable.
		pg.packed, pg.sortedKey, pg.ownVals = grow(pg.packed, n), grow(pg.sortedKey, n), grow(pg.ownVals, n)
		for i, k := range keys {
			pg.packed[i] = uint64(uint32(k))<<32 | uint64(i)
		}
		slices.Sort(pg.packed)
		for i, x := range pg.packed {
			pg.sortedKey[i], pg.ownVals[i] = xmltree.NodeID(x>>32), xmltree.NodeID(uint32(x))
			if vals != nil {
				pg.ownVals[i] = vals[uint32(x)]
			}
		}
		keys, vals = pg.sortedKey, pg.ownVals
	case vals == nil:
		pg.ownVals = grow(pg.ownVals, n)
		for i := range pg.ownVals {
			pg.ownVals[i] = xmltree.NodeID(i)
		}
		vals = pg.ownVals
	}
	// Count the distinct keys, then fill keys and off at that size.
	d := 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			d++
		}
	}
	pg.keys, pg.off, pg.vals, pg.last = grow(pg.keys, d), grow(pg.off, d+1), vals, 0
	g := 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			pg.keys[g], pg.off[g] = k, int32(i)
			g++
		}
	}
	pg.off[d] = int32(n)
}

// find returns the group of key k, or -1. Consecutive context rows usually
// carry the same or the next key, so the previous hit and its successor are
// tried before the binary search.
func (pg *pairGroups) find(k xmltree.NodeID) int {
	if g := pg.last; g < len(pg.keys) {
		if pg.keys[g] == k {
			return g
		}
		if g+1 < len(pg.keys) && pg.keys[g+1] == k {
			pg.last = g + 1
			return g + 1
		}
	}
	g, ok := slices.BinarySearch(pg.keys, k)
	if !ok {
		return -1
	}
	pg.last = g
	return g
}

// size returns the number of values of group g; run returns them.
func (pg *pairGroups) size(g int) int32           { return pg.off[g+1] - pg.off[g] }
func (pg *pairGroups) run(g int) []xmltree.NodeID { return pg.vals[pg.off[g]:pg.off[g+1]] }

// mergeScratch is a Runner's working memory for merges and table refreshes.
// It is reused from edge to edge and dies with the Runner.
type mergeScratch struct {
	byKey  pairGroups // the edge's pairs by context node
	byNode pairGroups // joinOn: the second relation's rows by join node
	rows   []int32    // per context row: output rows, then byKey group (-1 = no partner)
	grps   []int32    // joinOn: byNode group per pair value (-1 = no row), then output rows per byKey group
	packed []uint64   // filter: the pairs as sorted integers
	words  []uint64   // xmltree.SortedSet's bitmap
	pairs  ops.Pairs  // the pairs of the edge being merged, unless it is a first edge
	live   []bool     // by vertex id: the input columns a merge copies (Runner.markLive); nil copies all
}

// keeps reports whether a merge copies the input column of vertex id; width
// counts the columns of rel it copies.
func (ms *mergeScratch) keeps(id int) bool { return ms.live == nil || ms.live[id] }

func (ms *mergeScratch) width(rel *table.Relation) int {
	w := 0
	for _, id := range rel.ColumnIDs() {
		if ms.keeps(id) {
			w++
		}
	}
	return w
}

// grow returns s resized to n elements of unspecified content, reallocating
// only when its capacity is short.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// split returns two work arrays of n and m elements carved from *buf, which
// it grows only when short.
func split(buf *[]int32, n, m int) ([]int32, []int32) {
	*buf = grow(*buf, n+m)
	return (*buf)[:n:n], (*buf)[n:]
}

// repeatRows returns src with row i repeated cnt[i] times (0 drops it);
// total is the sum of cnt.
func repeatRows(src []xmltree.NodeID, cnt []int32, total int) []xmltree.NodeID {
	dst := make([]xmltree.NodeID, total)
	n := 0
	for i, c := range cnt {
		for v := src[i]; c > 0; c-- {
			dst[n] = v
			n++
		}
	}
	return dst
}

// expanded starts a merge's output: rel's live columns, filled by repeatRows,
// with room for extra more.
func (ms *mergeScratch) expanded(rel *table.Relation, cnt []int32, total, extra int) ([]int, []*xmltree.Document, [][]xmltree.NodeID) {
	w := ms.width(rel) + extra
	ids := make([]int, 0, w)
	docs := make([]*xmltree.Document, 0, w)
	cols := make([][]xmltree.NodeID, 0, w)
	for _, id := range rel.ColumnIDs() {
		if ms.keeps(id) {
			ids = append(ids, id)
			docs = append(docs, rel.Doc(id))
			cols = append(cols, repeatRows(rel.Column(id), cnt, total))
		}
	}
	return ids, docs, cols
}

// adopt starts a component from the first edge's pairs (unswapped): the pair
// columns are the relation. ExecEdge writes a first edge into a buffer of
// its own, which the relation takes over as is. Pairs that alias ms.pairs —
// the scratch the next edge overwrites — are copied instead, at their exact
// length into one allocation.
func (ms *mergeScratch) adopt(a int, docA *xmltree.Document, b int, docB *xmltree.Document, pairs ops.Pairs) *table.Relation {
	c, s := pairs.C, pairs.S
	if n := len(c); n > 0 && cap(ms.pairs.C) > 0 && &c[0] == &ms.pairs.C[:1][0] {
		cols := make([]xmltree.NodeID, 2*n)
		copy(cols, c)
		copy(cols[n:], s)
		c, s = cols[:n:n], cols[n:]
	}
	return table.FromColumns([]int{a, b}, []*xmltree.Document{docA, docB}, [][]xmltree.NodeID{c, s})
}

// extend joins rel (owning vertex a) with the pair list (C bound to a) to
// add a column for the new vertex b.
func (ms *mergeScratch) extend(rel *table.Relation, a int, pairs ops.Pairs, b int, docB *xmltree.Document) *table.Relation {
	pg := &ms.byKey
	pg.build(pairs.C, pairs.S)
	colA := rel.Column(a)
	rowCnt, rowGrp := split(&ms.rows, len(colA), len(colA))
	total := 0
	for i, k := range colA {
		g := pg.find(k)
		rowGrp[i], rowCnt[i] = int32(g), 0
		if g >= 0 {
			rowCnt[i] = pg.size(g)
			total += int(pg.size(g))
		}
	}
	ids, docs, cols := ms.expanded(rel, rowCnt, total, 1)
	colB := make([]xmltree.NodeID, 0, total)
	for _, g := range rowGrp {
		if g >= 0 {
			colB = append(colB, pg.run(int(g))...)
		}
	}
	return table.FromColumns(append(ids, b), append(docs, docB), append(cols, colB))
}

// filter keeps the rows of rel whose (a, b) columns form a pair.
func (ms *mergeScratch) filter(rel *table.Relation, a, b int, pairs ops.Pairs) *table.Relation {
	pack := func(c, s xmltree.NodeID) uint64 { return uint64(uint32(c))<<32 | uint64(uint32(s)) }
	p := grow(ms.packed, pairs.Len())
	for i := range p {
		p[i] = pack(pairs.C[i], pairs.S[i])
	}
	slices.Sort(p)
	ms.packed = p
	colA, colB := rel.Column(a), rel.Column(b)
	rowCnt, _ := split(&ms.rows, len(colA), 0)
	total := 0
	for i := range colA {
		rowCnt[i] = 0
		if _, ok := slices.BinarySearch(p, pack(colA[i], colB[i])); ok {
			rowCnt[i] = 1
			total++
		}
	}
	return table.FromColumns(ms.expanded(rel, rowCnt, total, 0))
}

// joinOn joins two component relations through the pair list (C bound to
// ra's vertex a, S to rb's vertex b).
func (ms *mergeScratch) joinOn(ra *table.Relation, a int, rb *table.Relation, b int, pairs ops.Pairs) *table.Relation {
	pg, rows := &ms.byKey, &ms.byNode
	pg.build(pairs.C, pairs.S)
	rows.build(rb.Column(b), nil)
	// Per pair value its rb rows; per key the rb rows of all its values.
	valGrp, grpCnt := split(&ms.grps, len(pg.vals), len(pg.keys))
	for g := range pg.keys {
		grpCnt[g] = 0
		for i := pg.off[g]; i < pg.off[g+1]; i++ {
			h := rows.find(pg.vals[i])
			valGrp[i] = int32(h)
			if h >= 0 {
				grpCnt[g] += rows.size(h)
			}
		}
	}
	colA := ra.Column(a)
	rowCnt, rowGrp := split(&ms.rows, len(colA), len(colA))
	total := 0
	for i, k := range colA {
		g := pg.find(k)
		rowGrp[i], rowCnt[i] = int32(g), 0
		if g >= 0 {
			rowCnt[i] = grpCnt[g]
			total += int(grpCnt[g])
		}
	}
	ids, docs, cols := ms.expanded(ra, rowCnt, total, ms.width(rb))
	for _, id := range rb.ColumnIDs() {
		if !ms.keeps(id) {
			continue
		}
		src := rb.Column(id)
		dst := make([]xmltree.NodeID, 0, total)
		for _, g := range rowGrp {
			if g < 0 {
				continue
			}
			for _, h := range valGrp[pg.off[g]:pg.off[g+1]] {
				if h < 0 {
					continue
				}
				for _, j := range rows.run(int(h)) {
					dst = append(dst, src[j])
				}
			}
		}
		ids, docs, cols = append(ids, id), append(docs, rb.Doc(id)), append(cols, dst)
	}
	return table.FromColumns(ids, docs, cols)
}
