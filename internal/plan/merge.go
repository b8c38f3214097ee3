package plan

import (
	"slices"

	"repro/internal/conc"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/table"
	"repro/internal/xmltree"
)

// The merges fold an edge's result pairs into a component relation; the
// "Execution: Catalog, Env, Runner" section of DESIGN.md states their
// contract. In short: the pair list is read through a pair-group index, never
// a hash map; a merge runs count-then-fill, so each output column is taken
// once at the exact output cardinality and filled column by column;
// output order is context-row-major, then pair order within one context node,
// then — joining two relations — the second relation's row order; a merge
// copies only the live columns (mergeScratch.live); every index and per-row
// work array is mergeScratch, which the Runner takes from scratchPool and
// hands back when it finishes; and the relations a merge supersedes are
// retired into that scratch, whose next Runner fills its output columns with
// them (mergeScratch.retire, mergeScratch.column). The count and fill loops
// poll the Runner's interrupt once per metrics.PollEvery rows; an interrupted
// merge takes no further output column and returns nil, and the Runner
// returns the interrupt's error.

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
// It is reused from edge to edge, and from query to query through
// scratchPool: a Runner takes one on its first merge (Runner.ms) and hands
// it back in Runner.Finish (recycle). Nothing a live relation or a T(v)
// holds is scratch, and recycle clears the fields that point elsewhere, so a
// recycled scratch never aliases a live relation: its spares are columns of
// relations a finished run superseded (retire). words is all zero between
// calls, as xmltree.SortedSet leaves it.
type mergeScratch struct {
	byKey   pairGroups         // the edge's pairs by context node
	byNode  pairGroups         // joinOn: the second relation's rows by join node
	rows    []int32            // per context row: output rows, then byKey group (-1 = no partner)
	grps    []int32            // joinOn: byNode group per pair value (-1 = no row), then output rows per byKey group
	packed  []uint64           // filter: the pairs as sorted integers
	words   []uint64           // xmltree.SortedSet's bitmap
	pairs   ops.Pairs          // the pairs of the edge being merged, unless it is a first edge
	live    []bool             // the Runner's live bits (Runner.markLive): the input columns a merge copies; nil copies all
	rec     *metrics.Recorder  // the Runner's recorder, whose interrupt the fills poll; nil polls nothing
	retired [][]xmltree.NodeID // the columns of the relations this run superseded (retire)
	spares  [][]xmltree.NodeID // earlier runs' retired columns, oldest first: the output columns of merges (column)
}

// maxSpares is how many retired columns a scratch keeps between runs, the
// most recent ones: enough for every relation a many-way join supersedes,
// few enough that column's scan for the best fit stays short.
const maxSpares = 32

// scratchPool holds the merge scratch of finished Runners, weakly: a query
// reuses the one an earlier query handed back if the collector has not freed
// it yet, so the scratch costs no allocation in steady state and no live
// heap in between.
var scratchPool conc.Recycler[mergeScratch]

// recycle hands ms back to scratchPool. The pair index's values may alias an
// edge's pairs and the live bits are a Runner's own, so both are cleared
// first: the free list never points into data outside the scratch. The
// run's retired columns become spares, and only the maxSpares most recent
// spares stay.
func (ms *mergeScratch) recycle() {
	ms.byKey.vals, ms.byNode.vals, ms.live, ms.rec = nil, nil, nil, nil
	ms.spares = append(ms.spares, ms.retired...)
	clear(ms.retired)
	ms.retired = ms.retired[:0]
	if n := len(ms.spares) - maxSpares; n > 0 {
		ms.spares = slices.Delete(ms.spares, 0, n)
	}
	scratchPool.Put(ms)
}

// retire records the columns of rel, a component relation a merge has just
// superseded, as spares for the Runners after this one. The lifetime rule:
//   - A column is reused only after Runner.Finish hands the scratch back
//     (recycle), never within its own run: until the run ends, T(v) tables,
//     the optimizer's samples and the relations a caller kept may view it.
//   - Only superseded relations are retired, never the final relation nor
//     what the tail's output (Project, Slice, Distinct) views: that outlives
//     Finish.
//   - Every column retired is memory the run allocated: a merge's output
//     column, or a first edge's pair buffer (adopt copies pairs that alias
//     the scratch). No index extent, T(v) or caller's data is ever retired.
func (ms *mergeScratch) retire(rel *table.Relation) {
	for _, id := range rel.ColumnIDs() {
		ms.retired = append(ms.retired, rel.Column(id))
	}
}

// column returns an output column of n rows and unspecified content: the
// smallest spare that holds n rows, taken out of the spares, else a new one.
func (ms *mergeScratch) column(n int) []xmltree.NodeID {
	best := -1
	for i, s := range ms.spares {
		if c := cap(s); c >= n && (best < 0 || c < cap(ms.spares[best])) {
			best = i
		}
	}
	if best < 0 || n == 0 { // an empty column needs no backing array
		return make([]xmltree.NodeID, n)
	}
	col := ms.spares[best][:n]
	ms.spares = slices.Delete(ms.spares, best, best+1)
	return col
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

// repeatRows fills dst with src's row i repeated cnt[i] times (0 drops it)
// and returns it; len(dst) is the sum of cnt. An interrupt leaves the rest
// of dst unfilled.
func (ms *mergeScratch) repeatRows(dst, src []xmltree.NodeID, cnt []int32) []xmltree.NodeID {
	n, poll := 0, metrics.PollEvery
	for i, c := range cnt {
		for v := src[i]; c > 0; c-- {
			dst[n] = v
			n++
		}
		if ms.rec.Poll(n, &poll) {
			break
		}
	}
	return dst
}

// relation is a merge's result over its output columns, or nil when an
// interrupt stopped the merge.
func (ms *mergeScratch) relation(ids []int, docs []*xmltree.Document, cols [][]xmltree.NodeID) *table.Relation {
	if ms.rec.Stopped() != nil {
		return nil
	}
	return table.FromColumns(ids, docs, cols)
}

// expanded starts a merge's output: rel's live columns, filled by repeatRows,
// with room for extra more. An interrupt ends it early.
func (ms *mergeScratch) expanded(rel *table.Relation, cnt []int32, total, extra int) ([]int, []*xmltree.Document, [][]xmltree.NodeID) {
	w := ms.width(rel) + extra
	ids := make([]int, 0, w)
	docs := make([]*xmltree.Document, 0, w)
	cols := make([][]xmltree.NodeID, 0, w)
	for _, id := range rel.ColumnIDs() {
		if ms.rec.Stopped() != nil {
			break
		}
		if ms.keeps(id) {
			ids = append(ids, id)
			docs = append(docs, rel.Doc(id))
			cols = append(cols, ms.repeatRows(ms.column(total), rel.Column(id), cnt))
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
	total, poll := 0, metrics.PollEvery
	for i, k := range colA {
		if ms.rec.Poll(i, &poll) {
			return nil
		}
		g := pg.find(k)
		rowGrp[i], rowCnt[i] = int32(g), 0
		if g >= 0 {
			rowCnt[i] = pg.size(g)
			total += int(pg.size(g))
		}
	}
	ids, docs, cols := ms.expanded(rel, rowCnt, total, 1)
	if ms.rec.Stopped() != nil {
		return nil
	}
	colB := ms.column(total)[:0]
	poll = metrics.PollEvery
	for _, g := range rowGrp {
		if g >= 0 {
			colB = append(colB, pg.run(int(g))...)
			if ms.rec.Poll(len(colB), &poll) {
				break
			}
		}
	}
	return ms.relation(append(ids, b), append(docs, docB), append(cols, colB))
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
	total, poll := 0, metrics.PollEvery
	for i := range colA {
		if ms.rec.Poll(i, &poll) {
			return nil
		}
		rowCnt[i] = 0
		if _, ok := slices.BinarySearch(p, pack(colA[i], colB[i])); ok {
			rowCnt[i] = 1
			total++
		}
	}
	return ms.relation(ms.expanded(rel, rowCnt, total, 0))
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
	total, poll := 0, metrics.PollEvery
	for i, k := range colA {
		if ms.rec.Poll(i, &poll) {
			return nil
		}
		g := pg.find(k)
		rowGrp[i], rowCnt[i] = int32(g), 0
		if g >= 0 {
			rowCnt[i] = grpCnt[g]
			total += int(grpCnt[g])
		}
	}
	ids, docs, cols := ms.expanded(ra, rowCnt, total, ms.width(rb))
	for _, id := range rb.ColumnIDs() {
		if ms.rec.Stopped() != nil {
			break
		}
		if !ms.keeps(id) {
			continue
		}
		src := rb.Column(id)
		dst := ms.column(total)[:0]
		poll = metrics.PollEvery
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
			if ms.rec.Poll(len(dst), &poll) {
				break
			}
		}
		ids, docs, cols = append(ids, id), append(docs, rb.Doc(id)), append(cols, dst)
	}
	return ms.relation(ids, docs, cols)
}
