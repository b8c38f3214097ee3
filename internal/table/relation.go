package table

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/xmltree"
)

// Relation is a multi-column table: each column is bound to a Join Graph
// vertex (identified by an integer id chosen by the caller) and holds node
// ids of that vertex's document. The semantics of a Join Graph is a fully
// joined Relation over all its vertices (Sec 2.1).
//
// A relation has a handful of columns (one per vertex of a query's Join
// Graph), so a column is found by scanning colIDs, not through a map. The
// schema slices colIDs and docs are never written after construction:
// relations derived row-wise (Slice, Permute, Distinct) share them.
type Relation struct {
	colIDs []int               // vertex ids, in column order
	docs   []*xmltree.Document // document per column
	cols   [][]xmltree.NodeID  // columnar data; all columns same length
}

// NewRelation creates an empty relation with the given columns.
func NewRelation(colIDs []int, docs []*xmltree.Document) *Relation {
	return FromColumns(append([]int(nil), colIDs...), append([]*xmltree.Document(nil), docs...),
		make([][]xmltree.NodeID, len(colIDs)))
}

// FromColumns returns a relation over prebuilt columns of one length. All
// three slices and the column data are adopted, not copied: the caller hands
// them over. This is how the Runner's merges publish columns they filled at
// their exact output cardinality.
func FromColumns(colIDs []int, docs []*xmltree.Document, cols [][]xmltree.NodeID) *Relation {
	if len(colIDs) != len(docs) || len(colIDs) != len(cols) {
		panic("table: colIDs, docs and cols length mismatch")
	}
	for i, id := range colIDs {
		if slices.Contains(colIDs[:i], id) {
			panic(fmt.Sprintf("table: duplicate column id %d", id))
		}
	}
	return &Relation{colIDs: colIDs, docs: docs, cols: cols}
}

// withCols returns a relation over r's schema, shared, and the given columns.
func (r *Relation) withCols(cols [][]xmltree.NodeID) *Relation {
	return &Relation{colIDs: r.colIDs, docs: r.docs, cols: cols}
}

// pos returns the column position of vertex id; the column must exist.
func (r *Relation) pos(id int) int {
	p := slices.Index(r.colIDs, id)
	if p < 0 {
		panic(fmt.Sprintf("table: no column for vertex %d", id))
	}
	return p
}

// FromTable lifts a single-vertex Table into a one-column Relation.
func FromTable(colID int, t *Table) *Relation {
	r := NewRelation([]int{colID}, []*xmltree.Document{t.Doc})
	r.cols[0] = append([]xmltree.NodeID(nil), t.Nodes...)
	return r
}

// NumRows returns the number of tuples.
func (r *Relation) NumRows() int {
	if r == nil || len(r.cols) == 0 {
		return 0
	}
	return len(r.cols[0])
}

// NumCols returns the number of columns.
func (r *Relation) NumCols() int { return len(r.colIDs) }

// ColumnIDs returns the vertex ids in column order.
func (r *Relation) ColumnIDs() []int { return r.colIDs }

// HasColumn reports whether the relation has a column for vertex id.
func (r *Relation) HasColumn(id int) bool { return slices.Contains(r.colIDs, id) }

// Column returns the data of the column bound to vertex id. It panics if the
// column does not exist (callers check HasColumn or know the schema).
func (r *Relation) Column(id int) []xmltree.NodeID { return r.cols[r.pos(id)] }

// Doc returns the document of the column bound to vertex id.
func (r *Relation) Doc(id int) *xmltree.Document { return r.docs[r.pos(id)] }

// AppendRow appends one tuple given in column order. It is for relations
// built row by row from NewRelation: a relation's columns may be views shared
// with other relations and tables, which are read-only.
func (r *Relation) AppendRow(row []xmltree.NodeID) {
	if len(row) != len(r.cols) {
		panic("table: row width mismatch")
	}
	for i, v := range row {
		r.cols[i] = append(r.cols[i], v)
	}
}

// Row materializes row i in column order (mostly for tests and debugging).
func (r *Relation) Row(i int) []xmltree.NodeID {
	row := make([]xmltree.NodeID, len(r.cols))
	for c := range r.cols {
		row[c] = r.cols[c][i]
	}
	return row
}

// DistinctNodes returns the sorted duplicate-free set of nodes in the column
// of vertex id, as a Table — the semijoin-reduced T(v) after executing an
// edge (Algorithm 1 line 15). prev is v's table before the edge (nil when
// unknown); a merge only drops or repeats rows, so the column holds a subset
// of prev's nodes. No node is copied that need not be:
//   - a strictly ascending column becomes the table's Nodes, a view;
//   - a column that still holds as many distinct nodes as prev holds them
//     all, and the table reuses prev's Nodes;
//   - otherwise the set is written into a slice of its exact size.
//
// The Table itself is always new: every refresh is a new T(v) to the ROX
// optimizer, which re-draws S(v) from it (Algorithm 1 line 16). words is
// xmltree.SortedSet's bitmap scratch (nil allocates).
func (r *Relation) DistinctNodes(id int, prev *Table, words *[]uint64) *Table {
	var within []xmltree.NodeID
	if prev != nil {
		within = prev.Nodes
	}
	return &Table{Doc: r.Doc(id), Nodes: xmltree.SortedSet(r.Column(id), within, words)}
}

// Project returns a relation with only the columns for the given vertex ids,
// preserving row order (duplicates retained; apply Distinct for set
// semantics). The columns are r's own, shared rather than copied.
func (r *Relation) Project(ids []int) *Relation {
	docs := make([]*xmltree.Document, len(ids))
	cols := make([][]xmltree.NodeID, len(ids))
	for i, id := range ids {
		docs[i], cols[i] = r.Doc(id), r.Column(id)
	}
	return FromColumns(slices.Clone(ids), docs, cols)
}

// compareRows orders rows a and b by the columns at positions pos.
func (r *Relation) compareRows(pos []int, a, b int) int {
	for _, p := range pos {
		if c := cmp.Compare(r.cols[p][a], r.cols[p][b]); c != 0 {
			return c
		}
	}
	return 0
}

// ordered reports whether the rows already ascend by the columns at pos;
// strict also rules out ties.
func (r *Relation) ordered(pos []int, strict bool) bool {
	limit := 0
	if strict {
		limit = -1
	}
	for i := 1; i < r.NumRows(); i++ {
		if r.compareRows(pos, i-1, i) > limit {
			return false
		}
	}
	return true
}

// rowIndices returns 0..n-1, the identity permutation a sort starts from.
func (r *Relation) rowIndices() []int {
	idx := make([]int, r.NumRows())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Distinct returns a new relation with duplicate rows removed. Row order is
// not preserved (rows come out sorted lexicographically by column values),
// which is fine because XQuery ordering is re-established by the tail's sort.
// A relation already in strictly ascending order — a one-variable path
// query's step output is a sorted node set — is returned as a view sharing
// r's columns. One column is a node set: xmltree.SortedSet dedups it
// without a comparator sort over row indices.
func (r *Relation) Distinct() *Relation {
	if len(r.cols) == 1 {
		return r.withCols([][]xmltree.NodeID{xmltree.SortedSet(r.cols[0], nil, nil)})
	}
	pos := make([]int, len(r.cols))
	for c := range pos {
		pos[c] = c
	}
	if r.ordered(pos, true) {
		return r.Slice(0, r.NumRows())
	}
	idx := r.rowIndices()
	slices.SortFunc(idx, func(a, b int) int { return r.compareRows(pos, a, b) })
	idx = slices.CompactFunc(idx, func(a, b int) bool { return r.compareRows(pos, a, b) == 0 })
	return r.Permute(idx)
}

// SortBy sorts the relation rows by the given vertex-id columns (node id
// ascending, i.e. document order), implementing the tail's numbering τ. The
// sort is stable; rows already in that order are left as they are.
func (r *Relation) SortBy(ids []int) {
	pos := make([]int, len(ids))
	for i, id := range ids {
		pos[i] = r.pos(id)
	}
	if r.ordered(pos, false) {
		return
	}
	idx := r.rowIndices()
	slices.SortStableFunc(idx, func(a, b int) int { return r.compareRows(pos, a, b) })
	r.cols = r.Permute(idx).cols
}

// Permute returns a new relation whose row i is r's row idx[i]. Indices may
// repeat or drop rows; the caller owns idx (it is not retained).
func (r *Relation) Permute(idx []int) *Relation {
	cols := make([][]xmltree.NodeID, len(r.cols))
	for c := range r.cols {
		col := make([]xmltree.NodeID, len(idx))
		for i, ri := range idx {
			col[i] = r.cols[c][ri]
		}
		cols[c] = col
	}
	return r.withCols(cols)
}

// Slice returns a new relation holding rows [lo, hi) of r. The bounds are
// clamped to the relation, so any lo <= hi pair is safe; the row data is
// shared with r (column subslices), which makes windowing a sorted result —
// the tail's limit/offset push-down — allocation-free per row.
func (r *Relation) Slice(lo, hi int) *Relation {
	n := r.NumRows()
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	cols := make([][]xmltree.NodeID, len(r.cols))
	for c := range r.cols {
		cols[c] = r.cols[c][lo:hi]
	}
	return r.withCols(cols)
}

// String renders a compact schema description.
func (r *Relation) String() string {
	return fmt.Sprintf("Relation(cols=%v rows=%d)", r.colIDs, r.NumRows())
}
