// Package index implements the XML indexing structures of MonetDB/XQuery
// that ROX relies on (Sec 2.2 of the paper):
//
//   - an element index D∋elt(q): qualified name → all element nodes with
//     that name, in document order;
//   - a text value index D∋text(v): value → all text nodes with that value;
//   - an attribute value index: (attribute name, value) → attribute nodes,
//     the probe behind the Join Graph's attribute vertices.
//
// All lookups return pre-materialized, duplicate-free, document-ordered node
// slices, so the *count* of qualifying nodes is available at lookup cost —
// the property Phase 1 of Algorithm 1 depends on. Every index has one layout,
// the offset-table arrays of the packed container's sections (packed.go),
// whether New built it, FromPacked mapped it or NewDelta built it over an
// appended range: a name or text-value lookup is a dictionary lookup, two
// offset reads and a slice; an (attribute, value) probe binary-searches a
// sorted key array; and the numeric range lookup is O(log n + |R|) over a
// value-sorted auxiliary, the "ordered store" flavour of the paper's value
// index.
//
// Returned slices are owned by the index: callers must copy before mutating
// (Table construction in the runtime always copies).
package index

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/xmltree"
)

// Index holds all per-document indices. Build one with New (an O(n) scan)
// or attach one to the persistent sections of a packed container with
// FromPacked / OpenPackedFile (no scan — the mapped sections are the index);
// afterwards it is immutable and safe for concurrent readers.
type Index struct {
	doc *xmltree.Document

	// base is the overlaid index of a delta built with NewDelta (delta.go):
	// the tables below then cover only the appended node range, and every
	// accessor answers base-then-delta. Nil for a single-level index.
	base *Index

	elems  postings // elem name id → elem nodes
	attrs  postings // attr name id → attr nodes
	texts  postings // value id → text nodes
	attrEq postings // aeqKey(attr name id, value id) → attr nodes

	// numVal and numPre list the text nodes whose value xmltree.ParseNumber
	// accepts (finite, so the values are totally ordered), sorted by (value,
	// pre); they answer range predicates like text() < 145 by binary search.
	numVal []float64
	numPre []xmltree.NodeID

	// allElems, allAttrs and allTexts are the kind restrictions D_elem,
	// D_attr and D_text in document order: the staircase join's S for "*",
	// "@*" and predicate-free text() vertices.
	allElems, allAttrs, allTexts []xmltree.NodeID
}

// postings groups nodes into document-ordered runs, run i being
// pst[off[i]:off[i+1]]. A dense table (keys == nil) has one run per
// dictionary id; a keyed table has one run per key in keys, which ascend
// strictly. An empty keyed table has a single offset and so answers nil
// whichever way it is read.
type postings struct {
	keys []uint64
	off  []uint32
	pst  []xmltree.NodeID
}

// get returns the run of key, nil when the table has none or it is empty.
func (p *postings) get(key uint64) []xmltree.NodeID {
	i := key
	if p.keys != nil {
		j, ok := slices.BinarySearch(p.keys, key)
		if !ok {
			return nil
		}
		i = uint64(j)
	}
	if i+1 >= uint64(len(p.off)) {
		return nil
	}
	lo, hi := p.off[i], p.off[i+1]
	if lo >= hi {
		return nil
	}
	return p.pst[lo:hi]
}

// group lays document-ordered nodes out as n runs, node i going to run
// run(i): count the runs, then fill back to front so each run keeps
// document order.
func group(nodes []xmltree.NodeID, n int, run func(i int) uint32) postings {
	off := make([]uint32, n+1)
	for i := range nodes {
		off[run(i)]++
	}
	var end uint32
	for r := range n {
		end += off[r]
		off[r] = end
	}
	off[n] = end
	pst := make([]xmltree.NodeID, len(nodes))
	for i := len(nodes) - 1; i >= 0; i-- {
		r := run(i)
		off[r]--
		pst[off[r]] = nodes[i]
	}
	return postings{off: off, pst: pst}
}

// dense groups nodes by dictionary id, one run per id in [0, n).
func dense(nodes []xmltree.NodeID, n int, id func(xmltree.NodeID) uint64) postings {
	return group(nodes, n, func(i int) uint32 { return uint32(id(nodes[i])) })
}

// keyed groups nodes by key, one run per key that occurs.
func keyed(nodes []xmltree.NodeID, key func(xmltree.NodeID) uint64) postings {
	ranks := make([]uint64, len(nodes))
	for i, n := range nodes {
		ranks[i] = key(n)
	}
	keys := slices.Clone(ranks)
	slices.Sort(keys)
	keys = slices.Clone(slices.Compact(keys)) // the keys stay live: drop the duplicates' room
	for i, k := range ranks {
		r, _ := slices.BinarySearch(keys, k)
		ranks[i] = uint64(r)
	}
	p := group(nodes, len(keys), func(i int) uint32 { return uint32(ranks[i]) })
	p.keys = keys
	return p
}

func aeqKey(name, value int32) uint64 {
	return uint64(uint32(name))<<32 | uint64(uint32(value))
}

// New builds all indices for doc with one scan over the node table.
func New(doc *xmltree.Document) *Index { return buildLevel(doc, nil) }

// buildLevel indexes the nodes of doc that base does not cover — all of
// them for New — counting first, then filling. A single-level index gets
// dense tables, the layout of the packed sections; a delta gets keyed ones,
// since a dense table spans its whole dictionary and a commit must cost
// O(appended nodes).
func buildLevel(doc *xmltree.Document, base *Index) *Index {
	from := 0
	if base != nil {
		from = base.doc.Len()
	}
	var count [256]int // nodes per Kind
	for i := from; i < doc.Len(); i++ {
		count[doc.Kind(xmltree.NodeID(i))]++
	}
	ix := &Index{
		doc:      doc,
		base:     base,
		allElems: make([]xmltree.NodeID, 0, count[xmltree.KindElem]),
		allAttrs: make([]xmltree.NodeID, 0, count[xmltree.KindAttr]),
		allTexts: make([]xmltree.NodeID, 0, count[xmltree.KindText]),
	}
	type numText struct {
		val float64
		pre xmltree.NodeID
	}
	var nums []numText
	for i := from; i < doc.Len(); i++ {
		n := xmltree.NodeID(i)
		switch doc.Kind(n) {
		case xmltree.KindElem:
			ix.allElems = append(ix.allElems, n)
		case xmltree.KindAttr:
			ix.allAttrs = append(ix.allAttrs, n)
		case xmltree.KindText:
			ix.allTexts = append(ix.allTexts, n)
			if f, ok := xmltree.ParseNumber(doc.Value(n)); ok {
				nums = append(nums, numText{f, n})
			}
		}
	}
	slices.SortFunc(nums, func(a, b numText) int {
		return cmp.Or(cmp.Compare(a.val, b.val), cmp.Compare(a.pre, b.pre))
	})
	ix.numVal, ix.numPre = make([]float64, len(nums)), make([]xmltree.NodeID, len(nums))
	for i, nt := range nums {
		ix.numVal[i], ix.numPre[i] = nt.val, nt.pre
	}
	table := func(nodes []xmltree.NodeID, ids int, key func(xmltree.NodeID) uint64) postings {
		if base == nil {
			return dense(nodes, ids, key)
		}
		return keyed(nodes, key)
	}
	name := func(n xmltree.NodeID) uint64 { return uint64(doc.NameID(n)) }
	value := func(n xmltree.NodeID) uint64 { return uint64(doc.ValueID(n)) }
	ix.elems = table(ix.allElems, doc.QNames().Len(), name)
	ix.attrs = table(ix.allAttrs, doc.QNames().Len(), name)
	ix.texts = table(ix.allTexts, doc.Values().Len(), value)
	ix.attrEq = keyed(ix.allAttrs, func(n xmltree.NodeID) uint64 { return aeqKey(doc.NameID(n), doc.ValueID(n)) })
	ix.allElems, ix.allAttrs, ix.allTexts = orNil(ix.allElems), orNil(ix.allAttrs), orNil(ix.allTexts)
	return ix
}

// orNil returns nil for an empty slice: a kind restriction without nodes is
// nil, as it is when mapped from an omitted section.
func orNil(nodes []xmltree.NodeID) []xmltree.NodeID {
	if len(nodes) == 0 {
		return nil
	}
	return nodes
}

// Doc returns the indexed document.
func (ix *Index) Doc() *xmltree.Document { return ix.doc }

// overBase returns own for a single-level index and, for a delta, base's
// answer followed by own: document order, as every delta pre exceeds every
// base pre.
func (ix *Index) overBase(own []xmltree.NodeID, base func(*Index) []xmltree.NodeID) []xmltree.NodeID {
	if ix.base == nil {
		return own
	}
	return concatNodes(base(ix.base), own)
}

// Elements implements D∋elt(q): all element nodes with qualified name q, in
// document order. The slice length is the exact count.
func (ix *Index) Elements(qname string) []xmltree.NodeID {
	id, ok := ix.doc.QNames().Lookup(qname)
	if !ok {
		return nil
	}
	return ix.overBase(ix.elems.get(uint64(id)),
		func(b *Index) []xmltree.NodeID { return b.Elements(qname) })
}

// AttributesByName returns all attribute nodes named qattr, in document
// order (the vertex table of an @name Join Graph vertex).
func (ix *Index) AttributesByName(qattr string) []xmltree.NodeID {
	id, ok := ix.doc.QNames().Lookup(qattr)
	if !ok {
		return nil
	}
	return ix.overBase(ix.attrs.get(uint64(id)),
		func(b *Index) []xmltree.NodeID { return b.AttributesByName(qattr) })
}

// TextEq implements D∋text(v): all text nodes whose value equals v.
func (ix *Index) TextEq(v string) []xmltree.NodeID {
	id, ok := ix.doc.Values().Lookup(v)
	if !ok {
		return nil
	}
	return ix.overBase(ix.texts.get(uint64(id)),
		func(b *Index) []xmltree.NodeID { return b.TextEq(v) })
}

// AttrEq returns all attribute nodes named qattr whose value equals v — the
// probe used by the nested-loop index-lookup join on attribute vertices.
func (ix *Index) AttrEq(qattr, v string) []xmltree.NodeID {
	name, ok := ix.doc.QNames().Lookup(qattr)
	if !ok {
		return nil
	}
	val, ok := ix.doc.Values().Lookup(v)
	if !ok {
		return nil
	}
	return ix.overBase(ix.attrEq.get(aeqKey(name, val)),
		func(b *Index) []xmltree.NodeID { return b.AttrEq(qattr, v) })
}

// RangeOp is a comparison operator for numeric range lookups.
type RangeOp int

// Comparison operators supported by TextRange.
const (
	Lt    RangeOp = iota // <
	Le                   // <=
	Gt                   // >
	Ge                   // >=
	EqNum                // = (numeric)
)

// String returns the operator's lexical form.
func (op RangeOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case EqNum:
		return "="
	default:
		return "?"
	}
}

// Compare reports whether v op bound holds.
func (op RangeOp) Compare(v, bound float64) bool {
	switch op {
	case Lt:
		return v < bound
	case Le:
		return v <= bound
	case Gt:
		return v > bound
	case Ge:
		return v >= bound
	case EqNum:
		return v == bound
	default:
		return false
	}
}

// TextRange returns all text nodes with a numeric value v satisfying
// "v op bound", in document order. Cost O(log n + |R|) while the matches are
// dense in their id span (xmltree.SortedSet's bitmap sweep), else
// O(log n + |R| log |R|).
func (ix *Index) TextRange(op RangeOp, bound float64) []xmltree.NodeID {
	n := len(ix.numVal)
	ge := sort.SearchFloat64s(ix.numVal, bound)                            // first value >= bound
	gt := sort.Search(n, func(i int) bool { return ix.numVal[i] > bound }) // first value > bound

	var lo, hi int // half-open range of the matches in the auxiliary
	switch op {
	case Lt:
		lo, hi = 0, ge
	case Le:
		lo, hi = 0, gt
	case Gt:
		lo, hi = gt, n
	case Ge:
		lo, hi = ge, n
	case EqNum:
		lo, hi = ge, gt
	}
	var own []xmltree.NodeID
	if lo < hi {
		// Value order back into document order.
		own = xmltree.SortedSet(ix.numPre[lo:hi], nil, nil)
	}
	return ix.overBase(own, func(b *Index) []xmltree.NodeID { return b.TextRange(op, bound) })
}

// Texts returns every text node of the document in document order (the kind
// restriction D_text).
func (ix *Index) Texts() []xmltree.NodeID { return ix.overBase(ix.allTexts, (*Index).Texts) }

// AllElements returns every element node in document order (the kind
// restriction D_elem, the "*" name test).
func (ix *Index) AllElements() []xmltree.NodeID {
	return ix.overBase(ix.allElems, (*Index).AllElements)
}

// AllAttributes returns every attribute node in document order (the "@*"
// test).
func (ix *Index) AllAttributes() []xmltree.NodeID {
	return ix.overBase(ix.allAttrs, (*Index).AllAttributes)
}
