// Package index implements the XML indexing structures of MonetDB/XQuery
// that ROX relies on (Sec 2.2 of the paper):
//
//   - an element index D∋elt(q): qualified name → all element nodes with
//     that name, in document order;
//   - a text value index D∋text(v): value → all text nodes with that value;
//   - an attribute value index D∋attr(v, qelt, qattr): value (+ element and
//     attribute name restrictions) → owner elements, plus the attribute-node
//     variants the Join Graph vertices need.
//
// All lookups return pre-materialized, duplicate-free, document-ordered node
// slices, so the *count* of qualifying nodes is available at lookup cost —
// the property Phase 1 of Algorithm 1 depends on. Lookups are O(1) after the
// one-time index build (hash on name/value), and the numeric range lookup is
// O(log n + |R|) over a sorted auxiliary, the "ordered store" flavour of the
// paper's value index.
//
// Returned slices are owned by the index: callers must copy before mutating
// (Table construction in the runtime always copies).
package index

import (
	"sort"

	"repro/internal/xmltree"
)

// Index holds all per-document indices. Build one with New (an O(n) scan)
// or attach one to the persistent sections of a packed container with
// FromPacked / OpenPackedFile (no scan — the mapped sections are the index);
// afterwards it is immutable and safe for concurrent readers. Both backings
// answer every lookup identically.
type Index struct {
	doc *xmltree.Document

	// pk is the mapped backing: non-nil for an index attached to persistent
	// sections, in which case the map fields below stay nil and every
	// accessor reads the offset tables and posting arrays instead.
	pk *packed

	// base is the overlaid index for a delta built with NewDelta (delta.go):
	// the map fields then cover only the appended node range, and accessors
	// answer base-then-delta. Nil for a single-level index.
	base *Index

	elems map[int32][]xmltree.NodeID // elem name id → elem nodes
	attrs map[int32][]xmltree.NodeID // attr name id → attr nodes
	texts map[int32][]xmltree.NodeID // value id → text nodes

	// attrEq maps (attr name id, value id) → attribute nodes, the index
	// probed by the nested-loop index-lookup join on attribute vertices.
	attrEq map[attrKey][]xmltree.NodeID

	// numericTexts lists text nodes whose value xmltree.ParseNumber accepts
	// (finite, so the values are totally ordered), sorted by value; it
	// answers range predicates like text() < 145 by binary search.
	numericTexts []numText

	// allTexts lists every text node in document order — the kind
	// restriction S = D_text of the staircase join for predicate-free
	// text() vertices.
	allTexts []xmltree.NodeID

	// allElems and allAttrs are the kind restrictions S = D_elem and
	// S = D_attr ("*" and "@*" tests).
	allElems []xmltree.NodeID
	allAttrs []xmltree.NodeID
}

type attrKey struct {
	name  int32
	value int32
}

type numText struct {
	val float64
	pre xmltree.NodeID
}

// New builds all indices for doc with one scan over the node table.
func New(doc *xmltree.Document) *Index {
	ix := &Index{
		doc:    doc,
		elems:  make(map[int32][]xmltree.NodeID),
		attrs:  make(map[int32][]xmltree.NodeID),
		texts:  make(map[int32][]xmltree.NodeID),
		attrEq: make(map[attrKey][]xmltree.NodeID),
	}
	for i := 0; i < doc.Len(); i++ {
		n := xmltree.NodeID(i)
		switch doc.Kind(n) {
		case xmltree.KindElem:
			id := doc.NameID(n)
			ix.elems[id] = append(ix.elems[id], n)
			ix.allElems = append(ix.allElems, n)
		case xmltree.KindAttr:
			name, val := doc.NameID(n), doc.ValueID(n)
			ix.attrs[name] = append(ix.attrs[name], n)
			ix.allAttrs = append(ix.allAttrs, n)
			k := attrKey{name, val}
			ix.attrEq[k] = append(ix.attrEq[k], n)
		case xmltree.KindText:
			val := doc.ValueID(n)
			ix.texts[val] = append(ix.texts[val], n)
			ix.allTexts = append(ix.allTexts, n)
			if f, ok := xmltree.ParseNumber(doc.Value(n)); ok {
				ix.numericTexts = append(ix.numericTexts, numText{f, n})
			}
		}
	}
	sort.Slice(ix.numericTexts, func(a, b int) bool {
		if ix.numericTexts[a].val != ix.numericTexts[b].val {
			return ix.numericTexts[a].val < ix.numericTexts[b].val
		}
		return ix.numericTexts[a].pre < ix.numericTexts[b].pre
	})
	return ix
}

// Doc returns the indexed document.
func (ix *Index) Doc() *xmltree.Document { return ix.doc }

// Elements implements D∋elt(q): all element nodes with qualified name q, in
// document order. The slice length is the exact count.
func (ix *Index) Elements(qname string) []xmltree.NodeID {
	if ix.base != nil {
		return ix.deltaElements(qname)
	}
	id, ok := ix.doc.QNames().Lookup(qname)
	if !ok {
		return nil
	}
	if ix.pk != nil {
		return ix.pk.postings(ix.pk.elemOff, ix.pk.elemPst, id)
	}
	return ix.elems[id]
}

// AttributesByName returns all attribute nodes named qattr, in document
// order (the vertex table of an @name Join Graph vertex).
func (ix *Index) AttributesByName(qattr string) []xmltree.NodeID {
	if ix.base != nil {
		return ix.deltaAttributesByName(qattr)
	}
	id, ok := ix.doc.QNames().Lookup(qattr)
	if !ok {
		return nil
	}
	if ix.pk != nil {
		return ix.pk.postings(ix.pk.attrOff, ix.pk.attrPst, id)
	}
	return ix.attrs[id]
}

// TextEq implements D∋text(v): all text nodes whose value equals v.
func (ix *Index) TextEq(v string) []xmltree.NodeID {
	if ix.base != nil {
		return ix.deltaTextEq(v)
	}
	id, ok := ix.doc.Values().Lookup(v)
	if !ok {
		return nil
	}
	if ix.pk != nil {
		return ix.pk.postings(ix.pk.textOff, ix.pk.textPst, id)
	}
	return ix.texts[id]
}

// AttrEq returns all attribute nodes named qattr whose value equals v — the
// probe used by the nested-loop index-lookup join on attribute vertices.
func (ix *Index) AttrEq(qattr, v string) []xmltree.NodeID {
	if ix.base != nil {
		return ix.deltaAttrEq(qattr, v)
	}
	name, ok := ix.doc.QNames().Lookup(qattr)
	if !ok {
		return nil
	}
	val, ok := ix.doc.Values().Lookup(v)
	if !ok {
		return nil
	}
	if ix.pk != nil {
		key := aeqKey(name, val)
		i := sort.Search(len(ix.pk.aeqKey), func(i int) bool { return ix.pk.aeqKey[i] >= key })
		if i == len(ix.pk.aeqKey) || ix.pk.aeqKey[i] != key {
			return nil
		}
		return ix.pk.postings(ix.pk.aeqOff, ix.pk.aeqPst, int32(i))
	}
	return ix.attrEq[attrKey{name, val}]
}

// AttrParents implements the paper's D∋attr(v, qelt, qattr): the owner
// elements with name qelt of attributes named qattr valued v. Pass qelt ""
// to skip the element-name restriction.
func (ix *Index) AttrParents(v, qelt, qattr string) []xmltree.NodeID {
	attrs := ix.AttrEq(qattr, v)
	if len(attrs) == 0 {
		return nil
	}
	var eltID int32 = -1
	if qelt != "" {
		id, ok := ix.doc.QNames().Lookup(qelt)
		if !ok {
			return nil
		}
		eltID = id
	}
	out := make([]xmltree.NodeID, 0, len(attrs))
	for _, a := range attrs {
		p := ix.doc.Parent(a)
		if eltID >= 0 && ix.doc.NameID(p) != eltID {
			continue
		}
		out = append(out, p)
	}
	// Parents of document-ordered attributes are document-ordered, and an
	// element owns each attribute name at most once — no dedup needed.
	if len(out) == 0 {
		return nil
	}
	return out
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

// numLen/numValAt/numPreAt read the sorted numeric auxiliary through
// whichever backing the index has (struct slice on the heap, two parallel
// mapped arrays when packed).
func (ix *Index) numLen() int {
	if ix.pk != nil {
		return len(ix.pk.numVal)
	}
	return len(ix.numericTexts)
}

func (ix *Index) numValAt(i int) float64 {
	if ix.pk != nil {
		return ix.pk.numVal[i]
	}
	return ix.numericTexts[i].val
}

func (ix *Index) numPreAt(i int) xmltree.NodeID {
	if ix.pk != nil {
		return ix.pk.numPre[i]
	}
	return ix.numericTexts[i].pre
}

// TextRange returns all text nodes with a numeric value v satisfying
// "v op bound", in document order. Cost O(log n + |R|) while the matches are
// dense in their id span (xmltree.SortUnique's bitmap sweep), else
// O(log n + |R| log |R|).
func (ix *Index) TextRange(op RangeOp, bound float64) []xmltree.NodeID {
	if ix.base != nil {
		// Both halves come out pre-sorted and the delta's pres all exceed the
		// base's, so concatenation is the merge.
		return concatNodes(ix.base.TextRange(op, bound), ix.textRangeSelf(op, bound))
	}
	return ix.textRangeSelf(op, bound)
}

// textRangeSelf answers TextRange over this level's own numeric auxiliary.
func (ix *Index) textRangeSelf(op RangeOp, bound float64) []xmltree.NodeID {
	n := ix.numLen()
	var lo, hi int // half-open [lo, hi) range in the value-sorted auxiliary
	switch op {
	case Lt:
		lo, hi = 0, sort.Search(n, func(i int) bool { return ix.numValAt(i) >= bound })
	case Le:
		lo, hi = 0, sort.Search(n, func(i int) bool { return ix.numValAt(i) > bound })
	case Gt:
		lo, hi = sort.Search(n, func(i int) bool { return ix.numValAt(i) > bound }), n
	case Ge:
		lo, hi = sort.Search(n, func(i int) bool { return ix.numValAt(i) >= bound }), n
	case EqNum:
		lo = sort.Search(n, func(i int) bool { return ix.numValAt(i) >= bound })
		hi = sort.Search(n, func(i int) bool { return ix.numValAt(i) > bound })
	}
	if lo >= hi {
		return nil
	}
	out := make([]xmltree.NodeID, hi-lo)
	for i := lo; i < hi; i++ {
		out[i-lo] = ix.numPreAt(i)
	}
	return xmltree.SortUnique(out, nil) // value order back into document order
}

// Texts returns every text node of the document in document order (the kind
// restriction D_text).
func (ix *Index) Texts() []xmltree.NodeID {
	if ix.base != nil {
		return concatNodes(ix.base.Texts(), ix.allTexts)
	}
	if ix.pk != nil {
		return ix.pk.allText
	}
	return ix.allTexts
}

// AllElements returns every element node in document order (the kind
// restriction D_elem, the "*" name test).
func (ix *Index) AllElements() []xmltree.NodeID {
	if ix.base != nil {
		return concatNodes(ix.base.AllElements(), ix.allElems)
	}
	if ix.pk != nil {
		return ix.pk.allElem
	}
	return ix.allElems
}

// AllAttributes returns every attribute node in document order (the "@*"
// test).
func (ix *Index) AllAttributes() []xmltree.NodeID {
	if ix.base != nil {
		return concatNodes(ix.base.AllAttributes(), ix.allAttrs)
	}
	if ix.pk != nil {
		return ix.pk.allAttr
	}
	return ix.allAttrs
}

// CountElements returns the number of elements named qname at index-lookup
// cost, without materializing anything new.
func (ix *Index) CountElements(qname string) int { return len(ix.Elements(qname)) }

// CountTextEq returns the number of text nodes valued v.
func (ix *Index) CountTextEq(v string) int { return len(ix.TextEq(v)) }

// ElementNames returns all distinct element names present in the document,
// sorted (used by catalogs and the plan enumerator).
func (ix *Index) ElementNames() []string {
	if ix.base != nil {
		return ix.deltaElementNames()
	}
	var out []string
	if ix.pk != nil {
		for id := 0; id+1 < len(ix.pk.elemOff); id++ {
			if ix.pk.elemOff[id+1] > ix.pk.elemOff[id] {
				out = append(out, ix.doc.QNames().String(int32(id)))
			}
		}
	} else {
		out = make([]string, 0, len(ix.elems))
		for id := range ix.elems {
			out = append(out, ix.doc.QNames().String(id))
		}
	}
	sort.Strings(out)
	return out
}
