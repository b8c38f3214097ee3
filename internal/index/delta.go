package index

import (
	"sort"

	"repro/internal/xmltree"
)

// This file is the incremental half of the index: a delta overlay that
// extends an immutable base index (heap-built or attached to a packed
// container's mapped sections) with postings for the nodes a live-ingest
// commit appended. Building the delta scans only the appended region —
// O(delta), never O(document) — and every accessor answers base-then-delta.
//
// The merge is a plain concatenation: every appended node's pre number is
// greater than every base node's (the Appender places new nodes strictly
// after the base segment), so base postings followed by delta postings are
// already in document order. The one accessor that needs a real merge is
// TextRange, whose auxiliary is value-sorted; it concatenates the two
// pre-sorted range results instead (same argument).
//
// Deltas are rebuilt from the original base on every commit rather than
// chained: an Ingester always calls NewDelta(baseIx, snapshot), so lookup
// depth stays 2 regardless of how many batches committed since the last
// compaction. Compaction replaces the pair with a freshly built (or freshly
// packed) single-level index.

// NewDelta builds an index for doc as a delta overlay on base: base must
// index a prefix of doc (the Appender's base segment, or an earlier
// snapshot when resuming), and only nodes at pre >= base.Doc().Len() are
// scanned here. The overlay is immutable and safe for concurrent readers,
// like every Index.
func NewDelta(base *Index, doc *xmltree.Document) *Index {
	ix := &Index{
		doc:    doc,
		base:   base,
		elems:  make(map[int32][]xmltree.NodeID),
		attrs:  make(map[int32][]xmltree.NodeID),
		texts:  make(map[int32][]xmltree.NodeID),
		attrEq: make(map[attrKey][]xmltree.NodeID),
	}
	for i := base.Doc().Len(); i < doc.Len(); i++ {
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

// Base returns the index this delta overlays, or nil for a single-level
// index.
func (ix *Index) Base() *Index { return ix.base }

// concatNodes concatenates two document-ordered posting lists whose pre
// ranges do not overlap (every delta pre exceeds every base pre). The result
// is freshly allocated unless one side is empty — returned slices are owned
// by the index either way, and callers copy before mutating.
func concatNodes(base, delta []xmltree.NodeID) []xmltree.NodeID {
	if len(delta) == 0 {
		return base
	}
	if len(base) == 0 {
		return delta
	}
	out := make([]xmltree.NodeID, 0, len(base)+len(delta))
	out = append(out, base...)
	return append(out, delta...)
}

// deltaElements answers Elements for a delta overlay.
func (ix *Index) deltaElements(qname string) []xmltree.NodeID {
	b := ix.base.Elements(qname)
	id, ok := ix.doc.QNames().Lookup(qname)
	if !ok {
		return b
	}
	return concatNodes(b, ix.elems[id])
}

// deltaAttributesByName answers AttributesByName for a delta overlay.
func (ix *Index) deltaAttributesByName(qattr string) []xmltree.NodeID {
	b := ix.base.AttributesByName(qattr)
	id, ok := ix.doc.QNames().Lookup(qattr)
	if !ok {
		return b
	}
	return concatNodes(b, ix.attrs[id])
}

// deltaTextEq answers TextEq for a delta overlay.
func (ix *Index) deltaTextEq(v string) []xmltree.NodeID {
	b := ix.base.TextEq(v)
	id, ok := ix.doc.Values().Lookup(v)
	if !ok {
		return b
	}
	return concatNodes(b, ix.texts[id])
}

// deltaAttrEq answers AttrEq for a delta overlay.
func (ix *Index) deltaAttrEq(qattr, v string) []xmltree.NodeID {
	b := ix.base.AttrEq(qattr, v)
	name, ok := ix.doc.QNames().Lookup(qattr)
	if !ok {
		return b
	}
	val, ok := ix.doc.Values().Lookup(v)
	if !ok {
		return b
	}
	return concatNodes(b, ix.attrEq[attrKey{name, val}])
}

// deltaElementNames answers ElementNames for a delta overlay: the union of
// base and delta name sets, sorted.
func (ix *Index) deltaElementNames() []string {
	names := ix.base.ElementNames()
	if len(ix.elems) == 0 {
		return names
	}
	seen := make(map[string]bool, len(names)+len(ix.elems))
	for _, s := range names {
		seen[s] = true
	}
	out := append([]string(nil), names...)
	for id := range ix.elems {
		s := ix.doc.QNames().String(id)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
