// Persistent index sections: the arrays New builds with an O(n) scan are
// written once at pack time, appended to a ROXD v2 container as fixed-width
// sections, and attached zero-copy on open — FromPacked is "point at the
// mapped sections", not a rebuild. This is the RadegastXDB-style native
// storage design the ROADMAP names: node table + string heap + value
// indices, all in one mappable shard file. See the "On-disk store and
// persistent indices" section of DESIGN.md.
package index

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/xmltree"
)

// Section names of the persistent index, appended after the document's own
// sections. They are the Index's own arrays (index.go): postings grouped by
// dense dictionary id are a [idCount+1]u32 offset table into one
// concatenated []int32 posting array, so a lookup is two bounds reads and a
// slice.
const (
	secElemOff = "ix.elem.off" // per qname id → element postings
	secElemPst = "ix.elem.pst"
	secAttrOff = "ix.attr.off" // per qname id → attribute-node postings
	secAttrPst = "ix.attr.pst"
	secTextOff = "ix.text.off" // per value id → text-node postings
	secTextPst = "ix.text.pst"
	secAeqKey  = "ix.aeq.key" // sorted (attr name id << 32 | value id) keys
	secAeqOff  = "ix.aeq.off" // per key → attribute-node postings
	secAeqPst  = "ix.aeq.pst"
	secNumVal  = "ix.num.val" // numeric text auxiliary, sorted by (value, pre)
	secNumPre  = "ix.num.pre"
	secAllElem = "ix.all.elem" // kind restrictions D_elem / D_attr / D_text
	secAllAttr = "ix.all.attr"
	secAllText = "ix.all.text"
)

// PackSections serializes a single-level index (New, FromPacked) into its
// persistent sections, in deterministic order: they are views of the
// index's own arrays. The sections are pure functions of the document, so
// packing the same corpus always produces the same bytes.
func PackSections(ix *Index) []xmltree.Section {
	return []xmltree.Section{
		{Name: secElemOff, Data: xmltree.Uint32sBytes(ix.elems.off)},
		{Name: secElemPst, Data: xmltree.Int32sBytes(ix.elems.pst)},
		{Name: secAttrOff, Data: xmltree.Uint32sBytes(ix.attrs.off)},
		{Name: secAttrPst, Data: xmltree.Int32sBytes(ix.attrs.pst)},
		{Name: secTextOff, Data: xmltree.Uint32sBytes(ix.texts.off)},
		{Name: secTextPst, Data: xmltree.Int32sBytes(ix.texts.pst)},
		{Name: secAeqKey, Data: xmltree.Uint64sBytes(ix.attrEq.keys)},
		{Name: secAeqOff, Data: xmltree.Uint32sBytes(ix.attrEq.off)},
		{Name: secAeqPst, Data: xmltree.Int32sBytes(ix.attrEq.pst)},
		{Name: secNumVal, Data: xmltree.Float64sBytes(ix.numVal)},
		{Name: secNumPre, Data: xmltree.Int32sBytes(ix.numPre)},
		{Name: secAllElem, Data: xmltree.Int32sBytes(ix.allElems)},
		{Name: secAllAttr, Data: xmltree.Int32sBytes(ix.allAttrs)},
		{Name: secAllText, Data: xmltree.Int32sBytes(ix.allTexts)},
	}
}

// ErrNoIndexSections reports a packed container without persistent index
// sections (e.g. one produced by an older packer); callers fall back to the
// O(n) New build.
var ErrNoIndexSections = fmt.Errorf("index: packed container has no index sections")

// FromPacked attaches an Index to the persistent sections of a packed
// container — no scan over the node table, no posting construction: the
// mapped sections are the index. Returns ErrNoIndexSections when the
// container was packed without them.
func FromPacked(p *xmltree.Packed) (*Index, error) {
	if p.Section(secElemOff) == nil {
		return nil, ErrNoIndexSections
	}
	doc := p.Doc()
	ix := &Index{doc: doc}
	var err error
	u32 := func(sec string) []uint32 {
		if err != nil {
			return nil
		}
		var out []uint32
		out, err = castSection(sec, p.Section(sec), xmltree.AsUint32s)
		return out
	}
	nodes := func(sec string) []xmltree.NodeID {
		if err != nil {
			return nil
		}
		var out []xmltree.NodeID
		out, err = castSection(sec, p.Section(sec), xmltree.AsInt32s)
		return out
	}
	ix.elems = postings{off: u32(secElemOff), pst: nodes(secElemPst)}
	ix.attrs = postings{off: u32(secAttrOff), pst: nodes(secAttrPst)}
	ix.texts = postings{off: u32(secTextOff), pst: nodes(secTextPst)}
	if err == nil {
		ix.attrEq.keys, err = castSection(secAeqKey, p.Section(secAeqKey), xmltree.AsUint64s)
	}
	ix.attrEq.off, ix.attrEq.pst = u32(secAeqOff), nodes(secAeqPst)
	if err == nil {
		ix.numVal, err = castSection(secNumVal, p.Section(secNumVal), xmltree.AsFloat64s)
	}
	ix.numPre = nodes(secNumPre)
	ix.allElems, ix.allAttrs, ix.allTexts = nodes(secAllElem), nodes(secAllAttr), nodes(secAllText)
	if err != nil {
		return nil, err
	}
	// Consistency between the offset tables and the dictionaries they are
	// indexed by: a mismatch means the sections belong to a different
	// document revision.
	if len(ix.elems.off) != doc.QNames().Len()+1 || len(ix.attrs.off) != doc.QNames().Len()+1 {
		return nil, fmt.Errorf("index: qname offset tables sized %d/%d, dictionary has %d entries",
			len(ix.elems.off)-1, len(ix.attrs.off)-1, doc.QNames().Len())
	}
	if len(ix.texts.off) != doc.Values().Len()+1 {
		return nil, fmt.Errorf("index: text offset table sized %d, value dictionary has %d entries",
			len(ix.texts.off)-1, doc.Values().Len())
	}
	if len(ix.attrEq.off) != len(ix.attrEq.keys)+1 {
		return nil, fmt.Errorf("index: attr-eq offset table sized %d for %d keys",
			len(ix.attrEq.off)-1, len(ix.attrEq.keys))
	}
	if len(ix.numVal) != len(ix.numPre) {
		return nil, fmt.Errorf("index: numeric auxiliary arrays sized %d vs %d",
			len(ix.numVal), len(ix.numPre))
	}
	// Bounds and ordering validation of the mapped sections, at attach time
	// rather than at query time: a corrupt or hostile container must fail the
	// load with a typed error, not panic a posting slice or a node-column
	// access inside a query goroutine (roxserve maps files on request, so a
	// deferred panic would be remotely triggerable), nor make a binary search
	// answer wrongly. O(postings) — linear scans over mapped memory, still far
	// cheaper than the O(n) rebuild this path avoids.
	for _, tbl := range []struct {
		sec string
		p   postings
	}{
		{secElemOff, ix.elems}, {secAttrOff, ix.attrs}, {secTextOff, ix.texts}, {secAeqOff, ix.attrEq},
	} {
		if err := checkOffsets(tbl.sec, tbl.p.off, len(tbl.p.pst)); err != nil {
			return nil, err
		}
	}
	for _, ps := range []struct {
		sec string
		pst []xmltree.NodeID
	}{
		{secElemPst, ix.elems.pst}, {secAttrPst, ix.attrs.pst}, {secTextPst, ix.texts.pst},
		{secAeqPst, ix.attrEq.pst}, {secNumPre, ix.numPre},
		{secAllElem, ix.allElems}, {secAllAttr, ix.allAttrs}, {secAllText, ix.allTexts},
	} {
		if err := checkNodeIDs(ps.sec, ps.pst, doc.Len()); err != nil {
			return nil, err
		}
	}
	for i := 1; i < len(ix.attrEq.keys); i++ {
		if ix.attrEq.keys[i] <= ix.attrEq.keys[i-1] {
			return nil, fmt.Errorf("index: section %s: keys not strictly ascending at entry %d", secAeqKey, i)
		}
	}
	for i, v := range ix.numVal {
		if math.IsNaN(v) || i > 0 && v < ix.numVal[i-1] {
			return nil, fmt.Errorf("index: section %s: value %v at entry %d breaks the ascending order", secNumVal, v, i)
		}
	}
	return ix, nil
}

// checkOffsets rejects an offset table whose entries decrease or point past
// the posting array — either would make postings() slice out of bounds.
func checkOffsets(sec string, off []uint32, pstLen int) error {
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("index: section %s: offset table decreases at entry %d (%d after %d)",
				sec, i, off[i], off[i-1])
		}
	}
	if len(off) > 0 && uint64(off[len(off)-1]) > uint64(pstLen) {
		return fmt.Errorf("index: section %s: offset table ends at %d, posting array holds %d entries",
			sec, off[len(off)-1], pstLen)
	}
	return nil
}

// checkNodeIDs rejects postings that reference nodes outside the document.
func checkNodeIDs(sec string, pst []xmltree.NodeID, n int) error {
	for i, id := range pst {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("index: section %s: posting %d references node %d of a %d-node document",
				sec, i, id, n)
		}
	}
	return nil
}

// castSection applies a zero-copy cast to a section, treating a missing
// section as empty (legitimately empty sections are omitted by the writer).
func castSection[T any](name string, data []byte, cast func([]byte) ([]T, error)) ([]T, error) {
	if data == nil {
		return nil, nil
	}
	out, err := cast(data)
	if err != nil {
		return nil, fmt.Errorf("index: section %s: %w", name, err)
	}
	return out, nil
}

// WritePackedFile packs the indexed document — node table, dictionaries and
// persistent index sections — into one mappable .roxd container file.
func WritePackedFile(path string, ix *Index) error {
	return xmltree.WritePackedFile(path, ix.doc, PackSections(ix))
}

// OpenPackedFile opens a .roxd container as a ready-to-query Index: the file
// is memory-mapped (platform permitting) and its persistent index sections
// attached zero-copy — cold start does no O(n) work. A container packed
// without index sections falls back to the New rebuild over the mapped
// document, after the full Packed.Verify the rebuild's dictionary-id tables
// rely on (both are O(n)); anything that is not a ROXD v2 container fails
// with a *xmltree.FormatError.
func OpenPackedFile(path string) (*Index, error) {
	p, err := xmltree.OpenPackedFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := FromPacked(p)
	if errors.Is(err, ErrNoIndexSections) {
		if err := p.Verify(); err != nil {
			return nil, err
		}
		return New(p.Doc()), nil
	}
	return ix, err
}
