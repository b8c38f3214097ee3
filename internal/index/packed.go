// Persistent index sections: the postings the in-memory Index builds with an
// O(n) scan (New) can instead be computed once at pack time, appended to a
// ROXD v2 container as fixed-width sections, and attached zero-copy on open
// — FromPacked is "point at the mapped sections", not a rebuild. This is the
// RadegastXDB-style native storage design the ROADMAP names: node table +
// string heap + value indices, all in one mappable shard file. See the
// "On-disk store and persistent indices" section of DESIGN.md.
package index

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/xmltree"
)

// Section names of the persistent index, appended after the document's own
// sections. Postings are grouped by dense dictionary id: a [idCount+1]u32
// offset table into one concatenated []int32 posting array, so a lookup is
// two bounds reads and a slice — the same O(1) the in-memory maps give,
// without building them.
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

// packed is the mapped-backing counterpart of the Index maps: offset tables
// and posting arrays that alias the container's sections. All slices are
// read-only views; the Document they came with keeps the mapping alive.
type packed struct {
	elemOff []uint32
	elemPst []xmltree.NodeID
	attrOff []uint32
	attrPst []xmltree.NodeID
	textOff []uint32
	textPst []xmltree.NodeID

	aeqKey []uint64
	aeqOff []uint32
	aeqPst []xmltree.NodeID

	numVal []float64
	numPre []xmltree.NodeID

	allElem, allAttr, allText []xmltree.NodeID
}

// postings returns the posting list of dense id within an offset table, nil
// when the id is out of range or empty (matching the nil the map lookups of
// the heap backing return).
func (pk *packed) postings(off []uint32, pst []xmltree.NodeID, id int32) []xmltree.NodeID {
	if id < 0 || int(id)+1 >= len(off) {
		return nil
	}
	lo, hi := off[id], off[id+1]
	if lo >= hi {
		return nil
	}
	return pst[lo:hi]
}

// PackSections serializes a built index into its persistent sections, in
// deterministic order. The sections are pure functions of the document, so
// packing the same corpus always produces the same bytes.
func PackSections(ix *Index) []xmltree.Section {
	doc := ix.doc
	elemOff, elemPst := packPostings(ix.elems, doc.QNames().Len())
	attrOff, attrPst := packPostings(ix.attrs, doc.QNames().Len())
	textOff, textPst := packPostings(ix.texts, doc.Values().Len())

	// attrEq keys are sparse (name, value) pairs: sort them into one array
	// and binary-search at lookup time.
	keys := make([]uint64, 0, len(ix.attrEq))
	for k := range ix.attrEq {
		keys = append(keys, aeqKey(k.name, k.value))
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	aeqOff := make([]uint32, len(keys)+1)
	var aeqPst []xmltree.NodeID
	for i, k := range keys {
		aeqOff[i] = uint32(len(aeqPst))
		aeqPst = append(aeqPst, ix.attrEq[attrKey{int32(k >> 32), int32(uint32(k))}]...)
	}
	aeqOff[len(keys)] = uint32(len(aeqPst))

	numVal := make([]float64, len(ix.numericTexts))
	numPre := make([]xmltree.NodeID, len(ix.numericTexts))
	for i, nt := range ix.numericTexts {
		numVal[i], numPre[i] = nt.val, nt.pre
	}

	return []xmltree.Section{
		{Name: secElemOff, Data: xmltree.Uint32sBytes(elemOff)},
		{Name: secElemPst, Data: xmltree.Int32sBytes(elemPst)},
		{Name: secAttrOff, Data: xmltree.Uint32sBytes(attrOff)},
		{Name: secAttrPst, Data: xmltree.Int32sBytes(attrPst)},
		{Name: secTextOff, Data: xmltree.Uint32sBytes(textOff)},
		{Name: secTextPst, Data: xmltree.Int32sBytes(textPst)},
		{Name: secAeqKey, Data: xmltree.Uint64sBytes(keys)},
		{Name: secAeqOff, Data: xmltree.Uint32sBytes(aeqOff)},
		{Name: secAeqPst, Data: xmltree.Int32sBytes(aeqPst)},
		{Name: secNumVal, Data: xmltree.Float64sBytes(numVal)},
		{Name: secNumPre, Data: xmltree.Int32sBytes(numPre)},
		{Name: secAllElem, Data: xmltree.Int32sBytes(ix.allElems)},
		{Name: secAllAttr, Data: xmltree.Int32sBytes(ix.allAttrs)},
		{Name: secAllText, Data: xmltree.Int32sBytes(ix.allTexts)},
	}
}

// packPostings flattens an id-keyed posting map into a dense offset table
// (one entry per dictionary id, empty ids included) plus the concatenated
// posting array.
func packPostings(m map[int32][]xmltree.NodeID, idCount int) ([]uint32, []xmltree.NodeID) {
	off := make([]uint32, idCount+1)
	total := 0
	for _, p := range m {
		total += len(p)
	}
	pst := make([]xmltree.NodeID, 0, total)
	for id := 0; id < idCount; id++ {
		off[id] = uint32(len(pst))
		pst = append(pst, m[int32(id)]...)
	}
	off[idCount] = uint32(len(pst))
	return off, pst
}

func aeqKey(name, value int32) uint64 {
	return uint64(uint32(name))<<32 | uint64(uint32(value))
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
	doc := p.Doc()
	pk := &packed{}
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
	if p.Section(secElemOff) == nil {
		return nil, ErrNoIndexSections
	}
	pk.elemOff, pk.elemPst = u32(secElemOff), nodes(secElemPst)
	pk.attrOff, pk.attrPst = u32(secAttrOff), nodes(secAttrPst)
	pk.textOff, pk.textPst = u32(secTextOff), nodes(secTextPst)
	if err == nil {
		pk.aeqKey, err = castSection(secAeqKey, p.Section(secAeqKey), xmltree.AsUint64s)
	}
	pk.aeqOff, pk.aeqPst = u32(secAeqOff), nodes(secAeqPst)
	if err == nil {
		pk.numVal, err = castSection(secNumVal, p.Section(secNumVal), xmltree.AsFloat64s)
	}
	pk.numPre = nodes(secNumPre)
	pk.allElem, pk.allAttr, pk.allText = nodes(secAllElem), nodes(secAllAttr), nodes(secAllText)
	if err != nil {
		return nil, err
	}
	// Consistency between the offset tables and the dictionaries they are
	// indexed by: a mismatch means the sections belong to a different
	// document revision.
	if len(pk.elemOff) != doc.QNames().Len()+1 || len(pk.attrOff) != doc.QNames().Len()+1 {
		return nil, fmt.Errorf("index: qname offset tables sized %d/%d, dictionary has %d entries",
			len(pk.elemOff)-1, len(pk.attrOff)-1, doc.QNames().Len())
	}
	if len(pk.textOff) != doc.Values().Len()+1 {
		return nil, fmt.Errorf("index: text offset table sized %d, value dictionary has %d entries",
			len(pk.textOff)-1, doc.Values().Len())
	}
	if len(pk.aeqOff) != len(pk.aeqKey)+1 {
		return nil, fmt.Errorf("index: attr-eq offset table sized %d for %d keys",
			len(pk.aeqOff)-1, len(pk.aeqKey))
	}
	if len(pk.numVal) != len(pk.numPre) {
		return nil, fmt.Errorf("index: numeric auxiliary arrays sized %d vs %d",
			len(pk.numVal), len(pk.numPre))
	}
	// Bounds validation of the mapped sections, at attach time rather than at
	// query time: a corrupt or hostile container must fail the load with a
	// typed error, not panic a posting slice or a node-column access inside a
	// query goroutine (roxserve maps files on request, so a deferred panic
	// would be remotely triggerable). O(postings) — linear scans over mapped
	// memory, still far cheaper than the O(n) rebuild this path avoids.
	for _, tbl := range []struct {
		sec string
		off []uint32
		pst []xmltree.NodeID
	}{
		{secElemOff, pk.elemOff, pk.elemPst},
		{secAttrOff, pk.attrOff, pk.attrPst},
		{secTextOff, pk.textOff, pk.textPst},
		{secAeqOff, pk.aeqOff, pk.aeqPst},
	} {
		if err := checkOffsets(tbl.sec, tbl.off, len(tbl.pst)); err != nil {
			return nil, err
		}
	}
	for _, ps := range []struct {
		sec string
		pst []xmltree.NodeID
	}{
		{secElemPst, pk.elemPst}, {secAttrPst, pk.attrPst}, {secTextPst, pk.textPst},
		{secAeqPst, pk.aeqPst}, {secNumPre, pk.numPre},
		{secAllElem, pk.allElem}, {secAllAttr, pk.allAttr}, {secAllText, pk.allText},
	} {
		if err := checkNodeIDs(ps.sec, ps.pst, doc.Len()); err != nil {
			return nil, err
		}
	}
	return &Index{doc: doc, pk: pk}, nil
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
// document; anything that is not a ROXD v2 container fails with a
// *xmltree.FormatError.
func OpenPackedFile(path string) (*Index, error) {
	p, err := xmltree.OpenPackedFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := FromPacked(p)
	if errors.Is(err, ErrNoIndexSections) {
		return New(p.Doc()), nil
	}
	return ix, err
}
