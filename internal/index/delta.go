package index

import "repro/internal/xmltree"

// This file is the incremental half of the index: a delta overlay that
// extends an immutable base index (heap-built or attached to a packed
// container's mapped sections) with postings for the nodes a live-ingest
// commit appended. The delta has the layout of every index, but keyed
// tables listing only the names and values the appended nodes use, so
// building it scans only the appended region — O(delta), never O(document)
// or O(dictionary) — and every accessor answers base-then-delta.
//
// The merge is a plain concatenation: every appended node's pre number is
// greater than every base node's (the Appender places new nodes strictly
// after the base segment), so base postings followed by delta postings are
// already in document order. That holds for TextRange too, whose auxiliary
// is value-sorted: each level's range result comes out in document order
// before the two are concatenated.
//
// Deltas are rebuilt from the original base on every commit rather than
// chained: an Ingester always calls NewDelta(published.Base(), snapshot), so
// lookup depth stays 2 regardless of how many batches committed since the last
// compaction. Compaction replaces the pair with a freshly built (or freshly
// packed) single-level index.

// NewDelta builds an index for doc as a delta overlay on base: base must
// index a prefix of doc (the Appender's base segment, or an earlier
// snapshot when resuming), and only nodes at pre >= base.Doc().Len() are
// scanned here. The overlay is immutable and safe for concurrent readers,
// like every Index.
func NewDelta(base *Index, doc *xmltree.Document) *Index { return buildLevel(doc, base) }

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
