package xmltree

import (
	"math/bits"
	"slices"
)

// SortUnique sorts ids ascending and drops duplicates, in place, and returns
// the shortened slice. Node ids are pre-order ranks, so the result is a node
// set in document order — the canonical form of every vertex table and step
// result. It is the one home of "sort node ids, drop duplicates":
//
//   - input already strictly ascending (what the staircase joins emit) costs
//     one scan and nothing else;
//   - input dense in its [min, max] id span — at most 64 ids of span per
//     input id — is swept through a bitmap of the span, O(n + span/64) with
//     no comparisons: setting the bits removes the duplicates and reading
//     them back low to high is document order;
//   - anything sparser falls back to a typed sort and compact.
//
// words is the bitmap's scratch. A caller that sorts repeatedly (one query's
// edge executions) passes the same pointer each time and the words are
// reused, growing to the widest span seen; nil allocates per call. The sweep
// zeroes every word it set, so the scratch is all-zero between calls.
func SortUnique(ids []NodeID, words *[]uint64) []NodeID {
	i := 1
	for i < len(ids) && ids[i-1] < ids[i] {
		i++
	}
	if i >= len(ids) {
		return ids
	}
	lo, hi := ids[0], ids[i-1]
	for _, v := range ids[i:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	nw := (int64(hi) - int64(lo) + 64) / 64
	if nw > int64(len(ids)) {
		slices.Sort(ids)
		return slices.Compact(ids)
	}
	var local []uint64
	if words == nil {
		words = &local
	}
	if int64(cap(*words)) < nw {
		*words = make([]uint64, nw)
	}
	w := (*words)[:nw]
	for _, v := range ids {
		o := uint64(int64(v) - int64(lo))
		w[o>>6] |= 1 << (o & 63)
	}
	out := ids[:0]
	for wi, word := range w {
		if word == 0 {
			continue
		}
		w[wi] = 0
		base := int64(lo) + int64(wi)<<6
		for ; word != 0; word &= word - 1 {
			out = append(out, NodeID(base+int64(bits.TrailingZeros64(word))))
		}
	}
	return out
}
