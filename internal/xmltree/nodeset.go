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
	lo, hi, ascending := idSpan(ids)
	if ascending {
		return ids
	}
	w := mark(ids, lo, hi, words)
	if w == nil {
		slices.Sort(ids)
		return slices.Compact(ids)
	}
	return sweep(w, lo, ids[:0])
}

// SortedSet is SortUnique that leaves ids untouched: it returns ids itself
// when they already ascend strictly, and otherwise their node set in a new
// slice of exactly its size. within, when the caller knows one, is an
// ascending node set holding every id of ids; a result of len(within) ids
// can then only be within, which is returned instead of a copy. A column
// whose distinct values are all still there thus costs its bitmap sweep and
// nothing else.
func SortedSet(ids, within []NodeID, words *[]uint64) []NodeID {
	lo, hi, ascending := idSpan(ids)
	if ascending {
		return ids
	}
	w := mark(ids, lo, hi, words)
	if w == nil {
		out := slices.Clone(ids)
		slices.Sort(out)
		if out = slices.Compact(out); len(out) == len(within) {
			return within
		}
		return out
	}
	n := 0
	for _, word := range w {
		n += bits.OnesCount64(word)
	}
	if n == len(within) {
		clear(w)
		return within
	}
	return sweep(w, lo, make([]NodeID, 0, n))
}

// idSpan reports whether ids already ascend strictly and, when they do not,
// their least and greatest id.
func idSpan(ids []NodeID) (lo, hi NodeID, ascending bool) {
	i := 1
	for i < len(ids) && ids[i-1] < ids[i] {
		i++
	}
	if i >= len(ids) {
		return 0, 0, true
	}
	lo, hi = ids[0], ids[i-1]
	for _, v := range ids[i:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi, false
}

// mark sets one bit per id over the span [lo, hi] in the scratch words and
// returns them, or nil when the ids are too sparse in their span for a sweep
// (more than 64 ids of span per input id).
func mark(ids []NodeID, lo, hi NodeID, words *[]uint64) []uint64 {
	nw := (int64(hi) - int64(lo) + 64) / 64
	if nw > int64(len(ids)) {
		return nil
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
	return w
}

// sweep appends the ids marked in w, low to high, to out and zeroes w.
func sweep(w []uint64, lo NodeID, out []NodeID) []NodeID {
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
