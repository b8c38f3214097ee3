package ops

import (
	"sort"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/xmltree"
)

// JoinAlg selects a physical equi-join algorithm for value-join edges.
type JoinAlg int

// The relational join algorithms of Table 1.
const (
	// JoinNLIndex probes the inner document's value index once per outer
	// tuple. Zero-investment w.r.t. the outer input — the only value join
	// ROX samples (besides merge join on pre-ordered inners).
	JoinNLIndex JoinAlg = iota
	// JoinHash builds a hash table on the inner input, then probes with the
	// outer. Cost |C|+|S|+|R|; used for bulk execution of materialized
	// edges, never for sampling (the build is an investment in |S|).
	JoinHash
	// JoinMerge sorts both inputs by value and merges. Zero-investment only
	// if the inner is already value-ordered; here the sort cost is charged
	// explicitly.
	JoinMerge
)

// String returns the algorithm name.
func (a JoinAlg) String() string {
	switch a {
	case JoinNLIndex:
		return "nl-index"
	case JoinHash:
		return "hash"
	case JoinMerge:
		return "merge"
	default:
		return "?"
	}
}

// valueJoin joins on the *own* string value of nodes — Join Graph equi-join
// edges always touch text or attribute vertices (Sec 2.1), whose own value is
// their comparison key. Values are compared as strings across documents
// (dictionary ids are per-document and not comparable).

// HashJoinPairs executes C ⋈=val S with a hash table on S. If limit > 0 the
// probe stops after the outer tuple during which the output reached limit;
// consumed reports fully processed outer tuples. Output is C-major ordered.
//
// The table maps a value to a group id; the groups' members sit in one
// partner array behind one offset array (S order within a group), so the
// build allocates a handful of objects, not a slice per distinct value. The
// probe looks every outer tuple up once, which also sizes the output.
func HashJoinPairs(rec *metrics.Recorder, dC *xmltree.Document, C []xmltree.NodeID, dS *xmltree.Document, S []xmltree.NodeID, limit int) (Pairs, int) {
	sw := metrics.Start()
	groupOf := make(map[string]int32, len(S))
	sGroup := make([]int32, len(S))
	var off []int32 // group g owns partners[off[g]:off[g+1]]
	for i, s := range S {
		v := dS.Value(s)
		g, ok := groupOf[v]
		if !ok {
			g = int32(len(off))
			groupOf[v] = g
			off = append(off, 0)
		}
		sGroup[i] = g
		off[g]++
	}
	off = append(off, 0)
	end := int32(0)
	for g, n := range off {
		end += n
		off[g] = end
	}
	// off[g] is the end of group g; filling back to front turns it into the
	// start and keeps S order within the group.
	partners := make([]xmltree.NodeID, len(S))
	for i := len(S) - 1; i >= 0; i-- {
		g := sGroup[i]
		off[g]--
		partners[off[g]] = S[i]
	}

	cGroup := make([]int32, 0, len(C))
	total := 0
	for _, c := range C {
		g, ok := groupOf[dC.Value(c)]
		if !ok {
			g = -1
		} else {
			total += int(off[g+1] - off[g])
		}
		cGroup = append(cGroup, g)
		if limit > 0 && total >= limit {
			break
		}
	}
	consumed := len(cGroup)
	var out Pairs
	if total > 0 {
		out = Pairs{C: make([]xmltree.NodeID, 0, total), S: make([]xmltree.NodeID, 0, total)}
	}
	for i, g := range cGroup {
		if g < 0 {
			continue
		}
		for _, s := range partners[off[g]:off[g+1]] {
			out.append(C[i], s)
		}
	}
	rec.ChargeOp(consumed+len(S)+out.Len(), sw.Elapsed())
	return out, consumed
}

// NLIndexJoinPairs executes the nested-loop index-lookup join: for each
// outer tuple, all matching inner tuples are fetched through probe — an
// index lookup such as Index.TextEq or Index.AttrEq. Zero-investment w.r.t.
// C. Cut-off semantics as in StepPairs.
func NLIndexJoinPairs(rec *metrics.Recorder, dC *xmltree.Document, C []xmltree.NodeID, probe func(value string) []xmltree.NodeID, limit int) (Pairs, int) {
	sw := metrics.Start()
	var out Pairs
	consumed := 0
	for _, c := range C {
		for _, s := range probe(dC.Value(c)) {
			out.append(c, s)
		}
		consumed++
		if limit > 0 && out.Len() >= limit {
			break
		}
	}
	rec.ChargeOp(consumed+out.Len(), sw.Elapsed())
	return out, consumed
}

// TextProbe returns an index probe for text vertices of ix's document.
func TextProbe(ix *index.Index) func(string) []xmltree.NodeID {
	return ix.TextEq
}

// AttrProbe returns an index probe for @qattr vertices of ix's document.
func AttrProbe(ix *index.Index, qattr string) func(string) []xmltree.NodeID {
	return func(v string) []xmltree.NodeID { return ix.AttrEq(qattr, v) }
}

// MergeJoinPairs executes C ⋈=val S by sorting both sides by value and
// merging. The sort of each side is charged as investment cost; with a
// pre-ordered inner this is min(|C|,|S|)+|R| as in Table 1. Output is in
// value order. Cut-off (limit > 0) stops after completing a value group;
// consumed counts outer tuples processed in value order.
func MergeJoinPairs(rec *metrics.Recorder, dC *xmltree.Document, C []xmltree.NodeID, dS *xmltree.Document, S []xmltree.NodeID, limit int) (Pairs, int) {
	sw := metrics.Start()
	cs := sortByValue(dC, C)
	ss := sortByValue(dS, S)
	var out Pairs
	consumed := 0
	i, j := 0, 0
	for i < len(cs) && j < len(ss) {
		vc, vs := dC.Value(cs[i]), dS.Value(ss[j])
		switch {
		case vc < vs:
			i++
			consumed++
		case vc > vs:
			j++
		default:
			// Emit the full group product for this value.
			jEnd := j
			for jEnd < len(ss) && dS.Value(ss[jEnd]) == vc {
				jEnd++
			}
			for i < len(cs) && dC.Value(cs[i]) == vc {
				for k := j; k < jEnd; k++ {
					out.append(cs[i], ss[k])
				}
				i++
				consumed++
				if limit > 0 && out.Len() >= limit {
					rec.ChargeOp(len(C)+len(S)+out.Len(), sw.Elapsed())
					return out, consumed
				}
			}
			j = jEnd
		}
	}
	consumed = len(cs) // merge ran to completion: every outer tuple was seen
	rec.ChargeOp(len(C)+len(S)+out.Len(), sw.Elapsed())
	return out, consumed
}

func sortByValue(d *xmltree.Document, nodes []xmltree.NodeID) []xmltree.NodeID {
	out := append([]xmltree.NodeID(nil), nodes...)
	sort.SliceStable(out, func(i, j int) bool { return d.Value(out[i]) < d.Value(out[j]) })
	return out
}

// ValueJoinPairs dispatches to the chosen algorithm. For JoinNLIndex the
// caller must supply the inner side's index probe via probe; other
// algorithms ignore it.
func ValueJoinPairs(rec *metrics.Recorder, alg JoinAlg, dC *xmltree.Document, C []xmltree.NodeID, dS *xmltree.Document, S []xmltree.NodeID, probe func(string) []xmltree.NodeID, limit int) (Pairs, int) {
	switch alg {
	case JoinNLIndex:
		return NLIndexJoinPairs(rec, dC, C, probe, limit)
	case JoinHash:
		return HashJoinPairs(rec, dC, C, dS, S, limit)
	case JoinMerge:
		return MergeJoinPairs(rec, dC, C, dS, S, limit)
	default:
		panic("ops: unknown join algorithm")
	}
}

// Select filters a node sequence with an arbitrary predicate, the scan σ of
// Table 1 (cost |C|). Order is preserved.
func Select(rec *metrics.Recorder, nodes []xmltree.NodeID, keep func(xmltree.NodeID) bool) []xmltree.NodeID {
	sw := metrics.Start()
	out := make([]xmltree.NodeID, 0, len(nodes))
	for _, n := range nodes {
		if keep(n) {
			out = append(out, n)
		}
	}
	rec.ChargeOp(len(nodes), sw.Elapsed())
	return out
}
