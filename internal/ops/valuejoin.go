package ops

import (
	"slices"
	"sort"

	"repro/internal/conc"
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
// their comparison key. Dictionary ids stand in for values within one
// document; a value crossing documents is translated through the inner
// document's dictionary (ids are per-document and not comparable).

// HashJoinPairs executes C ⋈=val S with a hash table on S. If limit > 0 the
// probe stops after the outer tuple during which the output reached limit;
// consumed reports fully processed outer tuples. Output is C-major ordered,
// a context's partners in S order.
func HashJoinPairs(rec *metrics.Recorder, dC *xmltree.Document, C []xmltree.NodeID, dS *xmltree.Document, S []xmltree.NodeID, limit int) (Pairs, int) {
	var out Pairs
	consumed := HashJoinPairsInto(&out, rec, dC, C, dS, S, limit)
	return out, consumed
}

// hashScratch is HashJoinPairsInto's build side and probe groups: working
// memory of one call, recycled across calls through hashPool.
type hashScratch struct {
	groupOf  map[int32]int32 // S's value id → group id; cleared before each build
	sized    int             // the size hint groupOf was made with
	sGroup   []int32         // per S node its group
	off      []int32         // group g owns partners[off[g]:off[g+1]]
	partners []xmltree.NodeID
	cGroup   []int32 // per consumed C node its group, -1 = no partner
}

// hashPool holds the hash joins' scratch between calls, weakly: a join reuses
// one an earlier join handed back if the collector has not freed it yet.
var hashPool conc.Recycler[hashScratch]

// HashJoinPairsInto is HashJoinPairs writing into out, whose columns are
// truncated and reused as in StepPairsInto. It returns consumed.
//
// The table maps S's dictionary value id to a group id; the groups' members
// sit in one partner array behind one offset array (S order within a group),
// so the build is a handful of arrays, not a string key or a slice per
// distinct value. The map and the arrays are taken from hashPool at entry
// and handed back at return: the map is cleared, and remade only for a
// larger build than it was made for, and every array is resized in place,
// so a join in steady state allocates only its output. The probe looks every outer tuple up once — by its own value id
// when C shares S's document, through dS's dictionary otherwise — which also
// sizes the output.
func HashJoinPairsInto(out *Pairs, rec *metrics.Recorder, dC *xmltree.Document, C []xmltree.NodeID, dS *xmltree.Document, S []xmltree.NodeID, limit int) int {
	out.C, out.S = out.C[:0], out.S[:0]
	vals := dS.Values()
	// A node without a value of its own (id -1) has the value "": key it as
	// the dictionary's "" when there is one, so the two meet.
	empty, hasEmpty := vals.Lookup("")
	if !hasEmpty {
		empty = -1
	}
	keyS := func(n xmltree.NodeID) int32 {
		if id := dS.ValueID(n); id >= 0 {
			return id
		}
		return empty
	}
	hs := hashPool.Get()
	defer hashPool.Put(hs)
	if hs.groupOf == nil || hs.sized < len(S) {
		hs.groupOf, hs.sized = make(map[int32]int32, len(S)), len(S)
	} else {
		clear(hs.groupOf)
	}
	groupOf := hs.groupOf
	sGroup := slices.Grow(hs.sGroup[:0], len(S))[:len(S)]
	off := hs.off[:0]
	for i, s := range S {
		v := keyS(s)
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
	partners := slices.Grow(hs.partners[:0], len(S))[:len(S)]
	for i := len(S) - 1; i >= 0; i-- {
		g := sGroup[i]
		off[g]--
		partners[off[g]] = S[i]
	}

	cGroup := slices.Grow(hs.cGroup[:0], len(C))
	total := 0
	for _, c := range C {
		var k int32
		if dC == dS {
			k = keyS(c)
		} else if v := dC.Value(c); v != "" {
			var found bool
			if k, found = vals.Lookup(v); !found {
				k = -2 // no S node has this value
			}
		} else {
			k = empty
		}
		g, ok := groupOf[k]
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
	hs.sGroup, hs.off, hs.partners, hs.cGroup = sGroup, off, partners, cGroup
	consumed := len(cGroup)
	out.C, out.S = slices.Grow(out.C, total), slices.Grow(out.S, total)
	poll := metrics.PollEvery
	for i, g := range cGroup {
		if g < 0 {
			continue
		}
		for _, s := range partners[off[g]:off[g+1]] {
			out.append(C[i], s)
		}
		if rec.Poll(out.Len(), &poll) { // StepPairsInto's interrupt rule
			break
		}
	}
	rec.ChargeTuples(consumed + len(S) + out.Len())
	return consumed
}

// NLIndexJoinPairs executes the nested-loop index-lookup join: for each
// outer tuple, all matching inner tuples are fetched through probe — an
// index lookup such as Index.TextEq or Index.AttrEq. Zero-investment w.r.t.
// C. Cut-off semantics as in StepPairs; a context's partners come in the
// probe's (document) order.
func NLIndexJoinPairs(rec *metrics.Recorder, dC *xmltree.Document, C []xmltree.NodeID, probe func(value string) []xmltree.NodeID, limit int) (Pairs, int) {
	var out Pairs
	consumed := NLIndexJoinPairsInto(&out, rec, dC, C, probe, limit)
	return out, consumed
}

// NLIndexJoinPairsInto is NLIndexJoinPairs writing into out, whose columns
// are truncated and reused as in StepPairsInto. It returns consumed.
func NLIndexJoinPairsInto(out *Pairs, rec *metrics.Recorder, dC *xmltree.Document, C []xmltree.NodeID, probe func(value string) []xmltree.NodeID, limit int) int {
	consumed := probeJoin(out, rec, dC, C, probe, nil, false, limit)
	rec.ChargeTuples(consumed + out.Len())
	return consumed
}

// RestrictedNLIndexJoinPairsInto is NLIndexJoinPairsInto keeping only the
// probe hits in S, the inner side's current table (sorted, duplicate-free).
// Each hit is checked while it is appended, by galloping through S from the
// previous hit of the same probe — no per-probe slice, and still O(log |S|)
// per hit, so the join stays zero-investment. Charged like
// NLIndexJoinPairs: consumed + |R|.
func RestrictedNLIndexJoinPairsInto(out *Pairs, rec *metrics.Recorder, dC *xmltree.Document, C []xmltree.NodeID, probe func(value string) []xmltree.NodeID, S []xmltree.NodeID, limit int) int {
	consumed := probeJoin(out, rec, dC, C, probe, S, true, limit)
	rec.ChargeTuples(consumed + out.Len())
	return consumed
}

// IndexHashJoinPairsInto executes JoinHash when S is the inner vertex's whole
// index extent (extent = |S| nodes) and probe is that vertex's value index:
// the index already groups S by value, so it is the hash table, and the join
// only probes it. The output equals HashJoinPairs over S — C-major, a
// context's partners in document order — and so does the charge, |C|+|S|+|R|
// (Table 1): the recorder models the algorithm the plan chose, not the build
// this operator skips. It returns consumed.
func IndexHashJoinPairsInto(out *Pairs, rec *metrics.Recorder, dC *xmltree.Document, C []xmltree.NodeID, probe func(value string) []xmltree.NodeID, extent, limit int) int {
	consumed := probeJoin(out, rec, dC, C, probe, nil, false, limit)
	rec.ChargeTuples(consumed + extent + out.Len())
	return consumed
}

// probeJoin is the probe loop of the index joins: it truncates out, appends
// every (c, hit) — only the hits in S when restricted — and returns the
// outer tuples consumed under the StepPairs cut-off. It polls rec's
// interrupt as StepPairsInto does.
func probeJoin(out *Pairs, rec *metrics.Recorder, dC *xmltree.Document, C []xmltree.NodeID, probe func(string) []xmltree.NodeID, S []xmltree.NodeID, restricted bool, limit int) int {
	out.C, out.S = out.C[:0], out.S[:0]
	consumed, poll := 0, metrics.PollEvery
	for _, c := range C {
		hits := probe(dC.Value(c))
		if !restricted {
			for _, s := range hits {
				out.append(c, s)
			}
		} else {
			j := 0
			for _, s := range hits {
				if j = GallopGE(S, j, s); j == len(S) {
					break
				}
				if S[j] == s {
					out.append(c, s)
				}
			}
		}
		consumed++
		if limit > 0 && out.Len() >= limit {
			break
		}
		if rec.Poll(consumed+out.Len(), &poll) {
			break
		}
	}
	return consumed
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
// value order. Cut-off (limit > 0) stops, as in StepPairs, after the outer
// tuple during which the output reached limit — possibly in the middle of a
// value group, whose remaining outer tuples are then not joined; consumed
// counts the outer tuples processed in value order.
func MergeJoinPairs(rec *metrics.Recorder, dC *xmltree.Document, C []xmltree.NodeID, dS *xmltree.Document, S []xmltree.NodeID, limit int) (Pairs, int) {
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
					rec.ChargeTuples(len(C) + len(S) + out.Len())
					return out, consumed
				}
			}
			j = jEnd
		}
	}
	consumed = len(cs) // merge ran to completion: every outer tuple was seen
	rec.ChargeTuples(len(C) + len(S) + out.Len())
	return out, consumed
}

func sortByValue(d *xmltree.Document, nodes []xmltree.NodeID) []xmltree.NodeID {
	out := append([]xmltree.NodeID(nil), nodes...)
	sort.SliceStable(out, func(i, j int) bool { return d.Value(out[i]) < d.Value(out[j]) })
	return out
}

// NestedLoopValuePairs is the O(|C|·|S|) reference evaluation of a value
// join: every (c, s) with c ∈ C, s ∈ S and equal own string values, in
// C-major order, a context's partners in S order. Like NestedLoopStepPairs
// it lacks the zero-investment property, so ROX never samples it; it exists
// as a correctness oracle.
func NestedLoopValuePairs(rec *metrics.Recorder, dC *xmltree.Document, C []xmltree.NodeID, dS *xmltree.Document, S []xmltree.NodeID) Pairs {
	var out Pairs
	for _, c := range C {
		v := dC.Value(c)
		for _, s := range S {
			if dS.Value(s) == v {
				out.append(c, s)
			}
		}
	}
	rec.ChargeTuples(len(C)*len(S) + out.Len())
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
	out := make([]xmltree.NodeID, 0, len(nodes))
	for _, n := range nodes {
		if keep(n) {
			out = append(out, n)
		}
	}
	rec.ChargeTuples(len(nodes))
	return out
}
