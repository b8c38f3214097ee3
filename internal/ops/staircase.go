package ops

import (
	"slices"

	"repro/internal/metrics"
	"repro/internal/xmltree"
)

// Pairs is the result of a pair-producing join: parallel context/result node
// columns, in context-major order. The fully joined Join Graph relation is
// assembled from edge Pairs.
type Pairs struct {
	C []xmltree.NodeID
	S []xmltree.NodeID
}

// Len returns the number of pairs.
func (p *Pairs) Len() int { return len(p.C) }

func (p *Pairs) append(c, s xmltree.NodeID) {
	p.C = append(p.C, c)
	p.S = append(p.S, s)
}

// Swapped returns the pairs with columns exchanged (used when an edge was
// executed in the reverse direction).
func (p *Pairs) Swapped() Pairs { return Pairs{C: p.S, S: p.C} }

// searchGE returns the first index i with s[i] >= pre.
func searchGE(s []xmltree.NodeID, pre xmltree.NodeID) int {
	i, _ := slices.BinarySearch(s, pre)
	return i
}

// GallopGE returns the first index i >= from with s[i] >= pre, where every
// s[j] with j < from is below pre. It probes from, from+1, from+3, from+7, …
// until it overshoots and then binary-searches the last gap, so it costs
// O(log d) comparisons for an answer d positions ahead — never more than a
// constant factor over a full binary search, and O(1) for a neighbour. The
// staircase steps and the tail's key paths over element postings
// (internal/plan) search this way.
func GallopGE(s []xmltree.NodeID, from int, pre xmltree.NodeID) int {
	lo, hi := from, from
	for step := 1; hi < len(s) && s[hi] < pre; step <<= 1 {
		lo, hi = hi+1, hi+step
	}
	if lo == hi { // the first probe or its neighbour answered
		return lo
	}
	i, _ := slices.BinarySearch(s[lo:min(hi, len(s))], pre)
	return lo + i
}

// gallopLE mirrors GallopGE: it returns the last index i <= from with
// s[i] <= pre, where every s[j] with j > from is above pre, or -1 when there
// is none. It probes from, from-1, from-3, from-7, … until it undershoots and
// then binary-searches the last gap: O(log d) for an answer d positions back.
func gallopLE(s []xmltree.NodeID, from int, pre xmltree.NodeID) int {
	lo, hi := from, from
	for step := 1; lo >= 0 && s[lo] > pre; step <<= 1 {
		lo, hi = lo-step, lo-1
	}
	if lo == hi {
		return lo
	}
	lo = max(lo, 0)
	i, found := slices.BinarySearch(s[lo:hi+1], pre)
	if !found {
		i--
	}
	return lo + i
}

// StepPairs evaluates the structural join Dk/axis(C, S) in pair form: it
// returns every (c, s) with c ∈ C, s ∈ S and s on the given axis of c, in
// C-major order; a context's partners come in document order, except that
// the ancestor axes list them nearest first. S must be sorted by pre and
// duplicate-free (the canonical vertex-table form); C is sorted the same way
// for a vertex table, but a chain-sampling input may repeat and reorder
// nodes, and is evaluated all the same. Kind tests are implicit in the axis
// semantics (AxisHolds); name tests come from S being an index lookup result.
//
// This is a cut-off sampled operator (ℓ(OP), Sec 2.3): if limit > 0, result
// generation stops after the context tuple during which the output size
// reached limit. The returned consumed count is the number of context tuples
// fully processed, from which the caller derives the reduction factor
// f = consumed/|C| and the extrapolated full cardinality |r|/f.
//
// The operator is zero-investment with respect to C: per context tuple it
// costs O(log |S|) for the range search plus the produced output, never a
// scan of all of S. The descendant(-or-self), child, attribute, self,
// parent, attribute-owner and ancestor(-or-self) steps search by galloping
// (see stepper.seek; the last three then gallop backwards with gallopLE), so
// over a document-ordered C of disjoint subtrees the searches total
// O(|C| log(|S|/|C|)).
func StepPairs(rec *metrics.Recorder, d *xmltree.Document, axis Axis, C, S []xmltree.NodeID, limit int) (Pairs, int) {
	var out Pairs
	consumed := StepPairsInto(&out, rec, d, axis, C, S, limit)
	return out, consumed
}

// StepPairsInto is StepPairs writing into out, whose columns are truncated
// and reused: a caller stepping edge after edge keeps one Pairs and
// allocates only when an edge outgrows every earlier one. The result
// aliases those columns until the next call. It returns consumed.
func StepPairsInto(out *Pairs, rec *metrics.Recorder, d *xmltree.Document, axis Axis, C, S []xmltree.NodeID, limit int) int {
	out.C, out.S = out.C[:0], out.S[:0]
	st := stepper{d: d, axis: axis, S: S, out: out}
	consumed := 0
	for _, c := range C {
		st.step(c)
		consumed++
		if limit > 0 && out.Len() >= limit {
			break
		}
	}
	rec.ChargeTuples(consumed + out.Len())
	return consumed
}

// stepper evaluates one step for a sequence of context nodes. It remembers
// where the previous context's range began in S: a document-ordered C only
// ever moves that lower bound forward, so the next search gallops from there
// instead of binary-searching all of S again.
type stepper struct {
	d    *xmltree.Document
	axis Axis
	S    []xmltree.NodeID
	out  *Pairs
	pos  int            // first S index >= lo
	lo   xmltree.NodeID // the previous context's lower bound

	unordered bool // a context came out of order: search, do not gallop
}

// seek returns the first S index holding a node >= lo. A lower bound below
// the previous one is an out-of-order context: from then on the stepper
// takes C to be unordered and binary-searches, each search O(log |S|),
// where a gallop over jumps in random directions would cost twice that.
func (st *stepper) seek(lo xmltree.NodeID) int {
	switch {
	case lo < st.lo:
		st.unordered = true
		st.pos = searchGE(st.S[:st.pos], lo)
	case st.unordered:
		st.pos += searchGE(st.S[st.pos:], lo)
	default:
		st.pos = GallopGE(st.S, st.pos, lo)
	}
	st.lo = lo
	return st.pos
}

// step appends all (c, s) pairs for one context node. Attribute context
// nodes only participate in self and attr-owner axes (see AxisHolds).
func (st *stepper) step(c xmltree.NodeID) {
	d, S, out, axis := st.d, st.S, st.out, st.axis
	if d.Kind(c) == xmltree.KindAttr && axis != AxisSelf && axis != AxisAttrOwner {
		return
	}
	switch axis {
	case AxisDesc, AxisDescSelf:
		lo := c + 1
		if axis == AxisDescSelf {
			lo = c
		}
		hi := c + d.Size(c)
		for i := st.seek(lo); i < len(S) && S[i] <= hi; i++ {
			if d.Kind(S[i]) != xmltree.KindAttr {
				out.append(c, S[i])
			}
		}
	case AxisChild:
		hi := c + d.Size(c)
		i := st.seek(c + 1)
		for i < len(S) && S[i] <= hi {
			s := S[i]
			if d.Kind(s) == xmltree.KindAttr {
				i++
				continue
			}
			if d.Parent(s) == c {
				out.append(c, s)
				i++
				continue
			}
			// s is inside some child subtree; gallop past that subtree.
			a := s
			for d.Parent(a) != c {
				a = d.Parent(a)
			}
			i = GallopGE(S, i+1, a+d.Size(a)+1)
		}
	case AxisParent:
		if p := d.Parent(c); p != xmltree.NoNode {
			if i := gallopLE(S, st.seek(c)-1, p); i >= 0 && S[i] == p {
				out.append(c, p)
			}
		}
	case AxisAnc, AxisAncSelf:
		// Every ancestor of c precedes c, so all of them sit in S[:seek(c)],
		// nearest last: each is found by galloping back from the previous
		// one's position, and an ancestor below S[0] ends the walk.
		i := st.seek(c)
		if axis == AxisAncSelf && i < len(S) && S[i] == c {
			out.append(c, c)
		}
		i--
		for a := d.Parent(c); a != xmltree.NoNode && i >= 0 && a >= S[0]; a = d.Parent(a) {
			if i = gallopLE(S, i, a); i >= 0 && S[i] == a {
				out.append(c, a)
				i--
			}
		}
	case AxisSelf:
		if i := st.seek(c); i < len(S) && S[i] == c {
			out.append(c, c)
		}
	case AxisFoll:
		for i := searchGE(S, c+d.Size(c)+1); i < len(S); i++ {
			if d.Kind(S[i]) != xmltree.KindAttr {
				out.append(c, S[i])
			}
		}
	case AxisPrec:
		for i := 0; i < len(S) && S[i] < c; i++ {
			s := S[i]
			if s+d.Size(s) < c && d.Kind(s) != xmltree.KindAttr && d.Kind(s) != xmltree.KindDoc {
				out.append(c, s)
			}
		}
	case AxisFollSibling:
		p := d.Parent(c)
		if p == xmltree.NoNode {
			return
		}
		hi := p + d.Size(p)
		i := searchGE(S, c+d.Size(c)+1)
		for i < len(S) && S[i] <= hi {
			s := S[i]
			if d.Kind(s) == xmltree.KindAttr {
				i++
				continue
			}
			if d.Parent(s) == p {
				out.append(c, s)
				i++
				continue
			}
			a := s
			for d.Parent(a) != p {
				a = d.Parent(a)
			}
			i = GallopGE(S, i+1, a+d.Size(a)+1)
		}
	case AxisPrecSibling:
		p := d.Parent(c)
		if p == xmltree.NoNode {
			return
		}
		i := searchGE(S, p+1)
		for i < len(S) && S[i] < c {
			s := S[i]
			if d.Kind(s) == xmltree.KindAttr {
				i++
				continue
			}
			if d.Parent(s) == p {
				out.append(c, s)
				i++
				continue
			}
			a := s
			for d.Parent(a) != p {
				a = d.Parent(a)
			}
			i = GallopGE(S, i+1, a+d.Size(a)+1)
		}
	case AxisAttribute:
		hi := c + d.Size(c)
		for i := st.seek(c + 1); i < len(S) && S[i] <= hi; i++ {
			s := S[i]
			if d.Kind(s) != xmltree.KindAttr || d.Parent(s) != c {
				// Attribute nodes of c occupy the pre slots directly
				// after c; the first non-matching node ends the run.
				break
			}
			out.append(c, s)
		}
	case AxisAttrOwner:
		if d.Kind(c) == xmltree.KindAttr {
			p := d.Parent(c)
			if i := gallopLE(S, st.seek(c)-1, p); i >= 0 && S[i] == p {
				out.append(c, p)
			}
		}
	default:
		panic("ops: StepPairs of unknown axis")
	}
}

// StaircaseSemi evaluates the structural join in the classic staircase-join
// (semijoin) form of [19]: it returns the distinct S nodes that stand in the
// axis relation to at least one context node, duplicate-free and in document
// order. This form backs plain XPath step evaluation and never multiplies
// cardinalities.
//
// The descendant(-or-self) and following/preceding axes use the staircase
// pruning/boundary tricks that give the single-pass costs of Table 1; the
// remaining axes reduce to pair generation plus sort-unique, whose output is
// bounded by |C|·depth or sibling counts.
func StaircaseSemi(rec *metrics.Recorder, d *xmltree.Document, axis Axis, C, S []xmltree.NodeID) []xmltree.NodeID {
	var out []xmltree.NodeID
	switch axis {
	case AxisDesc, AxisDescSelf:
		// Watermark pruning: nested context ranges are subsumed by their
		// ancestors, so each S position is visited at most once.
		watermark := xmltree.NodeID(0)
		for _, c := range C {
			lo := c + 1
			if axis == AxisDescSelf {
				lo = c
			}
			if lo < watermark {
				lo = watermark
			}
			hi := c + d.Size(c)
			for i := searchGE(S, lo); i < len(S) && S[i] <= hi; i++ {
				if d.Kind(S[i]) != xmltree.KindAttr {
					out = append(out, S[i])
				}
			}
			if hi+1 > watermark {
				watermark = hi + 1
			}
		}
	case AxisFoll:
		// s follows some c iff s.pre > min over non-attribute C of
		// (c.pre + c.size).
		minEnd := xmltree.NodeID(-1)
		for _, c := range C {
			if d.Kind(c) == xmltree.KindAttr {
				continue
			}
			if e := c + d.Size(c); minEnd < 0 || e < minEnd {
				minEnd = e
			}
		}
		if minEnd >= 0 {
			for i := searchGE(S, minEnd+1); i < len(S); i++ {
				if d.Kind(S[i]) != xmltree.KindAttr {
					out = append(out, S[i])
				}
			}
		}
	case AxisPrec:
		// s precedes some c iff s.pre + s.size < max over non-attribute C
		// (the largest such c also has the largest pre).
		maxC := xmltree.NodeID(-1)
		for i := len(C) - 1; i >= 0; i-- {
			if d.Kind(C[i]) != xmltree.KindAttr {
				maxC = C[i]
				break
			}
		}
		if maxC >= 0 {
			for i := 0; i < len(S) && S[i] < maxC; i++ {
				s := S[i]
				if s+d.Size(s) < maxC && d.Kind(s) != xmltree.KindAttr && d.Kind(s) != xmltree.KindDoc {
					out = append(out, s)
				}
			}
		}
	default:
		pairs, _ := StepPairs(nil, d, axis, C, S, 0)
		out = xmltree.SortUnique(pairs.S, nil)
	}
	rec.ChargeTuples(len(C) + len(out))
	return out
}

// NestedLoopStepPairs is the O(|C|·|S|) reference evaluation of a structural
// join, driven directly by the AxisHolds specification. Table 1 lists the
// nested-loop join as "no sampling allowed" — it lacks the zero-investment
// property — so ROX never samples it; it exists as a correctness oracle and
// a last-resort executor.
func NestedLoopStepPairs(rec *metrics.Recorder, d *xmltree.Document, axis Axis, C, S []xmltree.NodeID) Pairs {
	var out Pairs
	for _, c := range C {
		for _, s := range S {
			if AxisHolds(d, axis, c, s) {
				out.append(c, s)
			}
		}
	}
	rec.ChargeTuples(len(C)*len(S) + out.Len())
	return out
}

// EstimateFull extrapolates the full result cardinality of a cut-off
// execution: outLen results were produced from consumed of total context
// tuples, so the unlimited result is estimated as outLen/f with
// f = consumed/total (Sec 2.3). Returns 0 when nothing was consumed.
func EstimateFull(outLen, consumed, total int) float64 {
	if consumed <= 0 {
		return 0
	}
	return float64(outLen) * float64(total) / float64(consumed)
}
