package plan

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/index"
	"repro/internal/ops"
	"repro/internal/table"
	"repro/internal/xmltree"
)

// This file is the tail side of the "Aggregation and ordering tail" section of
// DESIGN.md: order-by key extraction and the partial-aggregate fold states
// whose algebraic merge makes scatter-gather aggregation exact. Everything
// here runs strictly after the Join Graph — tail evaluation navigates the
// document from already-joined nodes and never feeds back into edge selection,
// which is what keeps cached plans transferable across tail changes.

// KeyStep is one navigation step of a tail key path (the `$v/a//b/@c` part of
// an order-by or aggregate expression). It is a deliberately minimal mirror
// of the parser's step — no predicates — because tail paths select values,
// they do not filter bindings.
type KeyStep struct {
	// Desc selects descendants (`//`) instead of children (`/`).
	Desc bool
	// Attr selects an attribute by name; Text selects text() nodes. At most
	// one of the two is set; otherwise the step is an element name test.
	Attr bool
	Text bool
	// Name is the element or attribute name (empty for text()).
	Name string
}

// String renders the step in source form (used in cache keys, so the
// rendering must be injective).
func (s KeyStep) String() string {
	sep := "/"
	if s.Desc {
		sep = "//"
	}
	switch {
	case s.Attr:
		return sep + "@" + s.Name
	case s.Text:
		return sep + "text()"
	default:
		return sep + s.Name
	}
}

// OrderSpec is the tail's order-by: sort the result tuples by the atomized
// key reached from the node bound to Vertex along Path. Ties keep the
// document order established by the tail's τ sort (the sort is stable), which
// is what makes sharded and single-catalog evaluations byte-identical.
type OrderSpec struct {
	Vertex int
	Path   []KeyStep
	Desc   bool
}

// String renders the spec canonically for cache keys.
func (o *OrderSpec) String() string {
	if o == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "v%d", o.Vertex)
	for _, s := range o.Path {
		sb.WriteString(s.String())
	}
	if o.Desc {
		sb.WriteString(" desc")
	}
	return sb.String()
}

// LimitSpec is the tail's limit/offset window: after projection, distinct,
// the τ sort and any order-by sort, keep at most Count rows starting at row
// Offset. Like Order and Agg it lives strictly in the tail — it names no
// graph vertices or edges, so joingraph.Fingerprint is invariant under it and
// cached plans transfer between windowed and unwindowed runs of a query.
type LimitSpec struct {
	// Count is the maximum number of rows returned; Count <= 0 means
	// unlimited (an offset-only window).
	Count int
	// Offset is the number of rows skipped before the first returned row.
	Offset int
}

// String renders the spec canonically for cache keys ("" for nil).
func (l *LimitSpec) String() string {
	if l == nil {
		return ""
	}
	if l.Offset == 0 {
		return fmt.Sprintf("limit %d", l.Count)
	}
	return fmt.Sprintf("limit %d offset %d", l.Count, l.Offset)
}

// Window returns the [lo, hi) row window the spec selects out of n rows,
// clamped to [0, n]. An unlimited Count yields hi = n.
func (l *LimitSpec) Window(n int) (lo, hi int) {
	if l == nil {
		return 0, n
	}
	lo = l.Offset
	if lo < 0 {
		lo = 0
	}
	if lo > n {
		lo = n
	}
	hi = n
	if l.Count > 0 && lo+l.Count < n {
		hi = lo + l.Count
	}
	return lo, hi
}

// AggKind enumerates the return-clause aggregates.
type AggKind int

// Aggregate kinds. AggCount counts result tuples; the others fold the
// numeric values reached along the aggregate path.
const (
	AggNone AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the XQuery function name.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "none"
	}
}

// AggSpec is the tail's aggregate: fold the values reached from the node
// bound to Vertex along Path (every match contributes, matching XQuery's
// sequence semantics for sum($v/path)). For AggCount the path is empty and
// the fold counts result tuples.
type AggSpec struct {
	Kind   AggKind
	Vertex int
	Path   []KeyStep
}

// String renders the spec canonically for cache keys.
func (a *AggSpec) String() string {
	if a == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s(v%d", a.Kind, a.Vertex)
	for _, s := range a.Path {
		sb.WriteString(s.String())
	}
	sb.WriteString(")")
	return sb.String()
}

// Key is an atomized order-by key. The total order over keys — absent keys
// first, then numeric values, then non-numeric strings byte-wise — must be
// applied identically by every shard and by the gather-side merge; it is the
// single source of truth for "ordered" in this engine.
type Key struct {
	// Present is false when the key path matched no node; absent keys sort
	// before every present key.
	Present bool
	// IsNum marks keys whose string value parses as a finite float64; they
	// sort before non-numeric keys, by value.
	IsNum bool
	Num   float64
	Str   string
}

// Compare returns -1, 0 or 1 ordering k before, equal to, or after o under
// ascending order.
func (k Key) Compare(o Key) int {
	if k.Present != o.Present {
		if !k.Present {
			return -1
		}
		return 1
	}
	if !k.Present {
		return 0
	}
	if k.IsNum != o.IsNum {
		if k.IsNum {
			return -1
		}
		return 1
	}
	if k.IsNum {
		switch {
		case k.Num < o.Num:
			return -1
		case k.Num > o.Num:
			return 1
		}
		return 0
	}
	return strings.Compare(k.Str, o.Str)
}

// pathWalker evaluates one key or aggregate path over one document for row
// after row. The path's names are resolved to the document's qname ids once,
// so a step compares ids, and the frontier buffers and the sort-unique bitmap
// are reused from one row to the next. Given the document's index, a child or
// descendant element step reads that name's postings instead of visiting the
// context's children or subtree (walkStep.postings); without one it hops, and
// the hop is the oracle the postings walk is tested against.
type pathWalker struct {
	doc       *xmltree.Document
	path      []KeyStep
	steps     []walkStep // per path step
	cur, next []xmltree.NodeID
	words     []uint64
}

// walkStep is one path step's state: its qname id and, for an element step
// over an index, the name's postings level by level (index.ElementLevels)
// with the position where the previous context's search began in each. A
// step whose name has no element postings hops, and finds nothing either.
type walkStep struct {
	id     int32          // qname id; -1, which no named node has, when the document lacks the name
	lo     xmltree.NodeID // the previous context
	pos    [2]int32
	levels [2][]xmltree.NodeID
}

// indexed reports whether the step reads element postings.
func (ws *walkStep) indexed() bool { return ws.levels[0] != nil || ws.levels[1] != nil }

// newPathWalker returns a walker over d; ix, d's index, serves the element
// steps (nil hops them).
func newPathWalker(d *xmltree.Document, ix *index.Index, path []KeyStep) *pathWalker {
	w := &pathWalker{doc: d, path: path, steps: make([]walkStep, len(path))}
	for i, st := range path {
		ws := &w.steps[i]
		ws.id = -1
		if id, ok := d.QNames().Lookup(st.Name); ok {
			ws.id = id
		}
		if ix != nil && stepKind(st) == xmltree.KindElem {
			ws.levels[0], ws.levels[1] = ix.ElementLevels(st.Name)
		}
	}
	return w
}

// matchNodes returns every node reached from n along the path — a node *set*
// in document order, per XPath step semantics. An empty path yields n itself.
// A frontier of several nodes is sorted and deduplicated after its step:
// nested frontier nodes (e.g. `//a//b` over nested <a> elements) produce
// overlapping descendant scans, and without the dedup an aggregate would fold
// the shared matches once per overlapping ancestor. Node ids are pre-order
// ranks, so ascending id order is document order — which one node's children
// or descendants already are. The result is the walker's own buffer, valid
// until its next call.
func (w *pathWalker) matchNodes(n xmltree.NodeID) []xmltree.NodeID {
	d := w.doc
	cur, next := append(w.cur[:0], n), w.next
	for si, st := range w.path {
		ws := &w.steps[si]
		id, kind := ws.id, stepKind(st)
		next = next[:0]
		for _, c := range cur {
			end := c + d.Size(c)
			switch {
			case st.Attr && !st.Desc:
				if a := d.AttributeByNameID(c, id); a != xmltree.NoNode {
					next = append(next, a)
				}
			case ws.indexed():
				next = ws.postings(d, next, c, end, !st.Desc)
			case st.Desc:
				// Subtree scan: node ids are pre-order, so ascending ids
				// within the subtree range are document order.
				for i := c + 1; i <= end; i++ {
					if d.Kind(i) == kind && (st.Text || d.NameID(i) == id) {
						next = append(next, i)
					}
				}
			default:
				// The children of c: hop from subtree to subtree; c's
				// attributes sit first in its range and have none.
				for ch := c + 1; ch <= end; ch += d.Size(ch) + 1 {
					if d.Kind(ch) == kind && (st.Text || d.NameID(ch) == id) {
						next = append(next, ch)
					}
				}
			}
		}
		if len(cur) > 1 {
			next = xmltree.SortUnique(next, &w.words)
		}
		cur, next = next, cur
		if len(cur) == 0 {
			break
		}
	}
	w.cur, w.next = cur, next
	return cur
}

// postings appends the step's elements inside c's subtree (c, end] to next:
// all of them for a descendant step, for a child step those whose parent is
// c — a deeper one's own subtree is skipped. Level by level, the search
// gallops on from where the previous context's began: contexts arrive in
// document order, row after row and within a frontier, and one that does
// not restarts it.
func (ws *walkStep) postings(d *xmltree.Document, next []xmltree.NodeID, c, end xmltree.NodeID, child bool) []xmltree.NodeID {
	if c < ws.lo {
		ws.pos = [2]int32{}
	}
	ws.lo = c
	for l, run := range ws.levels {
		i := ops.GallopGE(run, int(ws.pos[l]), c+1)
		ws.pos[l] = int32(i)
		for i < len(run) && run[i] <= end {
			s := run[i]
			if child && d.Parent(s) != c {
				i = ops.GallopGE(run, i+1, s+d.Size(s)+1)
				continue
			}
			next = append(next, s)
			i++
		}
	}
	return next
}

// stepKind is the node kind a step selects.
func stepKind(st KeyStep) xmltree.Kind {
	switch {
	case st.Attr:
		return xmltree.KindAttr
	case st.Text:
		return xmltree.KindText
	}
	return xmltree.KindElem
}

// key atomizes the order-by key of node n: the first node the path reaches
// in document order, read through xmltree's one atomization rule — numeric
// exactly when the range predicates of the value indices say so.
func (w *pathWalker) key(n xmltree.NodeID) Key {
	ms := w.matchNodes(n)
	if len(ms) == 0 {
		return Key{}
	}
	s, f, isNum := w.doc.Atomize(ms[0])
	return Key{Present: true, IsNum: isNum, Num: f, Str: s}
}

// AggState is the partial-aggregate fold state — the unit of the shard merge
// algebra. Count, Min and Max merge trivially; Sum is kept as an exact
// floating-point expansion (Shewchuk-style non-overlapping partials, the
// math.Fsum representation), so folding values shard-by-shard and merging the
// partial states yields bit-for-bit the same rounded sum as folding the whole
// corpus in one pass. That exactness is what lets the scatter-gather
// equivalence contract extend to sum and avg.
type AggState struct {
	// Count is the number of folded values (for AggCount: result tuples).
	Count int64
	// Min and Max are the extrema of the folded values; meaningful only when
	// Count > 0.
	Min, Max float64
	// partials is the exact running sum as a non-overlapping expansion.
	partials []float64
}

// Add folds one value into the state.
func (a *AggState) Add(v float64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Count++
	a.addExact(v)
}

// addExact grows the expansion by x, keeping partials non-overlapping and in
// increasing magnitude (the classic grow-expansion of adaptive precision
// arithmetic). The represented value — the exact sum of the partials — equals
// the exact mathematical sum of everything added so far.
func (a *AggState) addExact(x float64) {
	i := 0
	for _, y := range a.partials {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			a.partials[i] = lo
			i++
		}
		x = hi
	}
	a.partials = append(a.partials[:i], x)
}

// Merge folds the other state into a. Because the sum is exact, merging is
// associative and commutative: any shard grouping produces the same state
// value, and therefore the same rendered result.
func (a *AggState) Merge(b *AggState) {
	if b == nil || b.Count == 0 {
		return
	}
	if a.Count == 0 || b.Min < a.Min {
		a.Min = b.Min
	}
	if a.Count == 0 || b.Max > a.Max {
		a.Max = b.Max
	}
	a.Count += b.Count
	for _, p := range b.partials {
		a.addExact(p)
	}
}

// Partials exposes the exact-sum expansion for wire transfer: a fold state
// serialized as (Count, Min, Max, Partials) and rebuilt with RestoreAggState
// merges bit-for-bit like the original, because every partial is a finite
// float64 that JSON round-trips exactly. The returned slice is the state's
// own storage — callers must not modify it.
func (a *AggState) Partials() []float64 { return a.partials }

// RestoreAggState rebuilds a fold state from its transferred fields (see
// Partials). The partials slice is adopted, not copied.
func RestoreAggState(count int64, min, max float64, partials []float64) *AggState {
	return &AggState{Count: count, Min: min, Max: max, partials: partials}
}

// Sum returns the correctly rounded float64 value of the exact sum, using the
// round-half-even correction of math.Fsum so the result is independent of
// how the expansion was built.
func (a *AggState) Sum() float64 {
	n := len(a.partials)
	if n == 0 {
		return 0
	}
	hi := a.partials[n-1]
	var lo float64
	i := n - 1
	for i--; i >= 0; i-- {
		x, y := hi, a.partials[i]
		hi = x + y
		yr := hi - x
		lo = y - yr
		if lo != 0 {
			break
		}
	}
	// If the residual would round hi away and the next partial has the same
	// sign, hi sits exactly on a rounding boundary: nudge to even.
	if i > 0 && ((lo < 0 && a.partials[i-1] < 0) || (lo > 0 && a.partials[i-1] > 0)) {
		y := lo * 2
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}

// Render produces the single result item of the aggregate, and reports
// whether the aggregate is defined: avg, min and max over an empty sequence
// yield XQuery's empty sequence, rendered as ok=false (the engine emits an
// empty item for it).
func (a *AggState) Render(kind AggKind) (string, bool) {
	switch kind {
	case AggCount:
		return strconv.FormatInt(a.Count, 10), true
	case AggSum:
		return FormatNumber(a.Sum()), true
	case AggAvg:
		if a.Count == 0 {
			return "", false
		}
		return FormatNumber(a.Sum() / float64(a.Count)), true
	case AggMin:
		if a.Count == 0 {
			return "", false
		}
		return FormatNumber(a.Min), true
	case AggMax:
		if a.Count == 0 {
			return "", false
		}
		return FormatNumber(a.Max), true
	default:
		return "", false
	}
}

// FormatNumber renders a float64 the way the result serializer expects:
// integral values without a fraction, everything else in shortest
// round-trippable form. Deterministic, so shard-merged and single-catalog
// aggregates render identically.
func FormatNumber(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ErrNonNumeric is the sentinel wrapped by FoldAgg failures: an aggregate
// path reached a value that does not atomize to a finite number. It marks
// the failure as a property of query-vs-data (a client error at the serving
// layer), not an engine fault; match it with errors.Is.
var ErrNonNumeric = errors.New("aggregate over non-numeric value")

// FoldAgg evaluates the aggregate over the tail's final relation: AggCount
// counts the tuples; the numeric aggregates fold every value the path
// reaches from each tuple's bound node. A value that does not atomize to a
// finite number fails the query (not the process) with a positioned error
// matching ErrNonNumeric. FoldAgg hops the path node by node; FoldAggIn
// reads its element steps from the catalog's index.
func FoldAgg(rel *table.Relation, spec *AggSpec) (*AggState, error) {
	return FoldAggIn(nil, rel, spec)
}

// FoldAggIn is FoldAgg with the path's element steps evaluated over the
// element postings of cat's index of the vertex's document (nil hops), with
// the same result.
func FoldAggIn(cat *Catalog, rel *table.Relation, spec *AggSpec) (*AggState, error) {
	st := &AggState{}
	if spec.Kind == AggCount {
		st.Count = int64(rel.NumRows())
		return st, nil
	}
	doc := rel.Doc(spec.Vertex)
	w := newPathWalker(doc, cat.indexOf(doc), spec.Path)
	for _, n := range rel.Column(spec.Vertex) {
		for _, m := range w.matchNodes(n) {
			s, f, isNum := doc.Atomize(m)
			if !isNum {
				return nil, fmt.Errorf("plan: %s %w: %q (node %d of %s)",
					spec.Kind, ErrNonNumeric, s, m, doc.Name())
			}
			st.Add(f)
		}
	}
	return st, nil
}
