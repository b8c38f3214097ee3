package plan

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/joingraph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/table"
)

// Step is one entry of a static plan: execute the given edge, optionally in
// reverse direction (To as context side), with the given equi-join algorithm
// (ignored for step edges).
type Step struct {
	EdgeID  int
	Reverse bool
	Alg     ops.JoinAlg
}

// Plan is a fully ordered execution plan over a Join Graph — what a
// compile-time optimizer emits, and what ROX produces as a by-product of its
// run (the "pure plan" re-executed without sampling in the experiments).
type Plan struct {
	Steps []Step
}

// String renders the plan compactly as its edge ids in step order, a reversed
// step primed, e.g. "e3 e1' e0"; join algorithms are not shown.
func (p *Plan) String() string {
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		str := fmt.Sprintf("e%d", s.EdgeID)
		if s.Reverse {
			str += "'"
		}
		parts[i] = str
	}
	return strings.Join(parts, " ")
}

// EdgeIDs returns the plan's edge ids in step order.
func (p *Plan) EdgeIDs() []int {
	ids := make([]int, len(p.Steps))
	for i, s := range p.Steps {
		ids[i] = s.EdgeID
	}
	return ids
}

// Covers reports whether the plan executes every non-redundant edge of g
// exactly once. An equi-join edge may be omitted when its endpoints are
// connected through other executed equi-join edges: value equality is
// transitive, so the omitted filter is implied (this is what lets ROX
// execute only a spanning tree of a join-equivalence class, Fig 4).
func (p *Plan) Covers(g *joingraph.Graph) error {
	redundant := RedundantEdges(g)
	seen := make([]bool, len(g.Edges))
	uf := joingraph.NewUnionFind(len(g.Vertices))
	for _, s := range p.Steps {
		if s.EdgeID < 0 || s.EdgeID >= len(g.Edges) {
			return fmt.Errorf("plan: step references unknown edge %d", s.EdgeID)
		}
		if seen[s.EdgeID] {
			return fmt.Errorf("plan: edge %d executed twice", s.EdgeID)
		}
		seen[s.EdgeID] = true
		if e := g.Edges[s.EdgeID]; e.Kind == joingraph.JoinEdge {
			uf.Union(e.From, e.To)
		}
	}
	for _, e := range g.Edges {
		if seen[e.ID] || redundant[e.ID] {
			continue
		}
		if e.Kind == joingraph.JoinEdge && uf.Find(e.From) == uf.Find(e.To) {
			continue // implied by transitivity of the executed joins
		}
		if e.Kind == joingraph.JoinEdge && e.Derived {
			continue
		}
		return fmt.Errorf("plan: edge %d not covered", e.ID)
	}
	return nil
}

// Tail restores the XQuery semantics on top of the fully joined relation
// (Sec 2.1): project to the for-variable vertices, remove duplicate tuples,
// establish the nested for-loop order (sort by the variables' node ids in
// binding order — the numbering τ), and project to the returned vertices.
// Order and Agg extend the tail with the order-by and aggregate return
// clauses; see the "Aggregation and ordering tail" section of DESIGN.md.
// The tail stays strictly outside the Join Graph: its specs reference graph
// vertices but never add edges, so the optimizer's plan space — and the plan
// cache's fingerprints over it — are untouched by tail changes.
type Tail struct {
	Project []int // vertices kept for distinct/sort (the for variables)
	Sort    []int // sort key order; defaults to Project when nil
	Final   []int // vertices of the return expression
	// Order, when set, re-sorts the distinct tuples by an extracted key
	// (stable over the τ sort, so ties keep document order). Execute
	// returns the extracted keys alongside the relation so the gather side
	// of a scatter can merge without re-extracting them.
	Order *OrderSpec
	// Agg, when set, is folded over the final tuples by FoldAgg; the
	// relation Execute returns is unchanged by it (aggregation happens at
	// serialization, where a non-numeric value can fail the query).
	Agg *AggSpec
	// Limit, when set, windows the result rows after every sort: at most
	// Limit.Count rows starting at Limit.Offset survive. Execute reports the
	// pre-window cardinality as its scanned count, so statistics can tell
	// rows produced by the join from rows actually returned.
	Limit *LimitSpec
}

// Execute runs the tail and returns the final relation plus, for ordered
// tails, the per-row order keys in final row order — extracted exactly once,
// during the key sort. Keys are nil when the tail has no order by. scanned is
// the distinct result cardinality before the Limit window was applied (equal
// to the output row count for unlimited tails): the limit push-down happens
// here — the key sort selects only the rows up to the window's end, and the
// window is cut before any serialization — so a `limit 10` query never pays to
// order or render rows 11..n.
//
// Execute hops the order-by key path node by node; ExecuteIn reads its
// element steps from the catalog's index.
func (t *Tail) Execute(rel *table.Relation) (out *table.Relation, keys []Key, scanned int) {
	return t.ExecuteIn(nil, rel)
}

// ExecuteIn is Execute with the order-by key path's element steps evaluated
// over the element postings of cat's index of the key vertex's document (nil
// hops), with the same result.
func (t *Tail) ExecuteIn(cat *Catalog, rel *table.Relation) (out *table.Relation, keys []Key, scanned int) {
	out, keys, scanned, _ = t.run(cat, nil, rel)
	return out, keys, scanned
}

// run is ExecuteIn that also returns, for a window with a From bound, how
// many rows sort before it (0 otherwise). Under a bound the window counts
// from the first row that does not sort before From, so it is cut over the
// rows the key sort kept. It checks rec's interrupt after the distinct and
// the τ sort and polls it in the key sort; a stopped tail returns no rows,
// and its caller reads the error from rec.Stopped. A nil rec never stops.
func (t *Tail) run(cat *Catalog, rec *metrics.Recorder, rel *table.Relation) (out *table.Relation, keys []Key, scanned, before int) {
	if t == nil {
		return rel, nil, rel.NumRows(), 0
	}
	out = rel
	if len(t.Project) > 0 {
		out = out.Project(t.Project)
	}
	out = out.Distinct()
	if rec.CheckInterrupt() != nil {
		return nil, nil, 0, 0
	}
	sortCols := t.Sort
	if sortCols == nil {
		sortCols = t.Project
	}
	if len(sortCols) > 0 {
		out.SortBy(sortCols)
		if rec.CheckInterrupt() != nil {
			return nil, nil, 0, 0
		}
	}
	scanned = out.NumRows()
	if t.Order != nil {
		var from *Key
		if t.Limit != nil {
			from = t.Limit.From
		}
		_, hi := t.Limit.Window(scanned)
		out, keys, before = sortByKeys(cat, rec, out, t.Order, from, hi)
		if out == nil {
			return nil, nil, 0, 0
		}
	}
	if t.Limit != nil {
		lo, hi := t.Limit.Window(out.NumRows())
		out = out.Slice(lo, hi)
		if t.Order != nil {
			keys = keys[lo:hi]
		}
	}
	if len(t.Final) > 0 {
		out = out.Project(t.Final)
	}
	return out, keys, scanned, before
}

// keyedRow is one row of the key sort: its order key and its position in the
// τ-sorted relation.
type keyedRow struct {
	key Key
	row int
}

// compare is the tail's total order over keyed rows: the key in the spec's
// direction, then the row position. It is the order a stable sort by key over
// the τ sort yields — ties keep document order — written as a total order so
// that any selection algorithm, on any shard, produces the same rows; that is
// the property the scatter-gather merge relies on for byte-identity.
func (o *OrderSpec) compare(a, b keyedRow) int {
	c := a.key.Compare(b.key)
	if o.Desc {
		c = -c
	}
	if c == 0 {
		c = cmp.Compare(a.row, b.row)
	}
	return c
}

// sortByKeys returns the first k rows of rel under the spec's total order, and
// their keys in that order. With k short of the relation it keeps the k best
// rows seen so far in a max-heap — the worst of them on top, displaced by
// any better row — so only k keys are held and k rows sorted and permuted.
// A non-nil from bounds the selection: the rows whose key sorts before it are
// only counted, and before is their number. The key walk polls rec's
// interrupt (Recorder.Poll); a stopped sort returns nothing, and its caller
// reads the error from rec.Stopped.
func sortByKeys(cat *Catalog, rec *metrics.Recorder, rel *table.Relation, spec *OrderSpec, from *Key, k int) (_ *table.Relation, _ []Key, before int) {
	col := rel.Column(spec.Vertex)
	k = max(0, min(k, len(col)))
	doc := rel.Doc(spec.Vertex)
	w := newPathWalker(doc, cat.indexOf(doc), spec.Path)
	sel := make([]keyedRow, 0, k)
	next := metrics.PollEvery
	for i, n := range col {
		if rec.Poll(i, &next) {
			return nil, nil, 0
		}
		e := keyedRow{w.key(n), i}
		switch {
		case from != nil && spec.Before(e.key, *from):
			before++
		case len(sel) < k:
			sel = append(sel, e)
			if len(sel) == k && k < len(col) {
				for j := k/2 - 1; j >= 0; j-- {
					spec.siftDown(sel, j)
				}
			}
		case k > 0 && spec.compare(e, sel[0]) < 0:
			sel[0] = e
			spec.siftDown(sel, 0)
		}
	}
	slices.SortFunc(sel, spec.compare)
	idx, keys := make([]int, len(sel)), make([]Key, len(sel))
	for i, e := range sel {
		idx[i], keys[i] = e.row, e.key
	}
	return rel.Permute(idx), keys, before
}

// Before reports whether key a sorts strictly before key b in the spec's
// direction — by the keys alone, with no row tiebreak.
func (o *OrderSpec) Before(a, b Key) bool {
	c := a.Compare(b)
	if o.Desc {
		c = -c
	}
	return c < 0
}

// siftDown restores the max-heap property of h below position i.
func (o *OrderSpec) siftDown(h []keyedRow, i int) {
	for {
		big := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if o.compare(h[c], h[big]) > 0 {
				big = c
			}
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// Required returns the vertices that must appear in the final joined
// relation for the tail to be applicable.
func (t *Tail) Required(g *joingraph.Graph) []int {
	if t == nil || len(t.Project) == 0 {
		// Without a tail every non-root vertex is required.
		var all []int
		for _, v := range g.Vertices {
			if v.Kind != joingraph.VRoot {
				all = append(all, v.ID)
			}
		}
		return all
	}
	var out []int
	add := func(ids []int) {
		for _, id := range ids {
			if !slices.Contains(out, id) {
				out = append(out, id)
			}
		}
	}
	add(t.Project)
	add(t.Sort)
	add(t.Final)
	if t.Order != nil {
		add([]int{t.Order.Vertex})
	}
	if t.Agg != nil {
		add([]int{t.Agg.Vertex})
	}
	return out
}

// RunStats is the one record of a finished join: what Runner.Finish reports
// for a replay (RunWithConfig) and for an optimizer run alike, and what
// core.Result embeds.
type RunStats struct {
	// CumulativeIntermediate is the summed cardinality of all intermediate
	// relations (the Fig 5 metric).
	CumulativeIntermediate int64
	// ResultRows is the tail output cardinality (after any Limit window).
	ResultRows int
	// Scanned is the tail cardinality before the Limit window: the distinct
	// sorted join result the query produced, whether or not every row was
	// returned. Equal to ResultRows for unlimited tails.
	Scanned int
	// EdgeRows maps every executed edge ID to the cardinality of the
	// intermediate relation its execution produced. Plan caches compare
	// these observations against the expectations recorded by the run that
	// discovered the plan: replays whose cardinalities drift signal that the
	// data changed enough to warrant re-optimization.
	EdgeRows map[int]int
	// Keys are the order-by keys of the result rows in row order (nil for
	// tails without order by) — extracted once by the tail executor and
	// consumed by the scatter-gather merge.
	Keys []Key
	// Before is the number of rows that sort before the tail window's From
	// bound (0 without one): rows of the result that the window skipped
	// without selecting them.
	Before int
}

// RunConfig tunes a plan replay. The zero value reproduces the plain Run
// behavior.
type RunConfig struct {
	// EagerProject enables the Sec 6 projection+Distinct push-down during the
	// replay, matching a plan discovered by an optimizer run with the same
	// option (intermediate cardinalities are only comparable between runs
	// with the same reduction policy).
	EagerProject bool
	// Expected is the cached plan's per-edge cardinalities
	// (plancache.Entry.Expected). Each edge's pair buffer reserves that many
	// pairs up front instead of growing from empty. It sets capacity only:
	// the relations and RunStats are those of a run without it.
	Expected map[int]int
}

// Run executes the plan over graph g in env and applies the tail.
func Run(env *Env, g *joingraph.Graph, p *Plan, tail *Tail) (*table.Relation, *RunStats, error) {
	return RunWithConfig(env, g, p, tail, RunConfig{})
}

// RunWithConfig is Run with replay options; see RunConfig.
func RunWithConfig(env *Env, g *joingraph.Graph, p *Plan, tail *Tail, cfg RunConfig) (*table.Relation, *RunStats, error) {
	if err := p.Covers(g); err != nil {
		return nil, nil, err
	}
	r := NewRunner(env, g)
	r.replay, r.hints = true, cfg.Expected
	required := tail.Required(g)
	r.SetTail(tail, required, cfg.EagerProject)
	for i, s := range p.Steps {
		r.later = p.Steps[i+1:]
		if _, err := r.ExecEdge(g.Edges[s.EdgeID], s.Reverse, s.Alg); err != nil {
			return nil, nil, fmt.Errorf("plan: step e%d: %w", s.EdgeID, err)
		}
	}
	out, stats, err := r.Finish(tail, required)
	if err != nil {
		return nil, nil, err
	}
	return out, &stats, nil
}
