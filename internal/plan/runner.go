package plan

import (
	"fmt"
	"slices"

	"repro/internal/joingraph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/table"
	"repro/internal/xmltree"
)

// Runner executes Join Graph edges one at a time, fully materializing
// intermediate results, exactly as the ROX evaluation model prescribes
// (Sec 1.1: "executes the operations in the Join Graph one by one, fully
// materializing partial results"). Both the static plan executor and the
// ROX optimizer drive a Runner; the only difference is who picks the next
// edge.
//
// State per vertex v:
//   - T(v), the materialized table of nodes currently satisfying v. Before
//     any incident edge ran this is the index lookup result; afterwards it
//     is the semijoin-reduced projection of v's component relation
//     (Algorithm 1, UpdateTable).
//
// State per connected set of executed edges ("component"): the fully joined
// relation over the component's vertices.
type Runner struct {
	Env *Env
	G   *joingraph.Graph

	// ExecLimit, when positive, cuts off every edge execution after
	// roughly that many result pairs. Intermediates are then samples of
	// the true results — the "run ROX with samples instead of the complete
	// data" mode of Sec 6; plans found this way must be re-executed on the
	// full data.
	ExecLimit int

	tables   []*table.Table                  // T(v) by vertex id, nil = not materialized
	comps    []*component                    // component by vertex id, nil = no edge ran yet
	executed []bool                          // by edge id
	required []bool                          // by vertex id: the tail reads it (SetTail)
	probes   []func(string) []xmltree.NodeID // value probe by vertex id, built on first use
	live     []bool                          // by vertex id: the input columns a merge copies (markLive)
	scratch  *mergeScratch                   // nil until the first merge (ms); handed back by Finish

	redundant []bool // cached RedundantEdges(G)

	// dropDead, set by SetTail, makes every merge leave out the columns of
	// dead vertices (markLive). projectReduce adds the Sec 6 "push Distinct
	// between the joins" extension: a merge that left a column out
	// deduplicates its rows, shrinking intermediates.
	dropDead, projectReduce bool

	// A replay (RunWithConfig) sets these; the optimizer leaves the first
	// two zero and fills hints through Reserve.
	replay bool        // refresh T(v) only for vertices a step in later touches
	later  []Step      // the plan steps after the one running
	hints  map[int]int // edge id → rows the cached plan observed, or the optimizer's estimate: pair capacity

	edgeRows map[int]int // edge id → rows ExecEdge produced, for Finish

	// CumulativeIntermediate accumulates the cardinality of every
	// intermediate relation produced, the Fig 5 metric.
	CumulativeIntermediate int64
}

// SetTail readies the Runner for the tail that reads its final relation:
// from here on a merge copies only live columns (markLive) — those of the
// vertices in required, which is tail.Required and what the caller passes
// to FinalRelation, and those a step still to run touches. A tail without
// Project returns every column, so it keeps them all. eager turns on the
// projection+Distinct push-down (EnableProjectReduce).
func (r *Runner) SetTail(tail *Tail, required []int, eager bool) {
	if eager {
		r.projectReduce = true
	} else if tail == nil || len(tail.Project) == 0 {
		return
	}
	r.dropDead = true
	for _, v := range required {
		r.required[v] = true
	}
}

// EnableProjectReduce turns on eager projection+distinct of completed
// vertices; required lists the vertices the tail needs (never dropped).
func (r *Runner) EnableProjectReduce(required []int) { r.SetTail(nil, required, true) }

type component struct {
	rel   *table.Relation
	verts []int
}

// NewRunner returns a Runner over graph g in environment env.
func NewRunner(env *Env, g *joingraph.Graph) *Runner {
	// One allocation holds the edge and vertex bits. The live bits start
	// all set: a Runner without SetTail copies every column.
	ne, nv := len(g.Edges), len(g.Vertices)
	bits := make([]bool, ne+2*nv)
	live := bits[ne+nv:]
	for v := range live {
		live[v] = true
	}
	return &Runner{
		Env:       env,
		G:         g,
		tables:    make([]*table.Table, nv),
		comps:     make([]*component, nv),
		executed:  bits[:ne:ne],
		required:  bits[ne : ne+nv : ne+nv],
		live:      live,
		redundant: RedundantEdges(g),
	}
}

// Executed reports whether edge id has been executed.
func (r *Runner) Executed(id int) bool { return r.executed[id] }

// Redundant reports whether edge id is one RedundantEdges lets ROX skip.
func (r *Runner) Redundant(id int) bool { return r.redundant[id] }

// RemainingEdges returns the ids of unexecuted, non-redundant edges.
func (r *Runner) RemainingEdges() []int {
	var out []int
	for _, e := range r.G.Edges {
		if !r.executed[e.ID] && !r.redundant[e.ID] {
			out = append(out, e.ID)
		}
	}
	return out
}

// Table returns the current T(v), or nil if v has not been materialized.
func (r *Runner) Table(v int) *table.Table { return r.tables[v] }

// EnsureTable materializes T(v) through an index lookup if absent
// (Algorithm 1 lines 8–12).
func (r *Runner) EnsureTable(v int) (*table.Table, error) {
	if t := r.tables[v]; t != nil {
		return t, nil
	}
	t, err := r.Env.VertexTable(r.G.Vertices[v])
	if err != nil {
		return nil, err
	}
	r.tables[v] = t
	return t, nil
}

// Card returns the current cardinality of T(v), or -1 if unmaterialized.
func (r *Runner) Card(v int) int {
	if t := r.tables[v]; t != nil {
		return t.Len()
	}
	return -1
}

// PairsFor evaluates edge e in pair form with ctx as the context-side input
// for vertex ctxVertex and inner as the other side's table, honouring the
// cut-off limit (0 = unlimited). It returns the pairs with C bound to
// ctxVertex, plus the number of consumed context tuples. It performs no
// state updates — this is the ℓ(OP) building block used both for weighing
// edges and for chain sampling.
//
// For equi-join edges the inner side is probed through its document's value
// index restricted to the inner table (nested-loop index lookup join — the
// zero-investment algorithm of Sec 2.3); a nil inner means the probe is
// unrestricted (the inner vertex's conceptual table is its full index
// extent), and so does an inner that still is that extent (holdsExtent).
// Step edges require a non-nil inner.
func (r *Runner) PairsFor(e *joingraph.Edge, ctxVertex int, ctx, inner *table.Table, limit int) (ops.Pairs, int, error) {
	var out ops.Pairs
	consumed, err := r.PairsInto(&out, e, ctxVertex, ctx, inner, limit)
	return out, consumed, err
}

// PairsInto is PairsFor writing into out, whose columns are truncated and
// reused (ops.StepPairsInto): a caller that only reads the pairs before the
// next call — the optimizer's sampling — keeps one buffer for all of them.
// The result aliases out's columns until the next call. It returns consumed,
// or the interrupt's error when a poll inside the operator stopped it.
func (r *Runner) PairsInto(out *ops.Pairs, e *joingraph.Edge, ctxVertex int, ctx, inner *table.Table, limit int) (int, error) {
	consumed, err := r.pairsInto(out, e, ctxVertex, ctx, inner, limit)
	if err == nil {
		err = r.Env.Rec.Stopped()
	}
	return consumed, err
}

func (r *Runner) pairsInto(out *ops.Pairs, e *joingraph.Edge, ctxVertex int, ctx, inner *table.Table, limit int) (int, error) {
	if !e.Touches(ctxVertex) {
		return 0, fmt.Errorf("plan: vertex %d not on edge %d", ctxVertex, e.ID)
	}
	other := e.Other(ctxVertex)
	switch e.Kind {
	case joingraph.StepEdge:
		if inner == nil {
			return 0, fmt.Errorf("plan: step edge %d needs an inner table", e.ID)
		}
		axis := e.Axis
		if ctxVertex == e.To {
			axis = axis.Reverse()
		}
		return ops.StepPairsInto(out, r.Env.Rec, ctx.Doc, axis, ctx.Nodes, inner.Nodes, limit), nil
	case joingraph.JoinEdge:
		probe, err := r.probe(other)
		if err != nil {
			return 0, err
		}
		if inner == nil || r.holdsExtent(other, inner) {
			return ops.NLIndexJoinPairsInto(out, r.Env.Rec, ctx.Doc, ctx.Nodes, probe, limit), nil
		}
		return ops.RestrictedNLIndexJoinPairsInto(out, r.Env.Rec, ctx.Doc, ctx.Nodes, probe, inner.Nodes, limit), nil
	default:
		return 0, fmt.Errorf("plan: edge %d has unknown kind", e.ID)
	}
}

// probe returns vertex v's value-index probe (Env.probeFor), built once per
// Runner; a Runner that joins no values allocates nothing for them.
func (r *Runner) probe(v int) (func(string) []xmltree.NodeID, error) {
	if r.probes == nil {
		r.probes = make([]func(string) []xmltree.NodeID, len(r.G.Vertices))
	}
	if p := r.probes[v]; p != nil {
		return p, nil
	}
	p, err := r.Env.probeFor(r.G.Vertices[v])
	if err != nil {
		return nil, err
	}
	r.probes[v] = p
	return p, nil
}

// holdsExtent reports whether t, an inner table of a value join into vertex
// v, is still v's whole index extent, so that v's value probe hits only
// nodes of t: no edge at v ran yet, t is the table EnsureTable built, and v
// is a text or attribute vertex without a predicate.
func (r *Runner) holdsExtent(v int, t *table.Table) bool {
	vert := r.G.Vertices[v]
	return r.comps[v] == nil && t != nil && r.tables[v] == t &&
		(vert.Kind == joingraph.VText || vert.Kind == joingraph.VAttr) && vert.Pred.Kind == joingraph.PredNone
}

// ExecEdge fully executes edge e (Algorithm 1 line 13): it materializes both
// endpoint tables if needed, evaluates the edge, merges/extends/filters the
// component relations, updates the semijoin-reduced tables of every vertex
// in the affected component, and returns the cardinality of the resulting
// intermediate relation.
//
// If reverse is true the edge runs with To as context side. alg selects the
// equi-join algorithm (ignored for steps). A hash join whose inner side
// still holds its index extent probes that vertex's value index instead of
// building a table over the extent (ops.IndexHashJoinPairsInto): the same
// pairs, the same charge. The pairs land in pairBuffer's buffer.
func (r *Runner) ExecEdge(e *joingraph.Edge, reverse bool, alg ops.JoinAlg) (int, error) {
	if err := r.Env.CheckInterrupt(); err != nil {
		return 0, err
	}
	if r.executed[e.ID] {
		return 0, fmt.Errorf("plan: edge %d already executed", e.ID)
	}
	ctxV, innerV := e.From, e.To
	if reverse {
		ctxV, innerV = e.To, e.From
	}
	ctxT, err := r.EnsureTable(ctxV)
	if err != nil {
		return 0, err
	}
	innerT, err := r.EnsureTable(innerV)
	if err != nil {
		return 0, err
	}

	out, rec := r.pairBuffer(e.ID, ctxV, innerV, ctxT.Len()+innerT.Len()), r.Env.Rec
	switch {
	case e.Kind == joingraph.StepEdge || alg == ops.JoinNLIndex:
		if _, err := r.PairsInto(out, e, ctxV, ctxT, innerT, r.ExecLimit); err != nil {
			return 0, err
		}
	case alg == ops.JoinHash && r.holdsExtent(innerV, innerT):
		probe, err := r.probe(innerV)
		if err != nil {
			return 0, err
		}
		ops.IndexHashJoinPairsInto(out, rec, ctxT.Doc, ctxT.Nodes, probe, innerT.Len(), r.ExecLimit)
	case alg == ops.JoinHash:
		ops.HashJoinPairsInto(out, rec, ctxT.Doc, ctxT.Nodes, innerT.Doc, innerT.Nodes, r.ExecLimit)
	default:
		*out, _ = ops.ValueJoinPairs(rec, alg, ctxT.Doc, ctxT.Nodes, innerT.Doc, innerT.Nodes, nil, r.ExecLimit)
	}
	if err := rec.Stopped(); err != nil {
		return 0, err
	}

	rows, err := r.merge(ctxV, innerV, *out)
	if err != nil {
		return 0, err
	}
	r.executed[e.ID] = true
	r.CumulativeIntermediate += int64(rows)
	if r.edgeRows == nil {
		r.edgeRows = make(map[int]int)
	}
	r.edgeRows[e.ID] = rows
	return rows, nil
}

// Reserve sets the pair reserve of edge id, which has not run yet, to rows:
// the optimizer passes its estimate of the edge's result size before it
// executes the edge, as a replay passes the cached plan's observations
// (RunConfig.Expected). It is capacity only, capped as pairBuffer caps a
// replay's hint. A replay's hints are the plan cache's map, which a Runner
// never writes, so Reserve is for a Runner RunWithConfig did not start.
func (r *Runner) Reserve(id, rows int) {
	if r.hints == nil {
		r.hints = make(map[int]int)
	}
	r.hints[id] = rows
}

// pairBuffer returns the Pairs an edge between vertices a and b writes into.
// A component's first edge gets a fresh buffer, which its relation adopts as
// its two columns; every other edge writes into the Runner's scratch, which
// the merge only reads. A replay reserves the rows the cached plan observed
// for the edge, an optimizer run its estimate (Reserve) — capacity only: a
// short hint grows by appending, so a hint never changes the pairs. The
// reserve is capped by inputs, the two tables' total size (so a stale entry
// or a wild estimate cannot allocate beyond the data), and by ExecLimit when
// one is set.
func (r *Runner) pairBuffer(id, a, b, inputs int) *ops.Pairs {
	n := min(r.hints[id], inputs)
	if r.ExecLimit > 0 {
		n = min(n, r.ExecLimit)
	}
	n = max(n, 0)
	if r.comps[a] != nil || r.comps[b] != nil {
		p := &r.ms().pairs
		p.C, p.S = slices.Grow(p.C[:0], n), slices.Grow(p.S[:0], n)
		return p
	}
	buf := make([]xmltree.NodeID, 2*n)
	return &ops.Pairs{C: buf[:0:n], S: buf[n:n]}
}

// merge folds the edge result pairs (C bound to vertex a, S to vertex b)
// into the component state and returns the resulting relation cardinality.
func (r *Runner) merge(a, b int, pairs ops.Pairs) (int, error) {
	ca, cb := r.comps[a], r.comps[b]
	dropped := r.markLive(a, b, ca, cb)
	ms := r.ms()
	var nc *component
	switch {
	case ca == nil && cb == nil:
		rel := ms.adopt(a, r.tables[a].Doc, b, r.tables[b].Doc, pairs)
		nc = &component{rel: rel, verts: []int{a, b}}
	case ca != nil && cb == nil:
		rel := ms.extend(ca.rel, a, pairs, b, r.tables[b].Doc)
		nc = &component{rel: rel, verts: append(append([]int(nil), ca.verts...), b)}
		ms.retire(ca.rel)
	case ca == nil && cb != nil:
		rel := ms.extend(cb.rel, b, pairs.Swapped(), a, r.tables[a].Doc)
		nc = &component{rel: rel, verts: append(append([]int(nil), cb.verts...), a)}
		ms.retire(cb.rel)
	case ca == cb:
		rel := ms.filter(ca.rel, a, b, pairs)
		nc = &component{rel: rel, verts: ca.verts}
		ms.retire(ca.rel)
	default:
		rel := ms.joinOn(ca.rel, a, cb.rel, b, pairs)
		nc = &component{rel: rel, verts: append(append([]int(nil), ca.verts...), cb.verts...)}
		ms.retire(ca.rel)
		ms.retire(cb.rel)
	}
	// An interrupted merge returned no relation: the run ends here, and its
	// scratch, retired columns included, is never handed back.
	if err := r.Env.Rec.Stopped(); err != nil {
		return 0, err
	}
	r.Env.Rec.ChargeTuples(nc.rel.NumRows())
	if r.projectReduce && dropped {
		nc.rel = nc.rel.Distinct()
	}
	// Refreshing T(v) scans the relation once per vertex: a large one
	// polls the interrupt in between.
	large := nc.rel.NumRows() >= metrics.PollEvery
	for _, v := range nc.verts {
		r.comps[v] = nc
		if nc.rel.HasColumn(v) && (!r.replay || r.readLater(v)) {
			if large {
				if err := r.Env.CheckInterrupt(); err != nil {
					return 0, err
				}
			}
			r.tables[v] = nc.rel.DistinctNodes(v, r.tables[v], &ms.words)
		}
	}
	return nc.rel.NumRows(), nil
}

// ms returns the Runner's merge scratch, taken from scratchPool on first use
// and pointed at the Runner's live bits.
func (r *Runner) ms() *mergeScratch {
	if r.scratch == nil {
		r.scratch = scratchPool.Get()
		r.scratch.live, r.scratch.rec = r.live, r.Env.Rec
	}
	return r.scratch
}

// readLater reports whether a plan step after the running one touches vertex
// v, the only way a replay reads T(v) again. A vertex no later step touches
// keeps a stale T(v): its nodes are never read, and its Doc still holds.
func (r *Runner) readLater(v int) bool {
	for _, s := range r.later {
		if r.G.Edges[s.EdgeID].Touches(v) {
			return true
		}
	}
	return false
}

// markLive decides which input columns the merge of an edge between a and
// b copies — it sets the live bits, which stay all set without SetTail —
// and reports whether it leaves a column of ca or cb behind. A dead
// vertex keeps its component membership (for connectivity) but loses its
// column. Live are the tail's vertices, a and b themselves (the edge being
// merged still counts as to run, so T(a) and T(b) are refreshed as ever),
// and the endpoints of every edge still to run: in a replay the plan's
// later steps; under the optimizer every unexecuted, non-redundant edge.
// With projectReduce a replay uses the optimizer's rule too: the push-down
// deduplicates after a dropped column, which makes the rule visible in the
// row counts, and a replay must reproduce the counts its optimizer run saw.
func (r *Runner) markLive(a, b int, ca, cb *component) bool {
	if !r.dropDead {
		return false
	}
	live := r.live
	copy(live, r.required)
	live[a], live[b] = true, true
	if r.replay && !r.projectReduce {
		for _, s := range r.later {
			e := r.G.Edges[s.EdgeID]
			live[e.From], live[e.To] = true, true
		}
	} else {
		for _, e := range r.G.Edges {
			if !r.executed[e.ID] && !r.redundant[e.ID] {
				live[e.From], live[e.To] = true, true
			}
		}
	}
	for _, c := range [2]*component{ca, cb} {
		if c == nil {
			continue
		}
		for _, id := range c.rel.ColumnIDs() {
			if !live[id] {
				return true
			}
		}
	}
	return false
}

// Relation returns the component relation containing vertex v, or nil.
func (r *Runner) Relation(v int) *table.Relation {
	if c := r.comps[v]; c != nil {
		return c.rel
	}
	return nil
}

// FinalRelation returns the fully joined relation covering the required
// vertices after all plan edges ran. A required vertex that never joined
// any edge (single-vertex graphs) is lifted from its table.
func (r *Runner) FinalRelation(required []int) (*table.Relation, error) {
	if len(required) == 0 {
		return nil, fmt.Errorf("plan: no required vertices")
	}
	c := r.comps[required[0]]
	if c == nil {
		if len(required) == 1 {
			t, err := r.EnsureTable(required[0])
			if err != nil {
				return nil, err
			}
			return table.FromTable(required[0], t), nil
		}
		return nil, fmt.Errorf("plan: vertex %d not joined", required[0])
	}
	for _, v := range required[1:] {
		if r.comps[v] != c {
			return nil, fmt.Errorf("plan: vertices %d and %d in different components — plan incomplete", required[0], v)
		}
	}
	return c.rel, nil
}

// Finish ends a run once every plan edge executed: the final relation over
// the required vertices (tail.Required, what SetTail was given) through the
// tail, and the run's record. A replay and an optimizer run both end here,
// so their RunStats mean the same thing. Finish hands the merge scratch back
// for the next Runner, with the columns of the relations this run's merges
// superseded as its spares (mergeScratch.retire); one that never finishes
// (an error, a statistics or sampled-search Runner) just drops it.
func (r *Runner) Finish(tail *Tail, required []int) (*table.Relation, RunStats, error) {
	rel, err := r.FinalRelation(required)
	if err == nil {
		err = r.Env.CheckInterrupt()
	}
	if err != nil {
		return nil, RunStats{}, err
	}
	out, keys, scanned, before := tail.run(r.Env.cat, r.Env.Rec, rel)
	if err := r.Env.Rec.Stopped(); err != nil {
		return nil, RunStats{}, err
	}
	if r.scratch != nil { // no merge reads it again
		r.scratch.recycle()
		r.scratch = nil
	}
	return out, RunStats{
		CumulativeIntermediate: r.CumulativeIntermediate,
		ResultRows:             out.NumRows(),
		Scanned:                scanned,
		EdgeRows:               r.edgeRows,
		Keys:                   keys,
		Before:                 before,
	}, nil
}

// RedundantEdges identifies the edges ROX may skip: descendant(-or-self)
// steps out of a document-root vertex do not restrict their target (every
// node is a descendant of the root), so when the root vertex is otherwise
// unused and the target vertex has other edges binding it into the result,
// the edge is unnecessary (Sec 3.2: "descendant edges from the root are
// ignored since these are not necessary to execute to produce the correct
// result").
//
// The result is indexed by edge id.
func RedundantEdges(g *joingraph.Graph) []bool {
	out := make([]bool, len(g.Edges))
	for v, vert := range g.Vertices {
		if vert.Kind != joingraph.VRoot {
			continue
		}
		allDesc := true
		for _, e := range g.Edges {
			if !e.Touches(v) {
				continue
			}
			if e.Kind != joingraph.StepEdge || e.From != v ||
				(e.Axis != ops.AxisDesc && e.Axis != ops.AxisDescSelf) {
				allDesc = false
				break
			}
			if g.Degree(e.To) < 2 {
				// The target is only held by this edge; skipping would
				// drop it from the result.
				allDesc = false
				break
			}
		}
		if !allDesc {
			continue
		}
		for _, e := range g.Edges {
			if e.Touches(v) {
				out[e.ID] = true
			}
		}
	}
	return out
}
