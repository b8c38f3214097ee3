package plan

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/joingraph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/xmltree"
)

func TestExecEdgeTwiceFails(t *testing.T) {
	f := newFixture(t)
	r := NewRunner(f.env, f.g)
	e := f.g.Edges[f.ePersonName]
	if _, err := r.ExecEdge(e, false, ops.JoinHash); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ExecEdge(e, false, ops.JoinHash); err == nil {
		t.Errorf("double execution should fail")
	}
}

func TestExecLimitTruncatesIntermediates(t *testing.T) {
	f := newFixture(t)
	full := NewRunner(f.env, f.g)
	if _, err := full.ExecEdge(f.g.Edges[f.ePersonName], false, ops.JoinHash); err != nil {
		t.Fatal(err)
	}
	fullRows := full.CumulativeIntermediate

	f2 := newFixture(t)
	lim := NewRunner(f2.env, f2.g)
	lim.ExecLimit = 2
	rows, err := lim.ExecEdge(f2.g.Edges[f2.ePersonName], false, ops.JoinHash)
	if err != nil {
		t.Fatal(err)
	}
	if int64(rows) >= fullRows {
		t.Errorf("limited exec produced %d rows, full %d", rows, fullRows)
	}
	if rows < 2 {
		t.Errorf("limit cut below the requested size: %d", rows)
	}
}

func TestPlanString(t *testing.T) {
	p := &Plan{Steps: []Step{{EdgeID: 3}, {EdgeID: 1, Reverse: true}}}
	s := p.String()
	if !strings.Contains(s, "e3") || !strings.Contains(s, "e1'") {
		t.Errorf("Plan.String = %q", s)
	}
}

func TestCoversImpliedJoins(t *testing.T) {
	// Three text vertices joined in a triangle: executing two joins makes
	// the third implied; Covers must accept the two-step plan.
	g := joingraph.New()
	a := g.AddText("d", joingraph.NoPred)
	b := g.AddText("d", joingraph.NoPred)
	c := g.AddText("d", joingraph.NoPred)
	j1 := g.AddJoin(a, b)
	j2 := g.AddJoin(b, c)
	g.AddJoin(a, c) // never executed, implied
	p := &Plan{Steps: []Step{{EdgeID: j1}, {EdgeID: j2}}}
	if err := p.Covers(g); err != nil {
		t.Errorf("implied join not accepted: %v", err)
	}
	// A single join leaves (a,c) unconnected → incomplete.
	p2 := &Plan{Steps: []Step{{EdgeID: j1}}}
	if err := p2.Covers(g); err == nil {
		t.Errorf("missing join accepted")
	}
}

func TestPairsForJoinNilInner(t *testing.T) {
	f := newFixture(t)
	r := NewRunner(f.env, f.g)
	pt, err := r.EnsureTable(f.ptext)
	if err != nil {
		t.Fatal(err)
	}
	// nil inner = unrestricted probe for join edges.
	pairs, _, err := r.PairsFor(f.g.Edges[f.eJoin], f.ptext, pt, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pairs.Len() == 0 {
		t.Errorf("unrestricted probe found nothing")
	}
	// nil inner is an error for step edges.
	if _, _, err := r.PairsFor(f.g.Edges[f.ePersonName], f.person, pt, nil, 0); err == nil {
		t.Errorf("step edge with nil inner should fail")
	}
}

// TestExecEdgeHashOverExtentMatchesHashJoin: a hash join whose inner vertex
// still holds its index extent probes that vertex's value index instead of
// building a table over the extent. Its pairs, and the tuples it charges,
// must be those of HashJoinPairs over the same two tables — on text and
// attribute vertices, in both directions, full and cut off.
func TestExecEdgeHashOverExtentMatchesHashJoin(t *testing.T) {
	type joinCase struct {
		env  *Env
		g    *joingraph.Graph
		edge int
	}
	cases := func() []joinCase {
		f := newFixture(t)
		d, err := xmltree.ParseString("attrs",
			`<r><a ref="1"/><a ref="2"/><a ref="2"/><a ref="4"/><b id="2"/><b id="1"/><b id="2"/><b id="3"/></r>`)
		if err != nil {
			t.Fatal(err)
		}
		env := NewEnv(metrics.NewRecorder(), 1)
		env.AddDocument(d)
		g := joingraph.New()
		join := g.AddJoin(g.AddAttr("attrs", "ref", joingraph.NoPred), g.AddAttr("attrs", "id", joingraph.NoPred))
		return []joinCase{{f.env, f.g, f.eJoin}, {env, g, join}}
	}
	for _, limit := range []int{0, 1, 2, 3} {
		for _, reverse := range []bool{false, true} {
			for i, c := range cases() {
				r := NewRunner(c.env, c.g)
				r.ExecLimit = limit
				e := c.g.Edges[c.edge]
				ctxV, innerV := e.From, e.To
				if reverse {
					ctxV, innerV = innerV, ctxV
				}
				ctxT, err := r.EnsureTable(ctxV)
				if err != nil {
					t.Fatal(err)
				}
				innerT, err := r.EnsureTable(innerV)
				if err != nil {
					t.Fatal(err)
				}
				if !r.holdsExtent(innerV, innerT) {
					t.Fatalf("case %d: the fresh inner table is not taken for its extent", i)
				}
				before := c.env.Rec.Total()
				rows, err := r.ExecEdge(e, reverse, ops.JoinHash)
				if err != nil {
					t.Fatal(err)
				}
				after := c.env.Rec.Total()
				hashRec := metrics.NewRecorder()
				want, _ := ops.HashJoinPairs(hashRec, ctxT.Doc, ctxT.Nodes, innerT.Doc, innerT.Nodes, limit)
				// The first edge's pairs are its relation's two columns.
				rel := r.Relation(ctxV)
				if got := (ops.Pairs{C: rel.Column(ctxV), S: rel.Column(innerV)}); want.Len() == 0 || !slices.Equal(got.C, want.C) || !slices.Equal(got.S, want.S) {
					t.Fatalf("case %d limit %d reverse %v: pairs C=%v S=%v, hash join C=%v S=%v",
						i, limit, reverse, got.C, got.S, want.C, want.S)
				}
				// ExecEdge charges the join, then the merged relation's rows.
				w := hashRec.Total()
				if tuples := after.Tuples - before.Tuples - int64(rows); tuples != w.Tuples {
					t.Errorf("case %d limit %d reverse %v: charged %d tuples, hash join %d",
						i, limit, reverse, tuples, w.Tuples)
				}
			}
		}
	}
}

// TestExecEdgeHashOverExtentBuildsNothing: a hash join whose inner still is
// its index extent allocates no build. The build's map and arrays are
// recycled across calls, so in steady state a build costs no allocation and
// no allocation guard would see one; here a collection empties the free
// list before each join, and the hash join must then allocate no more
// objects than the nested-loop index join, which probes the same index.
func TestExecEdgeHashOverExtentBuildsNothing(t *testing.T) {
	f := newFixture(t)
	e := f.g.Edges[f.eJoin]
	mallocs := func(alg ops.JoinAlg) uint64 {
		least := ^uint64(0)
		for range 5 {
			r := NewRunner(f.env, f.g)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := r.ExecEdge(e, false, alg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	if hash, nl := mallocs(ops.JoinHash), mallocs(ops.JoinNLIndex); hash > nl {
		t.Errorf("the hash join over the extent allocated %d objects, the index join %d: it builds", hash, nl)
	}
}

func TestProjectReduceDropsDeadColumns(t *testing.T) {
	f := newFixture(t)
	r := NewRunner(f.env, f.g)
	r.EnableProjectReduce([]int{f.person, f.article})
	order := []int{f.eRootPerson, f.ePersonName, f.eNameText, f.eRootArticle, f.eArticleAuthor, f.eAuthorText, f.eJoin}
	for _, id := range order {
		if _, err := r.ExecEdge(f.g.Edges[id], false, ops.JoinHash); err != nil {
			t.Fatal(err)
		}
	}
	rel, err := r.FinalRelation([]int{f.person, f.article})
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != wantRows {
		t.Errorf("rows = %d, want %d", rel.NumRows(), wantRows)
	}
	// After all edges ran, only tail-needed columns should remain.
	if rel.NumCols() > 4 {
		t.Errorf("reduce left %d columns (%v)", rel.NumCols(), rel.ColumnIDs())
	}
	if !rel.HasColumn(f.person) || !rel.HasColumn(f.article) {
		t.Errorf("reduce dropped required columns: %v", rel.ColumnIDs())
	}
}

func TestRunnerRemainingEdges(t *testing.T) {
	f := newFixture(t)
	r := NewRunner(f.env, f.g)
	initial := len(r.RemainingEdges())
	// Redundant root edges are excluded.
	if initial != 5 {
		t.Errorf("remaining = %d, want 5 (7 edges - 2 redundant)", initial)
	}
	if _, err := r.ExecEdge(f.g.Edges[f.eJoin], false, ops.JoinHash); err != nil {
		t.Fatal(err)
	}
	if got := len(r.RemainingEdges()); got != initial-1 {
		t.Errorf("remaining after exec = %d, want %d", got, initial-1)
	}
	if !r.Executed(f.eJoin) {
		t.Errorf("Executed not tracking")
	}
}
