package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/index"
	"repro/internal/joingraph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/xmltree"
)

// authorDoc builds <journal><article><author>name</author></article>…</journal>.
func authorDoc(name string, authors []string) *xmltree.Document {
	b := xmltree.NewBuilder(name)
	b.StartElem("journal")
	for _, a := range authors {
		b.StartElem("article")
		b.StartElem("author")
		b.Text(a)
		b.EndElem()
		b.EndElem()
	}
	b.EndElem()
	return b.MustBuild()
}

// dblpFixture wires N author documents into the paper's DBLP-style query:
// authors appearing in all N documents (Fig 4).
type dblpFixture struct {
	env    *plan.Env
	g      *joingraph.Graph
	tail   *plan.Tail
	author []int // author element vertex per doc
	text   []int // text vertex per doc
	joins  []int // join edge ids (star on text[0] before closure)
	steps  []int // author→text step edge ids
}

func newDBLPFixture(t *testing.T, authorSets [][]string, closure bool) *dblpFixture {
	t.Helper()
	env := plan.NewEnv(metrics.NewRecorder(), 7)
	g := joingraph.New()
	f := &dblpFixture{env: env, g: g}
	for i, as := range authorSets {
		name := fmt.Sprintf("doc%d", i)
		env.AddDocument(authorDoc(name, as))
		root := g.AddRoot(name)
		author := g.AddElem(name, "author")
		text := g.AddText(name, joingraph.NoPred)
		g.AddStep(root, author, ops.AxisDesc)
		f.steps = append(f.steps, g.AddStep(author, text, ops.AxisChild))
		f.author = append(f.author, author)
		f.text = append(f.text, text)
	}
	for i := 1; i < len(authorSets); i++ {
		f.joins = append(f.joins, g.AddJoin(f.text[0], f.text[i]))
	}
	if closure {
		if _, err := g.AddJoinEquivalences(math.MaxInt); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	f.tail = &plan.Tail{Project: f.author, Final: []int{f.author[0]}}
	return f
}

func seq(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

func TestROXMatchesStaticPlan(t *testing.T) {
	mk := func() *dblpFixture {
		return newDBLPFixture(t, [][]string{
			append(seq("x", 30), "ann", "bob", "cid"),
			append(seq("y", 40), "ann", "bob"),
			append(seq("z", 20), "ann", "cid"),
		}, false)
	}

	// Static reference: execute edges in declaration order.
	f1 := mk()
	var steps []plan.Step
	for _, e := range f1.g.Edges {
		if plan.RedundantEdges(f1.g)[e.ID] {
			continue
		}
		steps = append(steps, plan.Step{EdgeID: e.ID, Alg: ops.JoinHash})
	}
	want, _, err := plan.Run(f1.env, f1.g, &plan.Plan{Steps: steps}, f1.tail)
	if err != nil {
		t.Fatalf("static plan: %v", err)
	}

	// ROX run.
	f2 := mk()
	got, res, err := Run(f2.env, f2.g, f2.tail, DefaultOptions())
	if err != nil {
		t.Fatalf("ROX: %v", err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("ROX rows = %d, static = %d", got.NumRows(), want.NumRows())
	}
	// Both outputs are tail-sorted; compare cell by cell.
	for i := 0; i < want.NumRows(); i++ {
		if got.Column(f2.author[0])[i] != want.Column(f1.author[0])[i] {
			t.Fatalf("row %d: ROX %v, static %v", i, got.Row(i), want.Row(i))
		}
	}
	if res.ResultRows != got.NumRows() {
		t.Errorf("Result.ResultRows = %d, want %d", res.ResultRows, got.NumRows())
	}
	// Only "ann" appears in all three docs → 1 author element of doc0.
	if got.NumRows() != 1 {
		t.Errorf("expected exactly 1 result row, got %d", got.NumRows())
	}
}

func TestROXPlanReexecutable(t *testing.T) {
	mk := func() *dblpFixture {
		return newDBLPFixture(t, [][]string{
			append(seq("x", 25), "ann"),
			append(seq("y", 25), "ann"),
		}, false)
	}
	f := mk()
	rel, res, err := Run(f.env, f.g, f.tail, DefaultOptions())
	if err != nil {
		t.Fatalf("ROX: %v", err)
	}
	// The extracted plan must cover the graph and reproduce the result.
	f2 := mk()
	if err := res.Plan.Covers(f2.g); err != nil {
		t.Fatalf("ROX plan does not cover graph: %v", err)
	}
	rel2, _, err := plan.Run(f2.env, f2.g, &res.Plan, f2.tail)
	if err != nil {
		t.Fatalf("re-execute ROX plan: %v", err)
	}
	if rel2.NumRows() != rel.NumRows() {
		t.Errorf("pure plan rows = %d, ROX rows = %d", rel2.NumRows(), rel.NumRows())
	}
}

func TestROXSkipsImpliedJoins(t *testing.T) {
	// Complete join-equivalence closure over 4 docs: 6 join edges, but only
	// 3 (a spanning tree) need executing.
	f := newDBLPFixture(t, [][]string{
		append(seq("a", 20), "ann"),
		append(seq("b", 20), "ann"),
		append(seq("c", 20), "ann"),
		append(seq("d", 5), "ann"),
	}, true)
	if got := len(f.g.JoinEdges(true)); got != 6 {
		t.Fatalf("fixture has %d join edges, want 6", got)
	}
	opts := DefaultOptions()
	opts.Trace = true // the implied edges are in the trace only
	_, res, err := Run(f.env, f.g, f.tail, opts)
	if err != nil {
		t.Fatalf("ROX: %v", err)
	}
	execJoins := 0
	for _, id := range res.Plan.EdgeIDs() {
		if f.g.Edges[id].Kind == joingraph.JoinEdge {
			execJoins++
		}
	}
	if execJoins != 3 {
		t.Errorf("executed %d join edges, want 3 (spanning tree)", execJoins)
	}
	if got := len(res.Trace.ImpliedEdges()); got != 3 {
		t.Errorf("implied %d join edges, want 3", got)
	}
}

func TestROXAvoidsExpensiveJoinOrder(t *testing.T) {
	// doc0 and doc1 share 400 authors (high correlation); doc2 shares only
	// 2 with them. Joining doc2 in early keeps intermediates tiny; the
	// (doc0 ⋈ doc1) start would produce 400 rows first. ROX must avoid
	// executing text0=text1 before a doc2 join.
	shared := seq("s", 400)
	f := newDBLPFixture(t, [][]string{
		append(append([]string{}, shared...), "ann", "u1", "u2"),
		append(append([]string{}, shared...), "ann", "v1"),
		{"ann", "w1", "zed"},
	}, true)
	_, res, err := Run(f.env, f.g, f.tail, DefaultOptions())
	if err != nil {
		t.Fatalf("ROX: %v", err)
	}
	// Identify the expensive join (text0 = text1, the first join edge).
	expensive := f.joins[0]
	order := res.Plan.EdgeIDs()
	if len(order) == 0 {
		t.Fatal("ROX executed no edge")
	}
	for _, id := range order {
		e := f.g.Edges[id]
		if e.Kind != joingraph.JoinEdge {
			continue
		}
		if id == expensive {
			t.Errorf("ROX executed the high-correlation join text0=text1 before any doc2 join\norder: %v", order)
		}
		break // first join executed decides
	}
	// Cumulative intermediates should stay near the small document's scale,
	// far below the 400-row blowup.
	if res.CumulativeIntermediate > 200 {
		t.Errorf("cumulative intermediate = %d, expected < 200", res.CumulativeIntermediate)
	}
}

func TestROXDeterministicGivenSeed(t *testing.T) {
	mk := func() *dblpFixture {
		return newDBLPFixture(t, [][]string{
			append(seq("x", 50), "ann", "bob"),
			append(seq("y", 30), "ann", "bob"),
			append(seq("z", 10), "ann"),
		}, true)
	}
	f1, f2 := mk(), mk()
	_, r1, err := Run(f1.env, f1.g, f1.tail, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := Run(f2.env, f2.g, f2.tail, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	o1, o2 := r1.Plan.EdgeIDs(), r2.Plan.EdgeIDs()
	if len(o1) == 0 {
		t.Fatal("ROX executed no edge")
	}
	if len(o1) != len(o2) {
		t.Fatalf("orders differ in length: %v vs %v", o1, o2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("orders diverge at %d: %v vs %v", i, o1, o2)
		}
	}
}

func TestROXSamplingCostSeparated(t *testing.T) {
	f := newDBLPFixture(t, [][]string{
		append(seq("x", 60), "ann"),
		append(seq("y", 60), "ann"),
	}, false)
	_, res, err := Run(f.env, f.g, f.tail, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleCost.Tuples == 0 {
		t.Errorf("no sampling cost recorded")
	}
	if res.ExecCost.Tuples == 0 {
		t.Errorf("no execution cost recorded")
	}
}

func TestROXAblations(t *testing.T) {
	cases := map[string]Options{
		"greedy":      {Tau: 100, Greedy: true},
		"noresample":  {Tau: 100, NoResample: true},
		"fixedcutoff": {Tau: 100, FixedCutoff: true},
		"noreorder":   {Tau: 100, NoPathReorder: true},
		"smalltau":    {Tau: 5},
	}
	for name, opt := range cases {
		t.Run(name, func(t *testing.T) {
			f := newDBLPFixture(t, [][]string{
				append(seq("x", 30), "ann", "bob"),
				append(seq("y", 20), "ann", "bob"),
				append(seq("z", 8), "ann"),
			}, true)
			rel, _, err := Run(f.env, f.g, f.tail, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rel.NumRows() != 1 { // only ann in all three
				t.Errorf("%s: rows = %d, want 1", name, rel.NumRows())
			}
		})
	}
}

func TestROXTraceExplorations(t *testing.T) {
	f := newDBLPFixture(t, [][]string{
		append(seq("x", 40), "ann", "bob"),
		append(seq("y", 30), "ann", "bob"),
		append(seq("z", 12), "ann", "bob"),
	}, true)
	opts := DefaultOptions()
	opts.Trace = true
	_, res, err := Run(f.env, f.g, f.tail, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Explorations) == 0 {
		t.Fatalf("no chain-sampling explorations recorded")
	}
	sawRound := false
	for _, ex := range res.Trace.Explorations {
		if len(ex.Rounds) > 0 {
			sawRound = true
			if len(ex.Chosen) == 0 {
				t.Errorf("exploration with rounds but no choice")
			}
			tbl := ex.FormatTable2()
			if len(tbl) == 0 {
				t.Errorf("FormatTable2 empty")
			}
		}
	}
	if !sawRound {
		t.Errorf("no exploration performed any sampling rounds")
	}
	if res.Trace.String() == "" {
		t.Errorf("trace renders empty")
	}
}

func TestROXEmptyResult(t *testing.T) {
	// Disjoint author sets: result must be empty, and ROX must notice the
	// emptiness early (cumulative intermediates stay tiny).
	f := newDBLPFixture(t, [][]string{
		seq("x", 100),
		seq("y", 100),
	}, false)
	rel, res, err := Run(f.env, f.g, f.tail, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 0 {
		t.Errorf("rows = %d, want 0", rel.NumRows())
	}
	if res.CumulativeIntermediate > 250 {
		t.Errorf("cumulative intermediate = %d for an empty result", res.CumulativeIntermediate)
	}
}

func TestROXSingleEdgeGraph(t *testing.T) {
	env := plan.NewEnv(metrics.NewRecorder(), 1)
	env.AddDocument(authorDoc("d", []string{"ann", "bob"}))
	g := joingraph.New()
	author := g.AddElem("d", "author")
	text := g.AddText("d", joingraph.NoPred)
	g.AddStep(author, text, ops.AxisChild)
	tail := &plan.Tail{Project: []int{author}, Final: []int{author}}
	rel, _, err := Run(env, g, tail, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", rel.NumRows())
	}
}

func TestROXRangePredicateVertex(t *testing.T) {
	// <item><price>N</price></item>: select items with price < 50.
	b := xmltree.NewBuilder("shop")
	b.StartElem("shop")
	for i := 0; i < 100; i++ {
		b.StartElem("item")
		b.StartElem("price")
		b.Text(fmt.Sprintf("%d", i))
		b.EndElem()
		b.EndElem()
	}
	b.EndElem()
	env := plan.NewEnv(metrics.NewRecorder(), 3)
	env.AddDocument(b.MustBuild())

	g := joingraph.New()
	item := g.AddElem("shop", "item")
	price := g.AddElem("shop", "price")
	ptext := g.AddText("shop", joingraph.RangePred(index.Lt, 50))
	g.AddStep(item, price, ops.AxisChild)
	g.AddStep(price, ptext, ops.AxisChild)
	tail := &plan.Tail{Project: []int{item}, Final: []int{item}}
	rel, _, err := Run(env, g, tail, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 50 {
		t.Errorf("rows = %d, want 50", rel.NumRows())
	}
}

func TestInvalidOptions(t *testing.T) {
	env := plan.NewEnv(nil, 1)
	g := joingraph.New()
	if _, err := New(env, g, Options{Tau: 0}); err == nil {
		t.Errorf("Tau=0 should be rejected")
	}
}

func TestRunInvalidGraph(t *testing.T) {
	env := plan.NewEnv(nil, 1)
	g := joingraph.New()
	a := g.AddElem("d", "a")
	b2 := g.AddElem("d", "b")
	g.AddJoin(a, b2) // invalid: join between element vertices
	if _, _, err := Run(env, g, nil, DefaultOptions()); err == nil {
		t.Errorf("invalid graph should fail")
	}
}

func TestSuperiorConditions(t *testing.T) {
	mk := func(cost, sf float64, edge int) pathState {
		return pathState{edges: []int{edge}, cost: cost, sf: sf}
	}
	// The paper's example: executing pi halves pj (sf=0.5), pi costs 400,
	// pj costs 1000: 400 + 0.5*1000 = 900 ≤ 1000 → pi superior.
	paths := []pathState{mk(400, 0.5, 1), mk(1000, 1.0, 2)}
	if got := superiorStrict(paths); got == nil || got.edges[0] != 1 {
		t.Errorf("superiorStrict should pick the reducing path")
	}
	// No strict winner when both are neutral and similar.
	paths = []pathState{mk(900, 1.0, 1), mk(1000, 1.0, 2)}
	if got := superiorStrict(paths); got != nil {
		t.Errorf("superiorStrict should find no winner, got %v", got.edges)
	}
	// Final comparison picks the one with smaller mutual cost.
	if got := superiorFinal(paths); got == nil || got.edges[0] != 1 {
		t.Errorf("superiorFinal should pick the cheaper path")
	}
}

// TestTable2Shape reproduces the mechanics of Table 2: with a branching
// vertex, chain sampling runs several rounds and cost grows monotonically
// per path while cutoff grows.
func TestTable2Shape(t *testing.T) {
	f := newDBLPFixture(t, [][]string{
		append(seq("x", 200), "ann", "bob", "cid"),
		append(seq("y", 150), "ann", "bob"),
		append(seq("z", 100), "ann", "cid"),
		append(seq("w", 50), "ann"),
	}, true)
	opts := DefaultOptions()
	opts.Trace = true
	_, res, err := Run(f.env, f.g, f.tail, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Explorations) == 0 {
		t.Fatal("no chain-sampling explorations recorded")
	}
	for _, ex := range res.Trace.Explorations {
		// Costs of a surviving path never shrink between rounds.
		last := map[string]float64{}
		for _, r := range ex.Rounds {
			for _, p := range r.Paths {
				key := fmt.Sprint(p.Edges)
				if prevCost, ok := last[key]; ok && p.Cost < prevCost-1e-9 {
					t.Errorf("path %s cost shrank: %f → %f", key, prevCost, p.Cost)
				}
				last[key] = p.Cost
			}
		}
	}
}
