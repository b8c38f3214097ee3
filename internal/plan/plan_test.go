package plan

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/joingraph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/table"
	"repro/internal/xmltree"
)

// fixture builds two documents and the Join Graph of
//
//	for $p in doc("d1")//person/name/text(),
//	    $a in doc("d2")//article/author/text()
//	where $p = $a return ($p, $a)
type fixture struct {
	env  *Env
	g    *joingraph.Graph
	tail *Tail
	// vertex ids
	root1, person, name, ptext    int
	root2, article, author, atext int
	// edge ids
	eRootPerson, ePersonName, eNameText              int
	eRootArticle, eArticleAuthor, eAuthorText, eJoin int
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	d1, err := xmltree.ParseString("d1", `<people>
		<person><name>ann</name></person>
		<person><name>bob</name></person>
		<person><name>cid</name></person>
		<person><name>ann</name></person>
	</people>`)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := xmltree.ParseString("d2", `<articles>
		<article><author>ann</author><author>bob</author></article>
		<article><author>bob</author></article>
		<article><author>dee</author></article>
	</articles>`)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(metrics.NewRecorder(), 1)
	env.AddDocument(d1)
	env.AddDocument(d2)

	g := joingraph.New()
	f := &fixture{env: env, g: g}
	f.root1 = g.AddRoot("d1")
	f.person = g.AddElem("d1", "person")
	f.name = g.AddElem("d1", "name")
	f.ptext = g.AddText("d1", joingraph.NoPred)
	f.root2 = g.AddRoot("d2")
	f.article = g.AddElem("d2", "article")
	f.author = g.AddElem("d2", "author")
	f.atext = g.AddText("d2", joingraph.NoPred)

	f.eRootPerson = g.AddStep(f.root1, f.person, ops.AxisDesc)
	f.ePersonName = g.AddStep(f.person, f.name, ops.AxisChild)
	f.eNameText = g.AddStep(f.name, f.ptext, ops.AxisChild)
	f.eRootArticle = g.AddStep(f.root2, f.article, ops.AxisDesc)
	f.eArticleAuthor = g.AddStep(f.article, f.author, ops.AxisChild)
	f.eAuthorText = g.AddStep(f.author, f.atext, ops.AxisChild)
	f.eJoin = g.AddJoin(f.ptext, f.atext)

	if err := g.Validate(); err != nil {
		t.Fatalf("fixture graph invalid: %v", err)
	}
	f.tail = &Tail{Project: []int{f.person, f.article}, Final: []int{f.person, f.article}}
	return f
}

// expected result: persons joined to articles via equal name/author text.
// ann(p0), ann(p3) × article0; bob(p1) × article0, article1.
// distinct (person, article) pairs: (p0,a0),(p3,a0),(p1,a0),(p1,a1) = 4.
const wantRows = 4

func (f *fixture) planSteps(order []int) *Plan {
	steps := make([]Step, len(order))
	for i, e := range order {
		steps[i] = Step{EdgeID: e, Alg: ops.JoinHash}
	}
	return &Plan{Steps: steps}
}

func TestRunForwardOrder(t *testing.T) {
	f := newFixture(t)
	p := f.planSteps([]int{f.eRootPerson, f.ePersonName, f.eNameText, f.eRootArticle, f.eArticleAuthor, f.eAuthorText, f.eJoin})
	rel, stats, err := Run(f.env, f.g, p, f.tail)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rel.NumRows() != wantRows {
		t.Errorf("result rows = %d, want %d", rel.NumRows(), wantRows)
	}
	if stats.CumulativeIntermediate <= 0 {
		t.Errorf("no intermediate accounting")
	}
}

// TestPlanOrderInvariance is the core correctness property behind ROX: any
// execution order of the Join Graph edges yields the same final relation.
func TestPlanOrderInvariance(t *testing.T) {
	f := newFixture(t)
	orders := [][]int{
		{f.eRootPerson, f.ePersonName, f.eNameText, f.eRootArticle, f.eArticleAuthor, f.eAuthorText, f.eJoin},
		{f.eJoin, f.eNameText, f.ePersonName, f.eRootPerson, f.eAuthorText, f.eArticleAuthor, f.eRootArticle},
		{f.eNameText, f.eJoin, f.eAuthorText, f.eArticleAuthor, f.ePersonName, f.eRootPerson, f.eRootArticle},
		{f.eArticleAuthor, f.eAuthorText, f.eJoin, f.eNameText, f.ePersonName, f.eRootArticle, f.eRootPerson},
	}
	var want [][]xmltree.NodeID
	for oi, order := range orders {
		f2 := newFixture(t)
		p := f2.planSteps(order)
		rel, _, err := Run(f2.env, f2.g, p, f2.tail)
		if err != nil {
			t.Fatalf("order %d: %v", oi, err)
		}
		var got [][]xmltree.NodeID
		for i := 0; i < rel.NumRows(); i++ {
			got = append(got, rel.Row(i))
		}
		if oi == 0 {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("order %d: %d rows, want %d", oi, len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				if got[i][c] != want[i][c] {
					t.Fatalf("order %d row %d differs: %v vs %v", oi, i, got[i], want[i])
				}
			}
		}
	}
}

func TestReverseEdgeExecution(t *testing.T) {
	// Executing steps in reverse direction must not change the result.
	f := newFixture(t)
	p := &Plan{Steps: []Step{
		{EdgeID: f.eRootPerson},
		{EdgeID: f.ePersonName, Reverse: true},
		{EdgeID: f.eNameText, Reverse: true},
		{EdgeID: f.eRootArticle},
		{EdgeID: f.eArticleAuthor, Reverse: true},
		{EdgeID: f.eAuthorText},
		{EdgeID: f.eJoin, Reverse: true, Alg: ops.JoinNLIndex},
	}}
	rel, _, err := Run(f.env, f.g, p, f.tail)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rel.NumRows() != wantRows {
		t.Errorf("result rows = %d, want %d", rel.NumRows(), wantRows)
	}
}

func TestJoinAlgorithmsGiveSameResult(t *testing.T) {
	for _, alg := range []ops.JoinAlg{ops.JoinHash, ops.JoinMerge, ops.JoinNLIndex} {
		f := newFixture(t)
		p := &Plan{Steps: []Step{
			{EdgeID: f.eRootPerson}, {EdgeID: f.ePersonName}, {EdgeID: f.eNameText},
			{EdgeID: f.eRootArticle}, {EdgeID: f.eArticleAuthor}, {EdgeID: f.eAuthorText},
			{EdgeID: f.eJoin, Alg: alg},
		}}
		rel, _, err := Run(f.env, f.g, p, f.tail)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if rel.NumRows() != wantRows {
			t.Errorf("%v: result rows = %d, want %d", alg, rel.NumRows(), wantRows)
		}
	}
}

func TestSemijoinReduction(t *testing.T) {
	f := newFixture(t)
	r := NewRunner(f.env, f.g)
	// person table starts at 4.
	pt, err := r.EnsureTable(f.person)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Len() != 4 {
		t.Fatalf("person table = %d, want 4", pt.Len())
	}
	// Execute person/name, name/text, text=text: persons shrink to those
	// whose name matches an author ({ann, ann, bob} → 3 persons).
	for _, e := range []int{f.ePersonName, f.eNameText, f.eJoin} {
		if _, err := r.ExecEdge(f.g.Edges[e], false, ops.JoinHash); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Card(f.person); got != 3 {
		t.Errorf("person table after reduction = %d, want 3", got)
	}
	if got := r.Card(f.atext); got != 3 { // ann, bob, bob author texts
		t.Errorf("author text table after reduction = %d, want 3", got)
	}
}

func TestPairsForSampling(t *testing.T) {
	f := newFixture(t)
	r := NewRunner(f.env, f.g)
	pt, _ := r.EnsureTable(f.person)
	nt, _ := r.EnsureTable(f.name)
	// Sample 2 persons, step to names: each person has exactly 1 name.
	sample := pt.Sample(2, f.env.Rand)
	pairs, consumed, err := r.PairsFor(f.g.Edges[f.ePersonName], f.person, sample, nt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != 2 || pairs.Len() != 2 {
		t.Errorf("sampled step: %d pairs from %d consumed, want 2/2", pairs.Len(), consumed)
	}
	est := ops.EstimateFull(pairs.Len(), consumed, pt.Len())
	if est != 4 {
		t.Errorf("extrapolated cardinality = %v, want 4", est)
	}
	// Wrong vertex: error.
	if _, _, err := r.PairsFor(f.g.Edges[f.ePersonName], f.atext, sample, nt, 0); err == nil {
		t.Errorf("PairsFor with off-edge vertex should fail")
	}
}

func TestCoversDetectsMissingAndDuplicate(t *testing.T) {
	f := newFixture(t)
	p := f.planSteps([]int{f.eRootPerson, f.ePersonName})
	if err := p.Covers(f.g); err == nil {
		t.Errorf("incomplete plan passed Covers")
	}
	dup := f.planSteps([]int{f.eJoin, f.eJoin})
	if err := dup.Covers(f.g); err == nil {
		t.Errorf("duplicate plan passed Covers")
	}
}

func TestRedundantEdges(t *testing.T) {
	f := newFixture(t)
	red := RedundantEdges(f.g)
	if !red[f.eRootPerson] || !red[f.eRootArticle] {
		t.Errorf("root descendant edges should be redundant: %v", red)
	}
	if red[f.ePersonName] || red[f.eJoin] {
		t.Errorf("non-root edges marked redundant: %v", red)
	}

	// A root edge holding the only reference to its target is not redundant.
	g2 := joingraph.New()
	r2 := g2.AddRoot("d1")
	a2 := g2.AddElem("d1", "person")
	g2.AddStep(r2, a2, ops.AxisDesc)
	if red2 := RedundantEdges(g2); slices.Contains(red2, true) {
		t.Errorf("sole root edge marked redundant")
	}
}

func TestRunWithoutRedundantRootEdges(t *testing.T) {
	// Skipping the root// edges must not change the result.
	f := newFixture(t)
	p := f.planSteps([]int{f.ePersonName, f.eNameText, f.eArticleAuthor, f.eAuthorText, f.eJoin})
	rel, _, err := Run(f.env, f.g, p, f.tail)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rel.NumRows() != wantRows {
		t.Errorf("result rows = %d, want %d", rel.NumRows(), wantRows)
	}
}

func TestTailDistinctAndOrder(t *testing.T) {
	f := newFixture(t)
	p := f.planSteps([]int{f.ePersonName, f.eNameText, f.eArticleAuthor, f.eAuthorText, f.eJoin})
	rel, _, err := Run(f.env, f.g, p, f.tail)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted by person node id, then article: verify monotone person column.
	col := rel.Column(f.person)
	for i := 1; i < len(col); i++ {
		prev, cur := col[i-1], col[i]
		if prev > cur {
			t.Errorf("tail order violated at %d: %d > %d", i, prev, cur)
		}
	}
	// No duplicate (person, article) pairs.
	seen := map[[2]xmltree.NodeID]bool{}
	ac := rel.Column(f.article)
	for i := 0; i < rel.NumRows(); i++ {
		k := [2]xmltree.NodeID{col[i], ac[i]}
		if seen[k] {
			t.Errorf("duplicate row %v", k)
		}
		seen[k] = true
	}
}

func TestFinalRelationErrors(t *testing.T) {
	f := newFixture(t)
	r := NewRunner(f.env, f.g)
	if _, err := r.FinalRelation(nil); err == nil {
		t.Errorf("FinalRelation(nil) should fail")
	}
	if _, err := r.FinalRelation([]int{f.person, f.article}); err == nil {
		t.Errorf("FinalRelation before execution should fail")
	}
	// Single vertex lift.
	rel, err := r.FinalRelation([]int{f.person})
	if err != nil {
		t.Fatalf("single-vertex lift: %v", err)
	}
	if rel.NumRows() != 4 {
		t.Errorf("lifted relation rows = %d, want 4", rel.NumRows())
	}
}

func TestVertexTableKinds(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		v    int
		want int
	}{
		{f.root1, 1},
		{f.person, 4},
		{f.ptext, 4}, // 4 name texts
		{f.atext, 4}, // 4 author texts
		{f.author, 4},
	}
	for _, c := range cases {
		tb, err := f.env.VertexTable(f.g.Vertices[c.v])
		if err != nil {
			t.Fatalf("VertexTable(%d): %v", c.v, err)
		}
		if tb.Len() != c.want {
			t.Errorf("VertexTable(%s) = %d nodes, want %d", f.g.Vertices[c.v].Label(), tb.Len(), c.want)
		}
	}
}

func TestVertexTableWithPredicates(t *testing.T) {
	d, err := xmltree.ParseString("p", `<r><v a="5">5</v><v a="7">7</v><v a="9">9</v></r>`)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(nil, 1)
	env.AddDocument(d)
	g := joingraph.New()
	teq := g.AddText("p", joingraph.EqPred("7"))
	trange := g.AddText("p", joingraph.RangePred(index.Lt, 9))
	aeq := g.AddAttr("p", "a", joingraph.EqPred("5"))
	arange := g.AddAttr("p", "a", joingraph.RangePred(index.Gt, 5))

	want := map[int]int{teq: 1, trange: 2, aeq: 1, arange: 2}
	for v, n := range want {
		tb, err := env.VertexTable(g.Vertices[v])
		if err != nil {
			t.Fatal(err)
		}
		if tb.Len() != n {
			t.Errorf("VertexTable(%s) = %d, want %d", g.Vertices[v].Label(), tb.Len(), n)
		}
	}
}

func TestUnknownDocumentFails(t *testing.T) {
	env := NewEnv(nil, 1)
	g := joingraph.New()
	v := g.AddElem("missing", "x")
	if _, err := env.VertexTable(g.Vertices[v]); err == nil {
		t.Errorf("VertexTable over unregistered doc should fail")
	}
}

func TestTailRequired(t *testing.T) {
	f := newFixture(t)
	tl := &Tail{Project: []int{f.person}, Final: []int{f.person}}
	req := tl.Required(f.g)
	if len(req) != 1 || req[0] != f.person {
		t.Errorf("Required = %v", req)
	}
	var nilTail *Tail
	all := nilTail.Required(f.g)
	if len(all) != 6 { // all non-root vertices
		t.Errorf("nil tail Required = %v", all)
	}
	// Applying a nil tail is the identity.
	rel := table.FromTable(f.person, table.NewTable(nil, []xmltree.NodeID{1}))
	if got, _, _ := nilTail.Execute(rel); got != rel {
		t.Errorf("nil tail should be identity")
	}
}

// TestRunRecordsEdgeRows: every executed step's intermediate cardinality is
// observable in RunStats — the raw material of plan-cache drift detection.
func TestRunRecordsEdgeRows(t *testing.T) {
	f := newFixture(t)
	order := []int{f.eRootPerson, f.ePersonName, f.eNameText, f.eRootArticle, f.eArticleAuthor, f.eAuthorText, f.eJoin}
	p := f.planSteps(order)
	_, stats, err := Run(f.env, f.g, p, f.tail)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.EdgeRows) != len(order) {
		t.Fatalf("EdgeRows has %d entries, want %d: %v", len(stats.EdgeRows), len(order), stats.EdgeRows)
	}
	for _, e := range order {
		if stats.EdgeRows[e] <= 0 {
			t.Errorf("edge %d recorded %d rows, want > 0", e, stats.EdgeRows[e])
		}
	}
	// 4 persons, 4 names: the first two steps keep all pairs.
	if stats.EdgeRows[f.eRootPerson] != 4 || stats.EdgeRows[f.ePersonName] != 4 {
		t.Errorf("step cardinalities = %d, %d, want 4, 4",
			stats.EdgeRows[f.eRootPerson], stats.EdgeRows[f.ePersonName])
	}
}

// TestRunWithConfigEagerProject: the replay variant with projection push-down
// must produce the same relation as the plain run.
func TestRunWithConfigEagerProject(t *testing.T) {
	f := newFixture(t)
	order := []int{f.eRootPerson, f.ePersonName, f.eNameText, f.eRootArticle, f.eArticleAuthor, f.eAuthorText, f.eJoin}
	rel, stats, err := RunWithConfig(f.env, f.g, f.planSteps(order), f.tail, RunConfig{EagerProject: true})
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != wantRows {
		t.Errorf("eager-project rows = %d, want %d", rel.NumRows(), wantRows)
	}
	if len(stats.EdgeRows) != len(order) {
		t.Errorf("EdgeRows entries = %d, want %d", len(stats.EdgeRows), len(order))
	}
}

// TestReplayHintsSetCapacityOnly: a replay's Expected cardinalities only
// reserve pair buffers. No hint, a short one, the exact one and an oversized
// one give identical relations, RunStats and charges, in edge orders that
// start one component or two, with and without eager projection.
func TestReplayHintsSetCapacityOnly(t *testing.T) {
	probe := newFixture(t)
	orders := [][]int{
		{probe.eRootPerson, probe.ePersonName, probe.eNameText, probe.eRootArticle, probe.eArticleAuthor, probe.eAuthorText, probe.eJoin},
		{probe.eJoin, probe.eNameText, probe.ePersonName, probe.eAuthorText, probe.eArticleAuthor},
		{probe.eArticleAuthor, probe.eAuthorText, probe.eJoin, probe.eNameText, probe.ePersonName},
	}
	scaled := func(m map[int]int, f func(int) int) map[int]int {
		out := make(map[int]int, len(m))
		for id, n := range m {
			out[id] = f(n)
		}
		return out
	}
	for oi, order := range orders {
		for _, eager := range []bool{false, true} {
			run := func(hints map[int]int) (*table.Relation, *RunStats, int64) {
				env := NewQueryEnv(probe.env.Catalog(), metrics.NewRecorder(), 1)
				rel, stats, err := RunWithConfig(env, probe.g, probe.planSteps(order), probe.tail, RunConfig{EagerProject: eager, Expected: hints})
				if err != nil {
					t.Fatal(err)
				}
				return rel, stats, env.Rec.Total().Tuples
			}
			want, wantStats, wantTuples := run(nil)
			exact := wantStats.EdgeRows
			for name, hints := range map[string]map[int]int{
				"short":     scaled(exact, func(n int) int { return n / 2 }),
				"exact":     exact,
				"oversized": scaled(exact, func(n int) int { return 8*n + 100 }),
				"negative":  scaled(exact, func(int) int { return -1 }),
			} {
				got, stats, tuples := run(hints)
				if err := sameRelation(got, want); err != nil {
					t.Errorf("order %d eager %v, %s hint: %v", oi, eager, name, err)
				}
				if stats.CumulativeIntermediate != wantStats.CumulativeIntermediate || stats.ResultRows != wantStats.ResultRows ||
					stats.Scanned != wantStats.Scanned || !maps.Equal(stats.EdgeRows, wantStats.EdgeRows) || tuples != wantTuples {
					t.Errorf("order %d eager %v, %s hint: stats %+v charged %d, want %+v charged %d",
						oi, eager, name, stats, tuples, wantStats, wantTuples)
				}
			}
		}
	}

	// A hint reserves no more than the edge's two input tables hold.
	r := NewRunner(probe.env, probe.g)
	r.hints = map[int]int{probe.eJoin: 1 << 40}
	if buf := r.pairBuffer(probe.eJoin, probe.ptext, probe.atext, 7); cap(buf.C) != 7 || cap(buf.S) != 7 {
		t.Errorf("a hint of 1<<40 over 7 input nodes reserved %d and %d pairs", cap(buf.C), cap(buf.S))
	}
}

func TestCatalogCollections(t *testing.T) {
	mk := func(name string) *index.Index {
		d, err := xmltree.ParseString(name, `<r><x>1</x></r>`)
		if err != nil {
			t.Fatal(err)
		}
		return index.New(d)
	}
	cat := NewCatalog()
	cat.AddCollectionShard("c", mk("s0.xml"))
	cat.AddCollectionShard("c", mk("s1.xml"))
	col, err := cat.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	if got := col.ShardNames(); len(got) != 2 || got[0] != "s0.xml" || got[1] != "s1.xml" {
		t.Fatalf("shards = %v", got)
	}
	gen0, gen1 := col.Shards[0].Gen, col.Shards[1].Gen
	if gen0 == gen1 {
		t.Fatalf("shard generations must differ: %d, %d", gen0, gen1)
	}
	// Shards are plain documents too.
	if _, err := cat.Doc("s0.xml"); err != nil {
		t.Errorf("shard not addressable as document: %v", err)
	}
	if got := cat.Collections(); len(got) != 1 || got[0] != "c" {
		t.Errorf("Collections() = %v", got)
	}
	if _, err := cat.Collection("nope"); err == nil {
		t.Error("unknown collection lookup succeeded")
	} else {
		var uce *UnknownCollectionError
		if !errors.As(err, &uce) || uce.Name != "nope" {
			t.Errorf("err = %v, want UnknownCollectionError{nope}", err)
		}
	}

	// Replacing one shard in a clone bumps only that shard's stamp and never
	// shows through to the original snapshot.
	clone := cat.Clone()
	clone.AddCollectionShard("c", mk("s1.xml"))
	ccol, _ := clone.Collection("c")
	if ccol.Shards[0].Gen != gen0 {
		t.Errorf("untouched shard stamp moved: %d -> %d", gen0, ccol.Shards[0].Gen)
	}
	if ccol.Shards[1].Gen <= gen1 {
		t.Errorf("replaced shard stamp did not advance: %d -> %d", gen1, ccol.Shards[1].Gen)
	}
	if len(ccol.Shards) != 2 {
		t.Errorf("replace grew the shard list: %v", ccol.ShardNames())
	}
	ocol, _ := cat.Collection("c")
	if ocol.Shards[1].Gen != gen1 {
		t.Errorf("clone mutation leaked into the original: %d", ocol.Shards[1].Gen)
	}
	if clone.Generation() <= cat.Generation() {
		t.Errorf("catalog generation did not advance on shard replace")
	}
}
