package xquery

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/joingraph"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/xmltree"
)

// The paper's example query Q (Fig 1).
const queryQ = `
let $r := doc("auction.xml")
for $a in $r//open_auction[./reserve]/bidder//personref,
    $b in $r//person[.//education]
where $a/@person = $b/@id
return $a`

// The paper's XMark query Q1 (Sec 3.2).
const queryQ1 = `
let $d := doc("xmark.xml")
for $o in $d//open_auction[.//current/text() < 145],
    $p in $d//person[.//province],
    $i in $d//item[./quantity = 1]
where $o//bidder//personref/@person = $p/@id and $o//itemref/@item = $i/@id
return $o`

// The paper's DBLP query template (Sec 4.1).
const queryDBLP = `
for $a1 in doc("DOC1.xml")//author,
    $a2 in doc("DOC2.xml")//author,
    $a3 in doc("DOC3.xml")//author,
    $a4 in doc("DOC4.xml")//author
where $a1/text() = $a2/text() and
      $a1/text() = $a3/text() and
      $a1/text() = $a4/text()
return $a1`

func TestParsePaperQueries(t *testing.T) {
	q, err := Parse(queryQ)
	if err != nil {
		t.Fatalf("parse Q: %v", err)
	}
	if len(q.Lets) != 1 || q.Lets[0].Doc != "auction.xml" {
		t.Errorf("Q lets = %+v", q.Lets)
	}
	if len(q.Fors) != 2 || q.Fors[0].Var != "a" || q.Fors[1].Var != "b" {
		t.Errorf("Q fors = %+v", q.Fors)
	}
	if len(q.Where) != 1 || q.Where[0].RHS == nil {
		t.Errorf("Q where = %+v", q.Where)
	}
	if q.Return.Primary() != "a" || q.Return.Elem != "" || q.Return.IsAgg() {
		t.Errorf("Q return = %+v", q.Return)
	}

	q1, err := Parse(queryQ1)
	if err != nil {
		t.Fatalf("parse Q1: %v", err)
	}
	if len(q1.Fors) != 3 || len(q1.Where) != 2 {
		t.Errorf("Q1 fors=%d where=%d", len(q1.Fors), len(q1.Where))
	}
	// The [.//current/text() < 145] predicate.
	oa := q1.Fors[0].Path.Steps[0]
	if oa.Name != "open_auction" || len(oa.Preds) != 1 {
		t.Fatalf("Q1 open_auction step = %+v", oa)
	}
	if oa.Preds[0].Op != "<" || oa.Preds[0].Lit != "145" {
		t.Errorf("Q1 predicate = %+v", oa.Preds[0])
	}

	qd, err := Parse(queryDBLP)
	if err != nil {
		t.Fatalf("parse DBLP: %v", err)
	}
	if len(qd.Fors) != 4 || len(qd.Where) != 3 {
		t.Errorf("DBLP fors=%d where=%d", len(qd.Fors), len(qd.Where))
	}
}

func TestParseRoundtripString(t *testing.T) {
	q := MustParse(queryQ1)
	s := q.String()
	for _, want := range []string{"open_auction", "< 145", "quantity", "@person", "return $o"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	// The rendering must itself re-parse.
	if _, err := Parse(s); err != nil {
		t.Errorf("String() output does not reparse: %v\n%s", err, s)
	}
}

func TestCompileFigure1Shape(t *testing.T) {
	comp, err := CompileString(queryQ, CompileOptions{})
	if err != nil {
		t.Fatalf("compile Q: %v", err)
	}
	g := comp.Graph
	// Fig 1: 9 vertices (root, open_auction, reserve, bidder, personref,
	// @person, person, education, @id), 8 step edges, 1 join edge.
	if len(g.Vertices) != 9 {
		t.Errorf("vertices = %d, want 9\n%s", len(g.Vertices), g)
	}
	if got := len(g.StepEdges()); got != 8 {
		t.Errorf("step edges = %d, want 8\n%s", got, g)
	}
	if got := len(g.JoinEdges(true)); got != 1 {
		t.Errorf("join edges = %d, want 1", got)
	}
	if !g.Connected() {
		t.Errorf("graph not connected")
	}
	if comp.ReturnVar != "a" || len(comp.Docs) != 1 || comp.Docs[0] != "auction.xml" {
		t.Errorf("meta: return=%q docs=%v", comp.ReturnVar, comp.Docs)
	}
	// Tail: project/sort on ($a, $b) vertices, final on $a.
	if len(comp.Tail.Project) != 2 || comp.Tail.Project[0] != comp.Vars["a"] {
		t.Errorf("tail project = %v", comp.Tail.Project)
	}
	if len(comp.Tail.Final) != 1 || comp.Tail.Final[0] != comp.Vars["a"] {
		t.Errorf("tail final = %v", comp.Tail.Final)
	}
}

func TestCompileQ1Shape(t *testing.T) {
	comp, err := CompileString(queryQ1, CompileOptions{})
	if err != nil {
		t.Fatalf("compile Q1: %v", err)
	}
	g := comp.Graph
	// Fig 3.1 vertices: root, open_auction, current, text()<145, person,
	// province, @id, item, quantity, text()=1, @item(item), bidder,
	// personref, @person, itemref, @item(itemref) — count what we model:
	var texts, attrs int
	for _, v := range g.Vertices {
		switch v.Kind {
		case joingraph.VText:
			texts++
			if v.Pred.Kind == joingraph.PredRange && v.Pred.Num != 145 {
				t.Errorf("range pred = %+v", v.Pred)
			}
		case joingraph.VAttr:
			attrs++
		}
	}
	if texts != 2 { // text()<145 and text()=1
		t.Errorf("text vertices = %d, want 2", texts)
	}
	if attrs != 4 { // @person, @id, @item, @id(item)
		t.Errorf("attr vertices = %d, want 4", attrs)
	}
	if got := len(g.JoinEdges(true)); got != 2 {
		t.Errorf("join edges = %d, want 2", got)
	}
}

func TestCompileDBLPEquivalences(t *testing.T) {
	with, err := CompileString(queryDBLP, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// K4 closure: 3 original + 3 derived join edges (Fig 4 dotted lines).
	if got := len(with.Graph.JoinEdges(true)); got != 6 {
		t.Errorf("join edges with closure = %d, want 6", got)
	}
	without, err := CompileString(queryDBLP, CompileOptions{NoJoinEquivalences: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(without.Graph.JoinEdges(true)); got != 3 {
		t.Errorf("join edges without closure = %d, want 3", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                          // empty
		"return $a",                                 // no for
		"for $a in doc('d') return $a",              // path without steps
		"for $a in //x return $a",                   // no anchor
		"for $a in doc('d')//x return",              // missing return var
		"for $a in doc('d')//x where return $a",     // bad where
		"for $a in doc('d')//x[', return $a",        // unterminated string
		"let $a doc('d') for $b in $a//x return $b", // missing :=
		"for $a in doc('d')//x return $a extra",     // trailing tokens
		"for $a in doc('d')//x where $a/text() < 'abc' return $a", // non-numeric range
		"for $a in doc('d')//x where $a < $a return $a",           // path < path
		"for $a in doc('d')//@x return $a",                        // //@ unsupported: desc attr
	}
	for _, src := range cases {
		if _, err := CompileString(src, CompileOptions{}); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		"for $a in doc('d')//x return $b",                    // unbound return
		"for $a in doc('d')//x, $a in doc('d')//y return $a", // duplicate var
		"let $r := doc('d') for $a in $r//x return $r",       // returning root
		"for $a in $nope//x return $a",                       // unbound path var
	}
	for _, src := range cases {
		if _, err := CompileString(src, CompileOptions{}); err == nil {
			t.Errorf("expected compile error for %q", src)
		}
	}
}

// TestEndToEndROX compiles and runs a query through the whole stack.
func TestEndToEndROX(t *testing.T) {
	doc, err := xmltree.ParseString("shop.xml", `<shop>
		<item id="i1"><quantity>1</quantity><price>10</price></item>
		<item id="i2"><quantity>2</quantity><price>20</price></item>
		<item id="i3"><quantity>1</quantity><price>30</price></item>
		<order ref="i1"/>
		<order ref="i3"/>
		<order ref="i2"/>
	</shop>`)
	if err != nil {
		t.Fatal(err)
	}
	env := plan.NewEnv(metrics.NewRecorder(), 11)
	env.AddDocument(doc)

	comp, err := CompileString(`
		for $i in doc("shop.xml")//item[./quantity = 1],
		    $o in doc("shop.xml")//order
		where $o/@ref = $i/@id
		return $o`, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := core.Run(env, comp.Graph, comp.Tail, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Orders referencing quantity-1 items: i1 and i3 → 2 rows.
	if rel.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", rel.NumRows())
	}
	col := rel.Column(comp.Vars["o"])
	for _, n := range col {
		ref := doc.Value(doc.Attribute(n, "ref"))
		if ref != "i1" && ref != "i3" {
			t.Errorf("unexpected order ref %q", ref)
		}
	}
}

func TestEndToEndRangePredicate(t *testing.T) {
	doc, err := xmltree.ParseString("m.xml", `<m>
		<p><v>5</v></p><p><v>15</v></p><p><v>25</v></p>
	</m>`)
	if err != nil {
		t.Fatal(err)
	}
	env := plan.NewEnv(metrics.NewRecorder(), 2)
	env.AddDocument(doc)
	comp, err := CompileString(
		`for $p in doc("m.xml")//p[./v/text() > 10] return $p`, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := core.Run(env, comp.Graph, comp.Tail, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", rel.NumRows())
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := lex(`$x/parent::* != 'a'`)
	if err != nil || len(toks) != 7 || toks[2].kind != tokAxis || toks[2].text != "parent" || toks[3].kind != tokStar || toks[4].kind != tokNe {
		t.Fatalf("lex axis, '*' and '!=': %v, %v", toks, err)
	}
	if _, err := lex(`$x ! 'a'`); err == nil {
		t.Errorf("a lone '!' lexed")
	}
	toks, err = lex(`let $x := doc("a.xml")//b[c >= 1.5]`)
	if err != nil {
		t.Fatalf("lex: %v", err)
	}
	kinds := []tokKind{tokName, tokVar, tokAssign, tokName, tokLParen, tokString,
		tokRParen, tokDSlash, tokName, tokLBracket, tokName, tokGe, tokNumber,
		tokRBracket, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].kind, k)
		}
	}
}

func TestSmartQuotesRejected(t *testing.T) {
	if _, err := Parse("for $a in doc(“x”)//y return $a"); err == nil {
		t.Errorf("smart quotes should be a lex error")
	}
}

func TestParseCollection(t *testing.T) {
	q, err := Parse(`for $p in collection("xmark")//person[education] return $p`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Fors[0].Path.Collection || q.Fors[0].Path.Doc != "xmark" {
		t.Fatalf("path = %+v, want collection xmark", q.Fors[0].Path)
	}
	if got := q.String(); !strings.Contains(got, `collection("xmark")`) {
		t.Errorf("String() = %q, lost the collection call", got)
	}

	q2, err := Parse(`let $c := collection("dblp") for $a in $c//article return $a`)
	if err != nil {
		t.Fatal(err)
	}
	if !q2.Lets[0].Collection || q2.Lets[0].Doc != "dblp" {
		t.Fatalf("let = %+v, want collection dblp", q2.Lets[0])
	}
	if got := q2.String(); !strings.Contains(got, `collection("dblp")`) {
		t.Errorf("String() = %q, lost the collection let", got)
	}
}

func TestCompileCollection(t *testing.T) {
	comp, err := CompileString(`for $p in collection("xmark")//person[education] return $p`, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Collections) != 1 || comp.Collections[0] != "xmark" {
		t.Fatalf("Collections = %v, want [xmark]", comp.Collections)
	}
	if len(comp.Docs) != 0 {
		t.Fatalf("Docs = %v, want none (collection is not a plain doc)", comp.Docs)
	}
	// Vertices anchored at the collection carry its name until rebinding.
	root := comp.Graph.Vertices[0]
	if root.Doc != "xmark" {
		t.Errorf("root vertex doc = %q", root.Doc)
	}

	sh := comp.ForShard("xmark", "xmark-2.xml")
	if sh.Graph.Vertices[0].Doc != "xmark-2.xml" {
		t.Errorf("ForShard root doc = %q", sh.Graph.Vertices[0].Doc)
	}
	if comp.Graph.Vertices[0].Doc != "xmark" {
		t.Error("ForShard mutated the original compile")
	}
	if sh.Tail != comp.Tail || len(sh.Vars) != len(comp.Vars) {
		t.Error("ForShard must share tail and vars")
	}
}

func TestCompileCollectionMixedWithDoc(t *testing.T) {
	comp, err := CompileString(
		`for $a in collection("venues")//article, $b in doc("extra.xml")//article where $a/title = $b/title return $a`,
		CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Collections) != 1 || comp.Collections[0] != "venues" {
		t.Errorf("Collections = %v", comp.Collections)
	}
	if len(comp.Docs) != 1 || comp.Docs[0] != "extra.xml" {
		t.Errorf("Docs = %v", comp.Docs)
	}
	// Rebinding the collection must leave the plain document alone.
	sh := comp.ForShard("venues", "venues-0.xml")
	for _, v := range sh.Graph.Vertices {
		if v.Doc == "venues" {
			t.Errorf("vertex %d kept the collection name", v.ID)
		}
		if v.Doc != "venues-0.xml" && v.Doc != "extra.xml" {
			t.Errorf("vertex %d has unexpected doc %q", v.ID, v.Doc)
		}
	}
}

func TestCompileDocCollectionConflict(t *testing.T) {
	_, err := CompileString(`for $a in collection("x")//a, $b in doc("x")//b return $a`, CompileOptions{})
	if err == nil || !strings.Contains(err.Error(), "both doc") {
		t.Errorf("err = %v, want doc/collection conflict", err)
	}
	_, err = CompileString(`let $c := doc("x") for $a in collection("x")//a return $a`, CompileOptions{})
	if err == nil || !strings.Contains(err.Error(), "both doc") {
		t.Errorf("err = %v, want doc/collection conflict on let", err)
	}
}
