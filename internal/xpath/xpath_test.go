package xpath

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/ops"
	"repro/internal/xmltree"
)

const sample = `<site>
  <regions>
    <item id="i1"><quantity>1</quantity><name>chair</name></item>
    <item id="i2"><quantity>5</quantity><name>table</name></item>
    <item id="i3"><quantity>1</quantity><name>lamp</name></item>
  </regions>
  <people>
    <person id="p1"><name>Ada</name><education>PhD</education></person>
    <person id="p2"><name>Bob</name></person>
  </people>
</site>`

func fixture(t *testing.T) *index.Index {
	t.Helper()
	d, err := xmltree.ParseString("s.xml", sample)
	if err != nil {
		t.Fatal(err)
	}
	return index.New(d)
}

func TestEvalBasicPaths(t *testing.T) {
	ix := fixture(t)
	cases := []struct {
		path string
		want int
	}{
		{"/site", 1},
		{"/site/regions/item", 3},
		{"//item", 3},
		{"//item/name", 3},
		{"//item/name/text()", 3},
		{"//person", 2},
		{"//*", 17},
		{"//name", 5},
		{"/site//name", 5},
		{"//item/@id", 3},
		{"//nosuch", 0},
		{"//person/education", 1},
		{"//item/quantity", 3},
	}
	for _, c := range cases {
		got, err := Count(ix, c.path)
		if err != nil {
			t.Errorf("%s: %v", c.path, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: %d nodes, want %d", c.path, got, c.want)
		}
	}
}

func TestEvalPredicates(t *testing.T) {
	ix := fixture(t)
	cases := []struct {
		path string
		want int
	}{
		{"//item[quantity = 1]", 2},
		{"//item[quantity = 5]", 1},
		{"//item[quantity > 1]", 1},
		{"//item[quantity != 1]", 1},
		{"//item[quantity <= 5]", 3},
		{"//person[education]", 1},
		{"//person[@id = 'p2']", 1},
		{"//person[@id = 'p9']", 0},
		{"//item[./name = 'lamp']", 1},
		{"//item[name = 'lamp']/quantity", 1},
		{"//item[./quantity/text() = '1']", 2},
		{"//person[name][education]", 1},
		{"//item[@id]", 3},
	}
	for _, c := range cases {
		got, err := Count(ix, c.path)
		if err != nil {
			t.Errorf("%s: %v", c.path, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: %d nodes, want %d", c.path, got, c.want)
		}
	}
}

func TestEvalExplicitAxes(t *testing.T) {
	ix := fixture(t)
	d := ix.Doc()
	// ancestor of education = person, people, site.
	nodes, err := Eval(ix, "//education/ancestor::*")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("ancestors = %d, want 3", len(nodes))
	}
	names := map[string]bool{}
	for _, n := range nodes {
		names[d.NodeName(n)] = true
	}
	for _, want := range []string{"person", "people", "site"} {
		if !names[want] {
			t.Errorf("missing ancestor %s", want)
		}
	}

	// following-sibling of quantity = name.
	got, err := Count(ix, "//quantity/following-sibling::name")
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("following-sibling = %d, want 3", got)
	}
	// parent axis.
	got, err = Count(ix, "//name/parent::item")
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("parent::item = %d, want 3", got)
	}
	// self axis.
	got, err = Count(ix, "//item/self::item")
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("self::item = %d, want 3", got)
	}
	// preceding.
	got, err = Count(ix, "//education/preceding::item")
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("preceding::item = %d, want 3", got)
	}
}

func TestEvalDocumentOrderDistinct(t *testing.T) {
	ix := fixture(t)
	nodes, err := Eval(ix, "//item/name")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			t.Fatalf("result not distinct/ordered at %d: %v", i, nodes)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"item",            // relative
		"/",               // no test
		"//item[",         // unterminated predicate
		"//item[]",        // empty predicate
		"//item[name='x]", // unterminated literal
		"/bogus::x",       // unknown axis
		"//@id",           // descendant attribute
		"//ancestor::x",   // // with explicit axis
		"/site extra",     // trailing tokens
		"//item[name !]",  // broken operator
	}
	for _, b := range bad {
		if _, err := Parse(b); err == nil {
			t.Errorf("expected parse error for %q", b)
		}
	}
}

func TestParseRendering(t *testing.T) {
	e := MustParse("//item[quantity = 1]/name/text()")
	s := e.String()
	if s == "" {
		t.Fatal("empty rendering")
	}
	if len(e.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(e.Steps))
	}
	if e.Steps[0].Axis != ops.AxisDesc || e.Steps[0].Test.Name != "item" {
		t.Errorf("step 0 = %+v", e.Steps[0])
	}
	if len(e.Steps[0].Preds) != 1 || e.Steps[0].Preds[0].Op != CmpEq {
		t.Errorf("pred = %+v", e.Steps[0].Preds)
	}
	if e.Steps[2].Test.Kind != TestText {
		t.Errorf("step 2 = %+v", e.Steps[2])
	}
}

// naiveEval evaluates an expression by brute force with AxisHolds — the
// correctness oracle.
func naiveEval(d *xmltree.Document, e *Expr, context []xmltree.NodeID) []xmltree.NodeID {
	cur := context
	for _, st := range e.Steps {
		var next []xmltree.NodeID
		seen := map[xmltree.NodeID]bool{}
		for _, c := range cur {
			for i := 0; i < d.Len(); i++ {
				s := xmltree.NodeID(i)
				if !ops.AxisHolds(d, st.Axis, c, s) || !testMatches(d, st.Test, s) {
					continue
				}
				ok := true
				for _, p := range st.Preds {
					if !naivePred(d, s, p) {
						ok = false
						break
					}
				}
				if ok && !seen[s] {
					seen[s] = true
					next = append(next, s)
				}
			}
		}
		slices.Sort(next)
		cur = next
	}
	return cur
}

func testMatches(d *xmltree.Document, t Test, n xmltree.NodeID) bool {
	switch t.Kind {
	case TestElem:
		return d.Kind(n) == xmltree.KindElem && d.NodeName(n) == t.Name
	case TestAnyElem:
		return d.Kind(n) == xmltree.KindElem
	case TestAttr:
		return d.Kind(n) == xmltree.KindAttr && d.NodeName(n) == t.Name
	case TestAnyAttr:
		return d.Kind(n) == xmltree.KindAttr
	case TestText:
		return d.Kind(n) == xmltree.KindText
	case TestNode:
		return d.Kind(n) != xmltree.KindAttr && d.Kind(n) != xmltree.KindDoc
	}
	return false
}

func naivePred(d *xmltree.Document, n xmltree.NodeID, p Pred) bool {
	terms := naiveEval(d, &Expr{Steps: p.Path}, []xmltree.NodeID{n})
	if p.Op == CmpNone {
		return len(terms) > 0
	}
	for _, t := range terms {
		if valueMatches(d, t, p.Op, p.Lit) {
			return true
		}
	}
	return false
}

// TestEvalMatchesNaive cross-checks the staircase evaluator against the
// brute-force oracle on random documents and a battery of expressions.
func TestEvalMatchesNaive(t *testing.T) {
	exprs := []string{
		"//a", "//b", "/a/b", "//a//b", "//a/text()", "//a/@ka",
		"//a[b]", "//a[ka = '1']/b", "//b/parent::a", "//a/ancestor::*",
		"//b/following-sibling::*", "//a[b]/descendant::b",
		"//a[@ka = '2']", "//*[text() = '3']",
	}
	names := []string{"a", "b"}
	vals := []string{"1", "2", "3"}
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := xmltree.NewBuilder("r.xml")
		b.StartElem("root")
		var rec func(depth int)
		nodes := 1
		rec = func(depth int) {
			for nodes < 60 && rng.Intn(3) != 0 {
				if rng.Intn(2) == 0 && depth < 5 {
					b.StartElem(names[rng.Intn(len(names))])
					nodes++
					if rng.Intn(3) == 0 {
						b.Attr("ka", vals[rng.Intn(len(vals))])
						nodes++
					}
					rec(depth + 1)
					b.EndElem()
				} else {
					b.Text(vals[rng.Intn(len(vals))])
					nodes++
				}
			}
		}
		rec(0)
		b.EndElem()
		d := b.MustBuild()
		ix := index.New(d)
		for _, src := range exprs {
			e, err := Parse(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			got, err := EvalExpr(ix, e, []xmltree.NodeID{d.Root()})
			if err != nil {
				t.Fatalf("seed %d %q: %v", seed, src, err)
			}
			want := naiveEval(d, e, []xmltree.NodeID{d.Root()})
			if len(got) != len(want) {
				t.Fatalf("seed %d %q: %d nodes, oracle %d", seed, src, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d %q: node %d = %d, oracle %d", seed, src, i, got[i], want[i])
				}
			}
		}
	}
}
