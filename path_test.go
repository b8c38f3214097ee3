package rox

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ops"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// The path tests hold Engine.XPath, which executes a path as a FLWOR query,
// to hand-written counts and to refEval, a brute-force reference.

const pathSample = `<site>
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

// pathEngine loads one document under the given name.
func pathEngine(t *testing.T, name, xml string) *Engine {
	t.Helper()
	e := NewEngine(WithSeed(1))
	if err := e.LoadSource(FromXML(name, xml)); err != nil {
		t.Fatal(err)
	}
	return e
}

// checkCounts asserts XPathCount, and the length of XPath's items, for each
// path.
func checkCounts(t *testing.T, e *Engine, doc string, want map[string]int) {
	t.Helper()
	for path, n := range want {
		got, err := e.XPathCount(doc, path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		items, err := e.XPath(doc, path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if got != n || len(items) != n {
			t.Errorf("%s: count %d, %d items; want %d", path, got, len(items), n)
		}
	}
}

func TestXPathBasicPaths(t *testing.T) {
	checkCounts(t, pathEngine(t, "s.xml", pathSample), "s.xml", map[string]int{
		"/site":              1,
		"/site/regions/item": 3,
		"//item":             3,
		"//item/name":        3,
		"//item/name/text()": 3,
		"//person":           2,
		"//*":                17,
		"//name":             5,
		"/site//name":        5,
		"//item/@id":         3,
		"//nosuch":           0,
		"//person/education": 1,
		"//item/quantity":    3,
	})
}

// TestXPathEmptyIntermediate: a step that matches nothing empties the rest
// of the path.
func TestXPathEmptyIntermediate(t *testing.T) {
	checkCounts(t, pathEngine(t, "s.xml", pathSample), "s.xml", map[string]int{
		"//nosuch/name/text()": 0,
	})
}

func TestXPathPredicates(t *testing.T) {
	checkCounts(t, pathEngine(t, "s.xml", pathSample), "s.xml", map[string]int{
		"//item[quantity = 1]":            2,
		"//item[quantity = 5]":            1,
		"//item[quantity > 1]":            1,
		"//item[quantity != 1]":           1,
		"//item[quantity <= 5]":           3,
		"//person[education]":             1,
		"//person[@id = 'p2']":            1,
		"//person[@id = 'p9']":            0,
		"//item[./name = 'lamp']":         1,
		"//item[name = 'lamp']/quantity":  1,
		"//item[./quantity/text() = '1']": 2,
		"//person[name][education]":       1,
		"//item[@id]":                     3,
	})
}

func TestXPathExplicitAxes(t *testing.T) {
	e := pathEngine(t, "s.xml", pathSample)
	checkCounts(t, e, "s.xml", map[string]int{
		"//quantity/following-sibling::name": 3,
		"//name/parent::item":                3,
		"//item/self::item":                  3,
		"//education/preceding::item":        3,
		"//item/attribute::id":               3,
		"/child::site/descendant::person":    2,
	})
	items, err := e.XPath("s.xml", "//education/ancestor::*")
	if err != nil {
		t.Fatal(err)
	}
	var tags []string
	for _, it := range items {
		tags = append(tags, strings.FieldsFunc(it, func(r rune) bool { return r == '<' || r == '>' || r == ' ' })[0])
	}
	if want := []string{"site", "people", "person"}; !slices.Equal(tags, want) {
		t.Errorf("ancestors of education = %v, want %v in document order", tags, want)
	}
}

// TestXPathAnyAttr: @* matches the three @id attributes of the items.
func TestXPathAnyAttr(t *testing.T) {
	e := pathEngine(t, "s.xml", pathSample)
	checkCounts(t, e, "s.xml", map[string]int{"//item/@*": 3})
	items, err := e.XPath("s.xml", "//item/@*")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{`id="i1"`, `id="i2"`, `id="i3"`}; !slices.Equal(items, want) {
		t.Errorf("//item/@* = %q, want %q", items, want)
	}
}

// TestXPathNodeTest: node() matches the element and text children, never an
// attribute.
func TestXPathNodeTest(t *testing.T) {
	e := pathEngine(t, "s.xml", pathSample)
	items, err := e.XPath("s.xml", "//item/node()")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 6 {
		t.Fatalf("//item/node() = %v, want the 6 quantity and name elements", items)
	}
	for _, it := range items {
		if !strings.HasPrefix(it, "<") {
			t.Errorf("node() returned %q", it)
		}
	}
	checkCounts(t, e, "s.xml", map[string]int{"//quantity/node()": 3, "//person/node()": 3})
}

// TestXPathFromContext: a path relative to a bound node, the for clause's
// form of evaluating from a context other than the root.
func TestXPathFromContext(t *testing.T) {
	e := pathEngine(t, "s.xml", pathSample)
	res, err := collectRows(e.Execute(context.Background(), Request{Query: `for $p in doc("s.xml")//people, $n in $p/person/name return $n`}))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"<name>Ada</name>", "<name>Bob</name>"}; !slices.Equal(res.Items, want) {
		t.Errorf("relative path = %v, want %v", res.Items, want)
	}
}

func TestXPathNestedPredicates(t *testing.T) {
	e := pathEngine(t, "n.xml", `<r>
		<box><item ok="1"><v>5</v></item></box>
		<box><item><v>5</v></item></box>
		<box><item ok="1"><v>9</v></item></box>
	</r>`)
	checkCounts(t, e, "n.xml", map[string]int{"//box[item[@ok]/v = 5]": 1})
}

// TestXPathDocumentOrderDistinct: XPath returns each node once, in document
// order, also where several context nodes reach the same one.
func TestXPathDocumentOrderDistinct(t *testing.T) {
	e := pathEngine(t, "d.xml", `<r><a i="1"><b/></a><a i="2"><b/><b/></a><x><a i="3"><a i="4"><b/></a></a></x></r>`)
	for path, want := range map[string][]string{
		"//b/parent::a":      {`<a i="1"><b/></a>`, `<a i="2"><b/><b/></a>`, `<a i="4"><b/></a>`},
		"//a/ancestor::*/@i": {`i="3"`},
		"//b/ancestor::*/@i": {`i="1"`, `i="2"`, `i="3"`, `i="4"`},
	} {
		got, err := e.XPath("d.xml", path)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s = %v, want %v", path, got, want)
		}
	}
	got, err := e.XPath("d.xml", "//a/ancestor::*")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !strings.HasPrefix(got[0], "<r>") || !strings.HasPrefix(got[1], "<x>") || !strings.HasPrefix(got[2], `<a i="3">`) {
		t.Errorf("//a/ancestor::* = %v, want r, x and the outer a of x, in document order", got)
	}
}

// TestXPathComparisonRule pins the compiler's comparison rule on the three
// classes of paths where a separate path evaluator answered otherwise: = is
// lexical (no numeric equality), the range operators need a number, and an
// element compares through its text() children, not its whole string value.
func TestXPathComparisonRule(t *testing.T) {
	e := pathEngine(t, "n.xml", `<r><a><b>1.0</b></a><a><b>1</b></a><a><b>01</b></a></r>`)
	checkCounts(t, e, "n.xml", map[string]int{"//a[b = 1]": 1, "//a[b = '1']": 1, "//a[b != 1]": 2})
	for _, path := range []string{"//a[b < 'c']", "//a[b >= 'c']"} {
		if _, err := e.XPath("n.xml", path); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: err = %v, want ErrInvalidRequest", path, err)
		}
	}
	if err := e.LoadSource(FromXML("m.xml", `<r><a><b>1<c>2</c></b></a><a><b>12</b></a><a><b>1</b><b>2</b></a></r>`)); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, e, "m.xml", map[string]int{"//a[b = '1']": 2, "//a[b = '12']": 1})
	if err := e.LoadSource(FromXML("v.xml", `<r><a>beta</a></r>`)); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, e, "v.xml", map[string]int{"/r[a = 'beta']": 1, "/r[a != 'beta']": 0, "/r[a = 5]": 0})
}

// TestXPathEntryIsOnePath: the path is parsed on its own, so text that would
// add a clause to the query around it is an invalid request, and a document
// name is never spliced into query text.
func TestXPathEntryIsOnePath(t *testing.T) {
	e := pathEngine(t, "d.xml", `<r><a/><b/></r>`)
	for _, path := range []string{
		`//a return $n`,
		`//a, $m in doc("d.xml")//b`,
		`//a where $n/b = 1`,
		"not a path",
		"a",
		"",
	} {
		if _, err := e.XPath("d.xml", path); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("XPath(%q): err = %v, want ErrInvalidRequest", path, err)
		}
	}
	for _, name := range []string{`it's.xml`, `say "hi".xml`} {
		if err := e.LoadSource(FromXML(name, `<r><a/><a/></r>`)); err != nil {
			t.Fatal(err)
		}
		if n, err := e.XPathCount(name, "//a"); err != nil || n != 2 {
			t.Errorf("XPathCount(%q, //a) = %d, %v; want 2", name, n, err)
		}
	}
}

// TestExplicitAxesCompile: a query names any axis but the attribute axis's
// reverse. //b/parent::a has two nodes here; an unknown axis, '//' before an
// axis and '//@' stay errors that name the offending token.
func TestExplicitAxesCompile(t *testing.T) {
	e := pathEngine(t, "d.xml", `<r><a><b/></a><a><b/><b/></a><c><b/></c></r>`)
	for path, want := range map[string]int{
		"//b/parent::a":            2,
		"//b/preceding-sibling::b": 1,
		"//b/ancestor::r":          1,
	} {
		q := fmt.Sprintf(`for $n in doc("d.xml")%s return $n`, path)
		res, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
		if err != nil || res.Stats.Rows != want {
			t.Errorf("%s: %v; want %d rows", q, err, want)
			continue
		}
		if n, err := e.XPathCount("d.xml", path); err != nil || n != want {
			t.Errorf("XPathCount(%s) = %d, %v; want %d", path, n, err, want)
		}
	}
	for path, token := range map[string]string{
		"/bogus::x":      "bogus::",
		"//ancestor::r":  "ancestor::",
		"//@x":           "//@x",
		"/attr-owner::a": "attr-owner::",
		"/parent::@x":    "@",
	} {
		q := fmt.Sprintf(`for $n in doc("d.xml")%s return $n`, path)
		_, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
		if !errors.Is(err, ErrInvalidRequest) || !strings.Contains(err.Error(), token) {
			t.Errorf("%s: err = %v; want ErrInvalidRequest naming %q", q, err, token)
		}
	}
}

// TestJoinEndpointsKeepTheirAxes: two join paths that differ only in an
// axis are two vertices. b's parent a has k="1" and its child a k="2", so no
// c equals both; sharing one vertex would return the c with k="1".
func TestJoinEndpointsKeepTheirAxes(t *testing.T) {
	e := pathEngine(t, "d.xml", `<r><a k="1"><b><a k="2"/></b></a><c k="1"/><c k="2"/></r>`)
	q := `for $x in doc("d.xml")//b, $y in doc("d.xml")//c where $x/parent::a/@k = $y/@k and $x/a/@k = $y/@k return $y`
	res, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 0 {
		t.Errorf("%s = %v, want no rows", q, res.Items)
	}
}

// refEval evaluates steps from the context nodes by brute force, testing
// every node against every context node with ops.AxisHolds: the reference
// the path tests hold the engine to. It shares nothing with the staircase
// joins the engine runs. The result is duplicate-free and in document order.
func refEval(d *xmltree.Document, steps []xquery.Step, context []xmltree.NodeID) []xmltree.NodeID {
	cur := context
	for _, st := range steps {
		var next []xmltree.NodeID
		for s := xmltree.NodeID(0); int(s) < d.Len(); s++ {
			onAxis := slices.ContainsFunc(cur, func(c xmltree.NodeID) bool { return ops.AxisHolds(d, st.Axis, c, s) })
			if onAxis && refTest(d, st, s) && !slices.ContainsFunc(st.Preds, func(p xquery.Pred) bool { return !refPred(d, s, p) }) {
				next = append(next, s)
			}
		}
		cur = next
	}
	return cur
}

// refTest reports whether n passes st's node test.
func refTest(d *xmltree.Document, st xquery.Step, n xmltree.NodeID) bool {
	named := st.Name == "" || d.NodeName(n) == st.Name
	switch st.Kind {
	case xquery.StepElem:
		return d.Kind(n) == xmltree.KindElem && named
	case xquery.StepAttr:
		return d.Kind(n) == xmltree.KindAttr && named
	case xquery.StepText:
		return d.Kind(n) == xmltree.KindText
	default:
		return d.Kind(n) == xmltree.KindElem || d.Kind(n) == xmltree.KindText
	}
}

// refPred reports whether predicate p holds at n: some node at the end of
// its path exists and, with an operator, compares true.
func refPred(d *xmltree.Document, n xmltree.NodeID, p xquery.Pred) bool {
	return slices.ContainsFunc(refEval(d, p.Path, []xmltree.NodeID{n}), func(t xmltree.NodeID) bool {
		return p.Op == "" || refCompare(d, t, p.Op, p.Lit)
	})
}

// refCompare is the compiler's comparison rule: a text or attribute node
// compares its own value, an element its text() children; = and != compare
// strings, the range operators numbers.
func refCompare(d *xmltree.Document, n xmltree.NodeID, op, lit string) bool {
	if d.Kind(n) == xmltree.KindElem {
		return slices.ContainsFunc(d.Children(n), func(c xmltree.NodeID) bool {
			return d.Kind(c) == xmltree.KindText && refCompare(d, c, op, lit)
		})
	}
	v := d.Value(n)
	switch op {
	case "=":
		return v == lit
	case "!=":
		return v != lit
	}
	x, ok := xmltree.ParseNumber(v)
	bound, err := strconv.ParseFloat(lit, 64)
	if !ok || err != nil {
		return false
	}
	switch op {
	case "<":
		return x < bound
	case "<=":
		return x <= bound
	case ">":
		return x > bound
	default:
		return x >= bound
	}
}

// randomPathDoc builds a document of about 60 nodes: elements a and b with
// mixed text content and attributes ka and kb.
func randomPathDoc(rng *rand.Rand, name string) *xmltree.Document {
	vals := []string{"1", "2", "3", "x"}
	b := xmltree.NewBuilder(name)
	b.StartElem("root")
	nodes := 1
	var rec func(depth int)
	rec = func(depth int) {
		for nodes < 60 && rng.Intn(3) != 0 {
			if rng.Intn(2) == 0 && depth < 5 {
				b.StartElem([]string{"a", "b"}[rng.Intn(2)])
				nodes++
				for _, attr := range []string{"ka", "kb"} {
					if rng.Intn(3) == 0 {
						b.Attr(attr, vals[rng.Intn(len(vals))])
						nodes++
					}
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
	return b.MustBuild()
}

// pathGen draws random paths over all twelve axes, both as text and as the
// steps the parser must read from it.
type pathGen struct{ rng *rand.Rand }

var genAxes = []ops.Axis{
	ops.AxisChild, ops.AxisDesc, ops.AxisDescSelf, ops.AxisParent, ops.AxisAnc, ops.AxisAncSelf,
	ops.AxisFoll, ops.AxisPrec, ops.AxisFollSibling, ops.AxisPrecSibling, ops.AxisSelf, ops.AxisAttribute,
}

// path draws 1 to max steps; depth counts the enclosing predicates. A
// path from the document root starts with a descendant step, from which
// most of the other axes reach something.
func (g pathGen) path(max, depth int, relative bool) ([]xquery.Step, string) {
	var steps []xquery.Step
	var text string
	for i := g.rng.Intn(max) + 1; i > 0; i-- {
		axis := genAxes[g.rng.Intn(len(genAxes))]
		if !relative && len(steps) == 0 {
			axis = genAxes[1+g.rng.Intn(2)]
		}
		st, s := g.step(axis, depth, relative && len(steps) == 0)
		steps = append(steps, st)
		text += s
	}
	return steps, text
}

// step draws one step on the axis. bare allows a predicate's first step
// without its leading '/'.
func (g pathGen) step(axis ops.Axis, depth int, bare bool) (xquery.Step, string) {
	st := xquery.Step{Axis: axis}
	var test string
	if st.Axis == ops.AxisAttribute {
		st.Kind = xquery.StepAttr
		st.Name = []string{"ka", "kb", ""}[g.rng.Intn(3)]
		test = cmp.Or(st.Name, "*")
	} else {
		switch g.rng.Intn(5) {
		case 0, 1:
			st.Name = []string{"a", "b"}[g.rng.Intn(2)]
			test = st.Name
		case 2:
			test = "*"
		case 3:
			st.Kind, test = xquery.StepText, "text()"
		default:
			st.Kind, test = xquery.StepNode, "node()"
		}
	}
	var s string
	explicit := "/" + st.Axis.String() + "::" + test
	switch abbrev := g.rng.Intn(2) == 0; {
	case st.Axis == ops.AxisChild && abbrev:
		s = "/" + test
	case st.Axis == ops.AxisDesc && abbrev:
		s = "//" + test
	case st.Axis == ops.AxisAttribute && abbrev:
		s = "/@" + test
	default:
		s = explicit
	}
	if bare && s[1] != '/' && g.rng.Intn(2) == 0 {
		s = s[1:] // [a], [@ka], [parent::b]
	} else if bare {
		s = "." + s
	}
	if depth < 2 && g.rng.Intn(4) == 0 {
		p, ps := g.pred(depth + 1)
		st.Preds = []xquery.Pred{p}
		s += ps
	}
	return st, s
}

// pred draws a predicate: a path of one or two steps and, unless it ends in
// node(), possibly a comparison.
func (g pathGen) pred(depth int) (xquery.Pred, string) {
	steps, s := g.path(2, depth, true)
	p := xquery.Pred{Path: steps}
	if steps[len(steps)-1].Kind != xquery.StepNode && g.rng.Intn(2) == 0 {
		p.Op = []string{"=", "!=", "<", "<=", ">", ">="}[g.rng.Intn(6)]
		if p.Op == "=" || p.Op == "!=" {
			p.Lit = []string{"1", "2", "x"}[g.rng.Intn(3)]
		} else {
			// NaN compares false with every number: a range answer that
			// took it for a bound past the last value once matched them all.
			p.Lit = []string{"1", "2", "1.5", "NaN"}[g.rng.Intn(4)]
		}
		lit := []string{"'" + p.Lit + "'", `"` + p.Lit + `"`, p.Lit}[g.rng.Intn(3)]
		if (p.Lit == "x" || p.Lit == "NaN") && lit == p.Lit {
			lit = "'" + p.Lit + "'" // a bare x or NaN is a name test
		}
		s += " " + p.Op + " " + lit
	}
	return p, "[" + s + "]"
}

// TestPathDifferential draws random documents and random paths over every
// axis, *, @*, text() and node(), with nested predicates and every
// comparison operator. Each path must parse into the steps it was drawn
// from, and ROX (through Engine.XPath), the static baseline and refEval must
// return the same items.
func TestPathDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := pathGen{rng}
	paths, docs := 40, 100
	if testing.Short() {
		docs = 10
	}
	for i := 0; i < docs; i++ {
		d := randomPathDoc(rng, "r.xml")
		e := NewEngine(WithSeed(int64(i)))
		if err := e.LoadSource(FromDocument(d)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < paths; j++ {
			steps, path := g.path(4, 0, false)
			parsed, err := xquery.ParsePath(path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if !reflect.DeepEqual(parsed, steps) {
				t.Fatalf("%s parsed into %+v, drawn as %+v", path, parsed, steps)
			}
			var want []string
			for _, n := range refEval(d, steps, []xmltree.NodeID{d.Root()}) {
				want = append(want, xmltree.SerializeString(d, n))
			}
			got, err := e.XPath("r.xml", path)
			if err != nil {
				t.Fatalf("doc %d %s: %v", i, path, err)
			}
			static, err := collectRows(e.Execute(context.Background(), Request{Query: `for $n in doc("r.xml")` + path + ` return $n`, Static: true}))
			if err != nil {
				t.Fatalf("doc %d %s static: %v", i, path, err)
			}
			if !slices.Equal(got, want) || !slices.Equal(static.Items, want) {
				t.Fatalf("doc %d %s:\nROX    %v\nstatic %v\nref    %v\ndoc %s", i, path, got, static.Items, want, xmltree.SerializeString(d, d.Root()))
			}
		}
	}
}
