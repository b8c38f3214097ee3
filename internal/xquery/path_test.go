package xquery

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ops"
)

func TestParsePathErrors(t *testing.T) {
	for path, token := range map[string]string{
		"":                             "",
		"item":                         "item",
		"/":                            "",
		"//item[":                      "",
		"//item[]":                     "]",
		"//item[name='x]":              "unterminated",
		"/bogus::x":                    "bogus::",
		"//@id":                        "//@id",
		"//ancestor::x":                "ancestor::",
		"/site extra":                  "extra",
		"//item[name !]":               "'!'",
		"/attr-owner::x":               "attr-owner::",
		"/parent::@x":                  "@",
		"/@text()":                     "text()",
		"/attribute::node()":           "node()",
		"//a return $n":                "return",
		"//a, $m in doc(\"d.xml\")//b": "','",
	} {
		_, err := ParsePath(path)
		if err == nil || !strings.Contains(err.Error(), token) {
			t.Errorf("ParsePath(%q): err = %v, want an error naming %q", path, err, token)
		}
	}
}

func TestParsePathRendering(t *testing.T) {
	steps, err := ParsePath("//item[quantity = 1]/name/text()")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 || steps[0].Axis != ops.AxisDesc || steps[0].Name != "item" || steps[2].Kind != StepText {
		t.Fatalf("steps = %+v", steps)
	}
	if len(steps[0].Preds) != 1 || steps[0].Preds[0].Op != "=" || steps[0].Preds[0].Lit != "1" {
		t.Errorf("predicate = %+v", steps[0].Preds)
	}
	for path, want := range map[string]string{
		"//item[quantity = 1]/name/text()":   "//item[./quantity = 1]/name/text()",
		"/child::a/descendant::b":            "/a//b",
		"/attribute::k/self::node()":         "/@k/self::node()",
		"/@*/parent::*":                      "/@*/parent::*",
		"//a[parent::b != 'x']":              `//a[./parent::b != "x"]`,
		"//a[ancestor-or-self::*[@k]]":       "//a[./ancestor-or-self::*[./@k]]",
		"/following-sibling::a/preceding::*": "/following-sibling::a/preceding::*",
	} {
		steps, err := ParsePath(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		got := ""
		for _, st := range steps {
			got += st.String()
		}
		if got != want {
			t.Errorf("%s renders %s, want %s", path, got, want)
		}
	}
}

// TestNeHasItsOwnFingerprint: a != predicate is part of the plan-cache key,
// not an unknown predicate that hashes like none.
func TestNeHasItsOwnFingerprint(t *testing.T) {
	fp := func(q string) string {
		c, err := CompileString(q, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return c.Graph.Fingerprint()
	}
	ne := fp(`for $n in doc("d.xml")//a[b != '1'] return $n`)
	if ne == fp(`for $n in doc("d.xml")//a[b/text()] return $n`) || ne == fp(`for $n in doc("d.xml")//a[b != '2'] return $n`) {
		t.Errorf("//a[b != '1'] shares a fingerprint")
	}
}

// roundTripQueries are the queries of this package's tests, the printer's
// former failures (bare literals) and the axis, wildcard, node() and !=
// forms.
var roundTripQueries = []string{
	queryQ, queryQ1, queryDBLP,
	`for $p in doc("d")//p return $p limit 10`,
	`for $p in doc("d")//p order by $p/k return $p limit 5 offset 20`,
	`for $p in doc("d")//p return $p limit 7 offset 2`,
	`for $a in doc("d.xml")//x, $b in doc("d.xml")//y where $a/@k = $b/@k return <pair>{$a}{$b}</pair>`,
	`for $a in doc("d.xml")//x, $b in doc("d.xml")//y where $a/text() = $b/text() return <pair>{$b}{$a}</pair>`,
	`for $a in doc("d.xml")//x return count($a)`,
	`for $a in doc("d.xml")//x order by $a/price descending return $a`,
	`for $a in doc("d.xml")//x order by $a/@id ascending return $a`,
	`for $a in doc("d")//x return sum($a/price)`,
	`for $a in doc("d")//x return avg($a//price)`,
	`for $a in doc("d")//x return min($a/@id)`,
	`for $a in doc("d")//x return max($a/b/text())`,
	`for $a in doc("d")//x return sum($a)`,
	`for $a in doc("d")//order/item return $a`,
	`for $i in doc("shop.xml")//item[./quantity = 1], $o in doc("shop.xml")//order where $o/@ref = $i/@id return $o`,
	`for $p in doc("m.xml")//p[./v/text() > 10] return $p`,
	`for $p in collection("xmark")//person[education] return $p`,
	`let $c := collection("dblp") for $a in $c//article return $a`,
	`for $a in collection("venues")//article, $b in doc("extra.xml")//article where $a/title = $b/title return $a`,
	// Literals the printer used to leave bare.
	`for $p in doc("d")//person[@id = "p1"] return $p`,
	`for $a in doc("d")//a[b[c = 'v']/d >= 2.5] return $a`,
	`for $x in doc("d")//x where $x/b = "it's" return $x`,
	`for $x in doc("it's.xml")//x where $x/@k != 'say "hi"' return $x`,
	// Axes, wildcards, node() and !=.
	`for $n in doc("d")//b/parent::a return $n`,
	`for $n in doc("d")//a/ancestor::*[@k != '1']/following-sibling::node() return $n`,
	`for $n in doc("d")/descendant-or-self::*[@* != 'x']/@* return $n`,
	`for $n in doc("d")//a[preceding::b/text() <= 3][self::a]/attribute::k return $n`,
	`for $x in doc("d")//b, $y in doc("d")//c where $x/parent::a/@k = $y/@k and $x/a/@k = $y/@k return $y`,
	`for $x in doc("d")//*, $y in $x/following::node() where $x/ancestor-or-self::a/text() = "1" return count($y)`,
}

// checkRoundTrip asserts that q's printed form compiles to the fingerprint
// and tail specs of q itself.
func checkRoundTrip(t *testing.T, q *Query, c *Compiled) {
	t.Helper()
	printed := q.String()
	c2, err := CompileString(printed, CompileOptions{})
	if err != nil {
		t.Fatalf("printed query does not compile: %v\n%s", err, printed)
	}
	if c.Graph.Fingerprint() != c2.Graph.Fingerprint() || !reflect.DeepEqual(c.Tail, c2.Tail) {
		t.Fatalf("printed query compiles differently:\n%s\n%s\nvs\n%s", printed, c.Graph, c2.Graph)
	}
}

func TestPrintedQueriesRoundTrip(t *testing.T) {
	for _, src := range roundTripQueries {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		c, err := Compile(q, CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		checkRoundTrip(t, q, c)
	}
}

// FuzzParseQuery: lexing, parsing and compiling never panic, and a query
// that compiles prints into one that compiles to the same graph and tail.
func FuzzParseQuery(f *testing.F) {
	for _, q := range roundTripQueries {
		f.Add(q)
	}
	f.Add(`for $n in doc("d")//a[@k = 'it"s'] return $n`)
	f.Add(`for $n in doc("d")//a[` + strings.Repeat("[a", 70) + ` return $n`)
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		c, err := Compile(q, CompileOptions{})
		if err != nil {
			return
		}
		checkRoundTrip(t, q, c)
	})
}

// TestDeepNestingFailsFast: 100 000 nested predicates are a 300 KB query,
// which took 0.33 s to compile into a 100 002-vertex graph. The lexer stops
// at MaxPredicateDepth.
func TestDeepNestingFailsFast(t *testing.T) {
	const levels = 100_000
	src := `for $x in doc("d.xml")//a` + strings.Repeat("[a", levels) + strings.Repeat("]", levels) + ` return $x`
	start := time.Now()
	_, err := CompileString(src, CompileOptions{})
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Errorf("rejecting %d nested predicates took %v", levels, took)
	}
	if err == nil || !strings.Contains(err.Error(), "MaxPredicateDepth") {
		t.Errorf("err = %v, want one naming MaxPredicateDepth", err)
	}
}

// TestCompileBounds: a query at each cap compiles, one past it fails with an
// error naming the cap.
func TestCompileBounds(t *testing.T) {
	nested := func(depth int) string {
		return `for $x in doc("d.xml")//a` + strings.Repeat("[a", depth) + strings.Repeat("]", depth) + ` return $x`
	}
	// The root and one vertex per step.
	long := func(vertices int) string {
		return `for $x in doc("d.xml")` + strings.Repeat("/a", vertices-1) + ` return $x`
	}
	// k text vertices in one join class close into k(k-1)/2 edges; each
	// repeated join adds one more.
	joins := func(k, repeats int) string {
		var fors, where []string
		for i := 0; i < k; i++ {
			fors = append(fors, "$x"+string(rune('A'+i/26))+string(rune('a'+i%26))+` in doc("d.xml")//a`)
			if i > 0 {
				where = append(where, "$xAa/text() = "+strings.Fields(fors[i])[0]+"/text()")
			}
		}
		for i := 0; i < repeats; i++ {
			where = append(where, "$xAa/text() = $xAb/text()")
		}
		return "for " + strings.Join(fors, ", ") + " where " + strings.Join(where, " and ") + " return $xAa"
	}
	const k = 45 // 990 closed pairs
	extra := MaxJoinEdges - k*(k-1)/2
	for _, c := range []struct {
		at, past string
		cap      string
	}{
		{nested(MaxPredicateDepth), nested(MaxPredicateDepth + 1), "MaxPredicateDepth"},
		{long(MaxVertices), long(MaxVertices + 1), "MaxVertices"},
		{joins(k, extra), joins(k, extra+1), "MaxJoinEdges"},
	} {
		if _, err := CompileString(c.at, CompileOptions{}); err != nil {
			t.Errorf("at %s: %v", c.cap, err)
		}
		if _, err := CompileString(c.past, CompileOptions{}); err == nil || !strings.Contains(err.Error(), c.cap) {
			t.Errorf("past %s: err = %v", c.cap, err)
		}
	}
}
