package rox

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

const peopleXML = `<people>
	<person id="p1"><name>Alice</name><city>Amsterdam</city></person>
	<person id="p2"><name>Bob</name><city>Enschede</city></person>
	<person id="p3"><name>Carol</name><city>Amsterdam</city></person>
</people>`

const ordersXML = `<orders>
	<order person="p1"><total>10</total></order>
	<order person="p3"><total>250</total></order>
	<order person="p1"><total>99</total></order>
</orders>`

func engine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(WithSeed(7))
	if err := e.LoadSource(FromXML("people.xml", peopleXML)); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadSource(FromXML("orders.xml", ordersXML)); err != nil {
		t.Fatal(err)
	}
	return e
}

// collectRows drains an Execute outcome into a materialized Result — the
// tests' one-liner around Rows.Collect.
func collectRows(rows *Rows, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

func TestEngineSimpleQuery(t *testing.T) {
	e := engine(t)
	res, err := collectRows(e.Execute(context.Background(), Request{Query: `for $p in doc("people.xml")//person return $p`}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(res.Items))
	}
	if !strings.Contains(res.Items[0], "Alice") {
		t.Errorf("first item = %s", res.Items[0])
	}
	if res.Stats.Rows != 3 || res.Stats.Plan == "" {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestEngineJoinQuery(t *testing.T) {
	e := engine(t)
	res, err := collectRows(e.Execute(context.Background(), Request{Query: `
		for $p in doc("people.xml")//person,
		    $o in doc("orders.xml")//order
		where $o/@person = $p/@id
		return $o`}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 3 {
		t.Fatalf("items = %d, want 3: %v", len(res.Items), res.Items)
	}
	for _, it := range res.Items {
		if !strings.Contains(it, "order") {
			t.Errorf("unexpected item %s", it)
		}
	}
	if res.Stats.SampleTuples == 0 {
		t.Errorf("ROX run recorded no sampling work")
	}
}

func TestEnginePredicateQuery(t *testing.T) {
	e := engine(t)
	res, err := collectRows(e.Execute(context.Background(), Request{Query: `
		for $o in doc("orders.xml")//order[./total/text() > 50]
		return $o`}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(res.Items))
	}
}

func TestEngineStaticMatchesROX(t *testing.T) {
	q := `
		for $p in doc("people.xml")//person,
		    $o in doc("orders.xml")//order
		where $o/@person = $p/@id
		return $p`
	e := engine(t)
	rox, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	stat, err := collectRows(e.Execute(context.Background(), Request{Query: q, Static: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rox.Items) != len(stat.Items) {
		t.Fatalf("ROX %d items, static %d", len(rox.Items), len(stat.Items))
	}
	for i := range rox.Items {
		if rox.Items[i] != stat.Items[i] {
			t.Errorf("item %d differs:\n%s\n%s", i, rox.Items[i], stat.Items[i])
		}
	}
}

func TestEngineExplain(t *testing.T) {
	e := engine(t)
	s, err := e.Explain(`for $p in doc("people.xml")//person/name return $p`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"person", "name", "JoinGraph"} {
		if !strings.Contains(s, want) {
			t.Errorf("Explain missing %q:\n%s", want, s)
		}
	}
}

func TestEngineErrors(t *testing.T) {
	e := engine(t)
	if _, err := collectRows(e.Execute(context.Background(), Request{Query: `this is not xquery`})); err == nil {
		t.Errorf("garbage query should fail")
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Query: `for $p in doc("missing.xml")//x return $p`})); err == nil {
		t.Errorf("query over unloaded document should fail")
	}
	if err := e.LoadSource(FromXML("bad.xml", "<a><b></a>")); err == nil {
		t.Errorf("malformed XML should fail to load")
	}
}

func TestEngineOptions(t *testing.T) {
	e := NewEngine(WithSampleSize(25), WithSeed(3),
		WithOptimizerOptions(core.Options{Tau: 25, Greedy: true}))
	if err := e.LoadSource(FromXML("people.xml", peopleXML)); err != nil {
		t.Fatal(err)
	}
	res, err := collectRows(e.Execute(context.Background(), Request{Query: `for $p in doc("people.xml")//person return $p`}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 3 {
		t.Errorf("items = %d", len(res.Items))
	}
}

func TestEngineWithGeneratedXMark(t *testing.T) {
	cfg := datagen.DefaultXMarkConfig()
	cfg.Persons, cfg.Items, cfg.OpenAuctions = 120, 100, 80
	e := NewEngine()
	_ = e.LoadSource(FromDocument(datagen.XMark(cfg)))
	res, err := collectRows(e.Execute(context.Background(), Request{Query: `
		let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < 145],
		    $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id
		return $p`}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) == 0 {
		t.Errorf("XMark query returned nothing")
	}
	for _, it := range res.Items[:1] {
		if !strings.Contains(it, "person") || !strings.Contains(it, "province") {
			t.Errorf("returned person lacks province: %s", it)
		}
	}
}

func TestLoadFromReader(t *testing.T) {
	e := NewEngine()
	if err := e.LoadSource(FromReader("r.xml", strings.NewReader("<a><b/></a>"))); err != nil {
		t.Fatal(err)
	}
	res, err := collectRows(e.Execute(context.Background(), Request{Query: `for $b in doc("r.xml")//b return $b`}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0] != "<b/>" {
		t.Errorf("items = %v", res.Items)
	}
}

func TestQueryOrderSemantics(t *testing.T) {
	// Result items must follow document order of the outer for variable.
	e := engine(t)
	res, err := collectRows(e.Execute(context.Background(), Request{Query: `for $p in doc("people.xml")//person/name return $p`}))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Alice", "Bob", "Carol"}
	if len(res.Items) != 3 {
		t.Fatalf("items = %v", res.Items)
	}
	for i, w := range want {
		if !strings.Contains(res.Items[i], w) {
			t.Errorf("item %d = %s, want %s", i, res.Items[i], w)
		}
	}
}

// TestSampleSizeBelowOneKeepsDefault: WithSampleSize(n <= 0) keeps the
// default τ — the rule WithShardWorkers and WithDriftRatio follow — so a
// cold query still samples instead of failing "Tau must be positive".
func TestSampleSizeBelowOneKeepsDefault(t *testing.T) {
	for _, tau := range []int{0, -1} {
		e := NewEngine(WithSampleSize(tau))
		if e.opts.Tau != core.DefaultOptions().Tau {
			t.Errorf("WithSampleSize(%d): τ = %d, want the default %d", tau, e.opts.Tau, core.DefaultOptions().Tau)
		}
		if err := e.LoadSource(FromXML("people.xml", peopleXML)); err != nil {
			t.Fatal(err)
		}
		res, err := collectRows(e.Execute(context.Background(), Request{Query: `for $p in doc("people.xml")//person return $p`}))
		if err != nil {
			t.Fatalf("WithSampleSize(%d): cold query: %v", tau, err)
		}
		if res.Stats.SampleTuples == 0 {
			t.Errorf("WithSampleSize(%d): cold query did no sampling", tau)
		}
	}
}
