package rox

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

func TestEngineXPath(t *testing.T) {
	e := engine(t)
	items, err := e.XPath("people.xml", "//person[@id='p2']/name")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || !strings.Contains(items[0], "Bob") {
		t.Errorf("XPath result = %v", items)
	}
	n, err := e.XPathCount("people.xml", "//person")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("XPathCount = %d, want 3", n)
	}
	texts, err := e.XPath("orders.xml", "//order[./total/text() > 50]/total/text()")
	if err != nil {
		t.Fatal(err)
	}
	if len(texts) != 2 {
		t.Errorf("predicate XPath = %v", texts)
	}
}

func TestEngineXPathErrors(t *testing.T) {
	e := engine(t)
	if _, err := e.XPath("missing.xml", "//a"); err == nil {
		t.Errorf("XPath over unloaded document should fail")
	}
	if _, err := e.XPath("people.xml", "not a path"); err == nil {
		t.Errorf("garbage path should fail")
	}
	if _, err := e.XPathCount("missing.xml", "//a"); err == nil {
		t.Errorf("XPathCount over unloaded document should fail")
	}
}

// TestEngineXPathAgreesWithQuery: the XPath evaluator and the full FLWOR
// pipeline must agree on path-only queries.
func TestEngineXPathAgreesWithQuery(t *testing.T) {
	cfg := datagen.DefaultXMarkConfig()
	cfg.Persons, cfg.Items, cfg.OpenAuctions = 150, 120, 100
	e := NewEngine()
	_ = e.LoadSource(FromDocument(datagen.XMark(cfg)))

	paths := []struct {
		xpath, xquery string
	}{
		{"//person", `for $p in doc("xmark.xml")//person return $p`},
		{"//open_auction/bidder", `for $b in doc("xmark.xml")//open_auction/bidder return $b`},
		{"//item[./quantity = 1]", `for $i in doc("xmark.xml")//item[./quantity = 1] return $i`},
	}
	for _, p := range paths {
		viaXPath, err := e.XPathCount("xmark.xml", p.xpath)
		if err != nil {
			t.Fatalf("%s: %v", p.xpath, err)
		}
		res, err := collectRows(e.Execute(context.Background(), Request{Query: p.xquery}))
		if err != nil {
			t.Fatalf("%s: %v", p.xquery, err)
		}
		if res.Stats.Rows != viaXPath {
			t.Errorf("%s: XPath %d vs XQuery %d", p.xpath, viaXPath, res.Stats.Rows)
		}
	}
}

// TestConcurrentEngines: documents and indices are immutable, so multiple
// engines sharing nothing but the Go runtime must evaluate concurrently
// without interference.
func TestConcurrentEngines(t *testing.T) {
	cfg := datagen.DefaultXMarkConfig()
	cfg.Persons, cfg.Items, cfg.OpenAuctions = 100, 80, 60
	doc := datagen.XMark(cfg)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	rows := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			e := NewEngine(WithSeed(seed))
			_ = e.LoadSource(FromDocument(doc)) // safe: Document is immutable
			res, err := collectRows(e.Execute(context.Background(), Request{Query: `
				for $o in doc("xmark.xml")//open_auction[.//current/text() < 145],
				    $p in doc("xmark.xml")//person
				where $o//bidder//personref/@person = $p/@id
				return $p`}))
			if err != nil {
				errs <- err
				return
			}
			rows <- res.Stats.Rows
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	close(rows)
	for err := range errs {
		t.Fatal(err)
	}
	first := -1
	for r := range rows {
		if first < 0 {
			first = r
		} else if r != first {
			t.Fatalf("concurrent engines disagree: %d vs %d", r, first)
		}
	}
}

func TestEngineWithExtensions(t *testing.T) {
	opts := core.DefaultOptions()
	opts.MaterializeLimit = 50
	opts.EagerProject = true
	e := NewEngine(WithOptimizerOptions(opts))
	if err := e.LoadSource(FromXML("people.xml", peopleXML)); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadSource(FromXML("orders.xml", ordersXML)); err != nil {
		t.Fatal(err)
	}
	res, err := collectRows(e.Execute(context.Background(), Request{Query: `
		for $p in doc("people.xml")//person,
		    $o in doc("orders.xml")//order
		where $o/@person = $p/@id
		return $o`}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 3 {
		t.Errorf("extension run rows = %d, want 3", len(res.Items))
	}
}

func TestEngineDeterministicAcrossRuns(t *testing.T) {
	run := func() []string {
		e := NewEngine(WithSeed(99))
		if err := e.LoadSource(FromXML("people.xml", peopleXML)); err != nil {
			t.Fatal(err)
		}
		res, err := collectRows(e.Execute(context.Background(), Request{Query: `for $p in doc("people.xml")//person/name return $p`}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Items
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("non-deterministic results:\n%v\n%v", a, b)
	}
}

func TestEngineConstructorReturn(t *testing.T) {
	e := engine(t)
	res, err := collectRows(e.Execute(context.Background(), Request{Query: `
		for $p in doc("people.xml")//person,
		    $o in doc("orders.xml")//order
		where $o/@person = $p/@id
		return <match>{$p}{$o}</match>`}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(res.Items))
	}
	for _, item := range res.Items {
		if !strings.HasPrefix(item, "<match>") || !strings.HasSuffix(item, "</match>") {
			t.Errorf("item not wrapped: %s", item)
		}
		if !strings.Contains(item, "<person") || !strings.Contains(item, "<order") {
			t.Errorf("item missing joined parts: %s", item)
		}
	}
}

func TestEngineCountReturn(t *testing.T) {
	e := engine(t)
	res, err := collectRows(e.Execute(context.Background(), Request{Query: `
		for $p in doc("people.xml")//person,
		    $o in doc("orders.xml")//order
		where $o/@person = $p/@id
		return count($o)`}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0] != "3" {
		t.Errorf("count items = %v, want [3]", res.Items)
	}
}
