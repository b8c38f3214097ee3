// Concurrency tests for the shared-catalog engine: one loaded corpus served
// by many simultaneous queries must (a) be data-race free (run with -race),
// (b) return exactly the sequential results, and (c) keep fixed seeds
// reproducible per call.
package rox

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/xmltree"
)

// concurrencyQueries mixes the query shapes the engine supports: step-only,
// predicate, and a cross-document equi-join.
var concurrencyQueries = []string{
	`for $p in doc("people.xml")//person return $p`,
	`for $n in doc("people.xml")//person/name return $n`,
	`for $o in doc("orders.xml")//order[./total/text() > 50] return $o`,
	`for $p in doc("people.xml")//person,
	     $o in doc("orders.xml")//order
	 where $o/@person = $p/@id
	 return $o`,
}

// baseline captures what a query must return regardless of concurrency.
type baseline struct {
	items []string
	plan  string
}

func sequentialBaselines(t *testing.T, e *Engine) (rox, static []baseline) {
	t.Helper()
	for _, q := range concurrencyQueries {
		r, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
		if err != nil {
			t.Fatalf("baseline ROX (%s): %v", q, err)
		}
		rox = append(rox, baseline{items: r.Items, plan: r.Stats.Plan})
		s, err := collectRows(e.Execute(context.Background(), Request{Query: q, Static: true}))
		if err != nil {
			t.Fatalf("baseline static (%s): %v", q, err)
		}
		static = append(static, baseline{items: s.Items, plan: s.Stats.Plan})
	}
	return rox, static
}

// TestConcurrentQueriesMatchSequential fires N goroutines × M queries (mixed
// ROX/static) against one engine and asserts every result — items and
// the chosen plan — matches the sequential baseline. With a fixed engine
// seed, every call draws the same sample stream, so even the ROX plans are
// reproducible per call.
func TestConcurrentQueriesMatchSequential(t *testing.T) {
	e := engine(t)
	roxBase, staticBase := sequentialBaselines(t, e)

	const goroutines = 8
	const iters = 6
	errs := make(chan error, goroutines*iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(concurrencyQueries)
				q := concurrencyQueries[qi]
				useStatic := (g+i)%2 == 1
				var res *Result
				var err error
				var want baseline
				if useStatic {
					res, err = collectRows(e.Execute(context.Background(), Request{Query: q, Static: true}))
					want = staticBase[qi]
				} else {
					res, err = collectRows(e.Execute(context.Background(), Request{Query: q}))
					want = roxBase[qi]
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(res.Items, want.items) {
					errs <- fmt.Errorf("goroutine %d iter %d (static=%v): items %v, want %v",
						g, i, useStatic, res.Items, want.items)
					return
				}
				if res.Stats.Plan != want.plan {
					errs <- fmt.Errorf("goroutine %d iter %d (static=%v): plan %q, want %q",
						g, i, useStatic, res.Stats.Plan, want.plan)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// loadFourWay loads four DBLP venues at a tenth of their tags into e and
// returns roxmark's c31 query over them: a four-way join whose plan has a
// hash join over an unreduced text extent.
func loadFourWay(t *testing.T, e *Engine) string {
	t.Helper()
	cfg := datagen.DefaultDBLPConfig()
	cfg.TagDivisor = 10
	var combo datagen.Combo
	for i, name := range []string{"SIGMOD", "ICDE", "VLDB", "Bioinformatics"} {
		v, ok := datagen.VenueByName(name)
		if !ok {
			t.Fatalf("no venue %q", name)
		}
		combo.Venues[i] = v
		if err := e.LoadSource(FromDocument(datagen.GenerateVenue(cfg, v))); err != nil {
			t.Fatal(err)
		}
	}
	return bench.FourWayQuery(combo)
}

// TestConcurrentReplaysMatchSequential replays the XMark join, the DBLP
// four-way and a top-k from several goroutines at once. Each replay takes
// its merge scratch and hash-join builds from the ones earlier replays
// handed back, possibly on another goroutine; the items must be exactly the
// sequential run's.
func TestConcurrentReplaysMatchSequential(t *testing.T) {
	e := NewEngine(WithSeed(1))
	if err := e.LoadSource(FromDocument(datagen.XMark(datagen.DefaultXMarkConfig()))); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < 145], $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id return $p limit 50`,
		loadFourWay(t, e),
		`for $a in doc("xmark.xml")//open_auction[reserve] order by $a/current descending return $a limit 10`,
	}
	want := make([][]string, len(queries))
	for i, q := range queries {
		res, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) == 0 {
			t.Fatalf("%.40s…: no items", q)
		}
		want[i] = res.Items
	}

	const goroutines, rounds = 4, 6
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds * len(queries) {
				qi := (g + i) % len(queries)
				res, err := collectRows(e.Execute(context.Background(), Request{Query: queries[qi]}))
				if err != nil {
					t.Errorf("goroutine %d, query %d: %v", g, qi, err)
					return
				}
				if !res.Stats.CacheHit || !reflect.DeepEqual(res.Items, want[qi]) {
					t.Errorf("goroutine %d, query %d (cache hit %v): %d items differ from the sequential run's %d",
						g, qi, res.Stats.CacheHit, len(res.Items), len(want[qi]))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentReplaysKeepFinishedResults opens cursors on a replayed
// XMark join and on a replayed path query, whose rows view its final
// relation itself, and leaves them undrained: their runs have finished and
// handed their merge scratch back, superseded relations included. Replays
// of the join and of its count, and cold four-way runs, then take that
// scratch over and over from several goroutines and fill their merge
// output with its spares. The cursors' items must still be exactly an
// uncached engine's.
func TestConcurrentReplaysKeepFinishedResults(t *testing.T) {
	const join = `let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < 145], $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id return $p limit 50`
	const count = `let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < 145], $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id return count($p)`
	const path = `for $p in doc("xmark.xml")//person[.//province] return $p`
	uncached := NewEngine(WithSeed(1), WithPlanCache(0))
	e := NewEngine(WithSeed(1))
	for _, eng := range []*Engine{uncached, e} {
		if err := eng.LoadSource(FromDocument(datagen.XMark(datagen.DefaultXMarkConfig()))); err != nil {
			t.Fatal(err)
		}
	}
	cold := NewEngine(WithSeed(1), WithPlanCache(0))
	runs := []struct {
		e     *Engine
		query string
	}{{e, join}, {e, count}, {cold, loadFourWay(t, cold)}, {e, path}}
	want := make([][]string, len(runs))
	for i, r := range runs {
		res, err := collectRows(r.e.Execute(context.Background(), Request{Query: r.query}))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) == 0 {
			t.Fatalf("%.40s…: no items", r.query)
		}
		want[i] = res.Items
	}

	cursors := map[string]*Rows{}
	for _, q := range []string{join, path} {
		rows, err := e.Execute(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Stats().CacheHit {
			t.Fatalf("%.40s…: the cursor did not replay its cached plan", q)
		}
		cursors[q] = rows
	}

	const goroutines, rounds = 4, 4
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds * len(runs) {
				ri := (g + i) % len(runs)
				res, err := collectRows(runs[ri].e.Execute(context.Background(), Request{Query: runs[ri].query}))
				if err != nil {
					t.Errorf("goroutine %d, query %d: %v", g, ri, err)
					return
				}
				if !reflect.DeepEqual(res.Items, want[ri]) {
					t.Errorf("goroutine %d, query %d: %d items differ from the sequential run's %d", g, ri, len(res.Items), len(want[ri]))
					return
				}
			}
		}()
	}
	wg.Wait()

	for q, rows := range cursors {
		wantRes, err := collectRows(uncached.Execute(context.Background(), Request{Query: q}))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for rows.Next() {
			got = append(got, rows.Item())
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantRes.Items) {
			t.Errorf("%.40s…: the undrained cursor's %d items differ from an uncached engine's %d", q, len(got), len(wantRes.Items))
		}
	}
}

// TestConcurrentReplaysShareRangeAnswers replays the XMark join with six
// price constants, more than an index remembers range answers for, from
// several goroutines, interleaved with cold runs: the same texts on an
// engine without a plan cache, and the cold DBLP four-way, whose merges fill
// their output columns with the relations earlier runs superseded. The runs
// of one constant share its remembered answer while it lasts. Each run must
// return the items of an engine that built every answer once, and
// afterwards every answer — those taken before the runs and those the
// indices return now — must still equal a scan of the text nodes: nothing
// writes into a shared answer.
func TestConcurrentReplaysShareRangeAnswers(t *testing.T) {
	prices := []int{40, 80, 120, 145, 200, 260}
	joins := make([]string, len(prices))
	for i, price := range prices {
		joins[i] = fmt.Sprintf(`let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < %d], $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id return $p limit 50`, price)
	}
	doc := datagen.XMark(datagen.DefaultXMarkConfig())
	fresh := NewEngine(WithSeed(1), WithPlanCache(0))
	e := NewEngine(WithSeed(1))
	cold := NewEngine(WithSeed(1), WithPlanCache(0))
	for _, eng := range []*Engine{fresh, e, cold} {
		if err := eng.LoadSource(FromDocument(doc)); err != nil {
			t.Fatal(err)
		}
	}
	dblp := NewEngine(WithSeed(1), WithPlanCache(0))
	fourWay := loadFourWay(t, dblp)
	type run struct {
		e      *Engine
		query  string
		replay bool
		want   []string
	}
	var runs []run
	for _, q := range joins {
		res, err := collectRows(fresh.Execute(context.Background(), Request{Query: q}))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) == 0 {
			t.Fatalf("%.90s…: no items", q)
		}
		if _, err := collectRows(e.Execute(context.Background(), Request{Query: q})); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{e, q, true, res.Items}, run{cold, q, false, res.Items})
	}
	res, err := collectRows(dblp.Execute(context.Background(), Request{Query: fourWay}))
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, run{dblp, fourWay, false, res.Items})

	// The answers taken here stay held, so each is shared with the runs
	// for as long as it keeps its slot.
	indices := make([]*index.Index, 0, 2)
	var kept [][]xmltree.NodeID
	for _, eng := range []*Engine{e, cold} {
		ix, err := plan.NewQueryEnv(eng.catalog(), nil, 0).Index("xmark.xml")
		if err != nil {
			t.Fatal(err)
		}
		indices = append(indices, ix)
		for _, price := range prices {
			kept = append(kept, ix.TextRange(index.Lt, float64(price)))
		}
	}

	const goroutines, rounds = 4, 4
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds * len(runs) {
				r := runs[(g*5+i)%len(runs)]
				res, err := collectRows(r.e.Execute(context.Background(), Request{Query: r.query}))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if res.Stats.CacheHit != r.replay || !reflect.DeepEqual(res.Items, r.want) {
					t.Errorf("goroutine %d, %.90s… (cache hit %v): %d items differ from a fresh engine's %d",
						g, r.query, res.Stats.CacheHit, len(res.Items), len(r.want))
					return
				}
			}
		}()
	}
	wg.Wait()

	for i, ix := range indices {
		for j, price := range prices {
			var want []xmltree.NodeID
			for _, n := range ix.Texts() {
				if v, ok := xmltree.ParseNumber(ix.Doc().Value(n)); ok && v < float64(price) {
					want = append(want, n)
				}
			}
			if got := ix.TextRange(index.Lt, float64(price)); !slices.Equal(got, want) {
				t.Errorf("index %d, < %d: TextRange answers %d nodes, a scan %d", i, price, len(got), len(want))
			}
			if got := kept[i*len(prices)+j]; !slices.Equal(got, want) {
				t.Errorf("index %d, < %d: the answer taken before the runs changed (%d nodes, a scan %d)", i, price, len(got), len(want))
			}
		}
	}
}

// TestConcurrentLoadAndQuery exercises the copy-on-write load path: loads of
// new documents race with queries over the already-loaded corpus. Queries
// must keep seeing a consistent catalog snapshot throughout.
func TestConcurrentLoadAndQuery(t *testing.T) {
	e := engine(t)
	want, err := collectRows(e.Execute(context.Background(), Request{Query: concurrencyQueries[3]}))
	if err != nil {
		t.Fatal(err)
	}
	const extras = 30
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < extras; i++ {
			name := fmt.Sprintf("extra-%d.xml", i)
			if err := e.LoadSource(FromXML(name, "<r><x>1</x></r>")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		res, err := collectRows(e.Execute(context.Background(), Request{Query: concurrencyQueries[3]}))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Items, want.Items) {
			t.Fatalf("iteration %d: items changed under concurrent load: %v", i, res.Items)
		}
	}
	wg.Wait()
	if n := len(e.Documents()); n != extras+2 {
		t.Fatalf("documents = %d, want %d", n, extras+2)
	}
}

// TestQueryContextCancel verifies that a canceled context aborts the
// evaluation with the context's error.
func TestQueryContextCancel(t *testing.T) {
	e := engine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := collectRows(e.Execute(ctx, Request{Query: concurrencyQueries[3]})); !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute on canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := collectRows(e.Execute(ctx, Request{Query: concurrencyQueries[3], Static: true})); !errors.Is(err, context.Canceled) {
		t.Fatalf("static Execute on canceled ctx: err = %v, want context.Canceled", err)
	}
	// A live context evaluates normally.
	res, err := collectRows(e.Execute(context.Background(), Request{Query: concurrencyQueries[0]}))
	if err != nil || len(res.Items) != 3 {
		t.Fatalf("Execute live: res = %v, err = %v", res, err)
	}
}

// TestPoolBoundedConcurrency runs many queries through a small pool and
// checks results, admission accounting and the aggregate statistics.
func TestPoolBoundedConcurrency(t *testing.T) {
	e := engine(t)
	p := NewPool(e, 2)
	if p.Workers() != 2 {
		t.Fatalf("workers = %d", p.Workers())
	}
	want, err := collectRows(e.Execute(context.Background(), Request{Query: concurrencyQueries[0]}))
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var res *Result
			var err error
			if i%2 == 0 {
				res, err = collectRows(p.Execute(ctx, Request{Query: concurrencyQueries[0]}))
			} else {
				res, err = collectRows(p.Execute(ctx, Request{Query: concurrencyQueries[0], Static: true}))
			}
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(res.Items, want.Items) {
				errs <- fmt.Errorf("pool query %d: items = %v", i, res.Items)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := p.Aggregator().Queries(); got != n {
		t.Fatalf("aggregator queries = %d, want %d", got, n)
	}
	if p.Aggregator().CostOf(metrics.PhaseExecute).Tuples == 0 {
		t.Fatal("aggregator recorded no work")
	}
}

// TestPoolCanceledBeforeStart: a pool query whose context is already done
// fails with the context error, whether it is waiting for a slot or about to
// evaluate.
func TestPoolCanceledBeforeStart(t *testing.T) {
	e := engine(t)
	p := NewPool(e, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := collectRows(p.Execute(ctx, Request{Query: concurrencyQueries[0]})); !errors.Is(err, context.Canceled) {
		t.Fatalf("pool query on canceled ctx: err = %v", err)
	}
}
