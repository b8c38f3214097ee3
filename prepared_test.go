// Tests for the prepared-query pipeline: compile → fingerprint → plan-cache
// lookup → replay, with generation-based revalidation and drift-triggered
// re-optimization. Run with -race: the cache sits on the concurrent hot path.
package rox

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestPreparedQueryCacheHit(t *testing.T) {
	e := engine(t)
	q := `
		for $p in doc("people.xml")//person,
		    $o in doc("orders.xml")//order
		where $o/@person = $p/@id
		return $o`
	prep, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Text() != q || prep.Fingerprint() == "" {
		t.Fatalf("prepared statement: text %q, fingerprint %q", prep.Text(), prep.Fingerprint())
	}

	first, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep}))
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheHit {
		t.Error("first execution should miss the cache")
	}
	if first.Stats.SampleTuples == 0 {
		t.Error("first execution should run the sampling optimizer")
	}

	second, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep}))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.CacheHit {
		t.Error("second execution should hit the cache")
	}
	if second.Stats.SampleTuples != 0 {
		t.Errorf("cache hit did sampling work: %d tuples", second.Stats.SampleTuples)
	}
	if !reflect.DeepEqual(first.Items, second.Items) {
		t.Errorf("replayed items differ:\n%v\n%v", first.Items, second.Items)
	}
	if first.Stats.Plan != second.Stats.Plan {
		t.Errorf("replayed plan %q differs from discovered %q", second.Stats.Plan, first.Stats.Plan)
	}

	cs := e.CacheStats()
	if !cs.Enabled || cs.Size != 1 {
		t.Fatalf("cache stats = %+v", cs)
	}
	if cs.Counters.Misses != 1 || cs.Counters.Hits != 1 || cs.Counters.Installs != 1 {
		t.Errorf("counters = %+v", cs.Counters)
	}
}

// TestQuerySharesCacheWithPrepared: a Request's Query and its Prepared form
// of the same query shape key to the same fingerprint, so either warms the
// other.
func TestQuerySharesCacheWithPrepared(t *testing.T) {
	e := engine(t)
	q := `for $p in doc("people.xml")//person return $p`
	if _, err := collectRows(e.Execute(context.Background(), Request{Query: q})); err != nil {
		t.Fatal(err)
	}
	prep, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit {
		t.Error("prepared execution should hit the plan the query text installed")
	}
}

// TestPrepareDeterministicFingerprint: two compiles of the same text agree —
// the property that makes the fingerprint a usable cache key.
func TestPrepareDeterministicFingerprint(t *testing.T) {
	e := engine(t)
	q := `
		for $p in doc("people.xml")//person,
		    $o in doc("orders.xml")//order
		where $o/@person = $p/@id
		return $p`
	var fps []string
	for i := 0; i < 10; i++ {
		prep, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, prep.Fingerprint())
	}
	for i, fp := range fps {
		if fp != fps[0] {
			t.Fatalf("compile %d fingerprint differs: %q vs %q", i, fp, fps[0])
		}
	}
}

func TestCacheDisabled(t *testing.T) {
	e := NewEngine(WithSeed(7), WithPlanCache(0))
	if err := e.LoadSource(FromXML("people.xml", peopleXML)); err != nil {
		t.Fatal(err)
	}
	q := `for $p in doc("people.xml")//person return $p`
	for i := 0; i < 3; i++ {
		res, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CacheHit || res.Stats.SampleTuples == 0 {
			t.Fatalf("run %d: cache disabled but hit=%v sample=%d",
				i, res.Stats.CacheHit, res.Stats.SampleTuples)
		}
	}
	if cs := e.CacheStats(); cs.Enabled {
		t.Errorf("CacheStats should report disabled: %+v", cs)
	}
}

// TestStaleGenerationRevalidates: reloading the queried document with
// identical content moves its stamp; the next query replays the cached plan,
// observes no drift, and revalidates the entry — still zero sampling work.
func TestStaleGenerationRevalidates(t *testing.T) {
	e := engine(t)
	q := `for $p in doc("people.xml")//person return $p`
	first, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadSource(FromXML("people.xml", peopleXML)); err != nil {
		t.Fatal(err)
	}
	second, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.CacheHit || second.Stats.SampleTuples != 0 {
		t.Fatalf("stale-generation replay: hit=%v sample=%d",
			second.Stats.CacheHit, second.Stats.SampleTuples)
	}
	if !reflect.DeepEqual(first.Items, second.Items) {
		t.Errorf("items changed: %v vs %v", first.Items, second.Items)
	}
	cs := e.CacheStats()
	if cs.Counters.StaleHits != 1 || cs.Counters.Drifts != 0 {
		t.Fatalf("counters = %+v, want 1 stale hit, 0 drifts", cs.Counters)
	}
	// Revalidation promoted the entry: the next lookup is exact.
	if _, err := collectRows(e.Execute(context.Background(), Request{Query: q})); err != nil {
		t.Fatal(err)
	}
	if cs := e.CacheStats(); cs.Counters.Hits < 1 {
		t.Errorf("revalidated entry should serve exact hits: %+v", cs.Counters)
	}
}

// TestUnrelatedLoadKeepsExactHit: a cached plan is current while no document
// its graph reads is reloaded, so loading some other document leaves the
// next replay an exact hit, not a stale one.
func TestUnrelatedLoadKeepsExactHit(t *testing.T) {
	e := engine(t)
	q := `for $p in doc("people.xml")//person return $p`
	if _, err := collectRows(e.Execute(context.Background(), Request{Query: q})); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadSource(FromXML("unrelated.xml", "<r><x>1</x></r>")); err != nil {
		t.Fatal(err)
	}
	res, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit || res.Stats.SampleTuples != 0 {
		t.Fatalf("replay after unrelated load: hit=%v sample=%d",
			res.Stats.CacheHit, res.Stats.SampleTuples)
	}
	if cs := e.CacheStats(); cs.Counters.Hits != 1 || cs.Counters.StaleHits != 0 {
		t.Fatalf("counters = %+v, want 1 exact hit, 0 stale hits", cs.Counters)
	}
}

// driftDoc builds a people document with n persons named after their index
// modulo 7 — reloading with a larger n shifts every intermediate cardinality
// proportionally.
func driftDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<people>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<person id="p%d"><name>n%d</name></person>`, i, i%7)
	}
	sb.WriteString("</people>")
	return sb.String()
}

// TestDriftTriggersReoptimization is the acceptance scenario: reloading a
// document with 10× the data invalidates the cached plan via cardinality
// drift, the query re-optimizes on the spot, and the results are identical
// to an engine that never cached anything.
func TestDriftTriggersReoptimization(t *testing.T) {
	const q = `for $n in doc("d.xml")//person/name return $n`
	e := NewEngine(WithSeed(7))
	if err := e.LoadSource(FromXML("d.xml", driftDoc(40))); err != nil {
		t.Fatal(err)
	}
	warm, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHit {
		t.Fatal("first query cannot hit")
	}

	// Reload the same name with 10× the data: same fingerprint, new
	// generation, every cardinality 10× the expectation.
	if err := e.LoadSource(FromXML("d.xml", driftDoc(400))); err != nil {
		t.Fatal(err)
	}
	res, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Error("drifted replay must not count as a served cache hit")
	}
	if !res.Stats.Reoptimized {
		t.Error("10× reload should re-optimize")
	}
	if res.Stats.SampleTuples == 0 {
		t.Error("re-optimization should do sampling work")
	}
	if len(res.Items) != 400 {
		t.Fatalf("rows after reload = %d, want 400", len(res.Items))
	}

	// Ground truth: an uncached engine over the same reloaded corpus.
	plain := NewEngine(WithSeed(7), WithPlanCache(0))
	if err := plain.LoadSource(FromXML("d.xml", driftDoc(400))); err != nil {
		t.Fatal(err)
	}
	truth, err := collectRows(plain.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Items, truth.Items) {
		t.Error("re-optimized results differ from uncached ground truth")
	}

	cs := e.CacheStats()
	if cs.Counters.Drifts != 1 {
		t.Fatalf("drift count = %d, want 1: %+v", cs.Counters.Drifts, cs.Counters)
	}
	// The re-optimized plan was installed: the follow-up is a clean hit.
	again, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Stats.CacheHit || again.Stats.SampleTuples != 0 {
		t.Errorf("post-drift query: hit=%v sample=%d, want hit with zero sampling",
			again.Stats.CacheHit, again.Stats.SampleTuples)
	}
	if !reflect.DeepEqual(again.Items, truth.Items) {
		t.Error("post-drift cached results differ from ground truth")
	}
}

// TestIdenticalReloadNoDrift: reloading byte-identical data bumps the
// generation but must not drift — the plan survives via revalidation.
func TestIdenticalReloadNoDrift(t *testing.T) {
	const q = `for $n in doc("d.xml")//person/name return $n`
	e := NewEngine(WithSeed(7))
	if err := e.LoadSource(FromXML("d.xml", driftDoc(60))); err != nil {
		t.Fatal(err)
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Query: q})); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadSource(FromXML("d.xml", driftDoc(60))); err != nil {
		t.Fatal(err)
	}
	res, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit || res.Stats.Reoptimized {
		t.Errorf("identical reload: hit=%v reopt=%v, want hit without re-optimization",
			res.Stats.CacheHit, res.Stats.Reoptimized)
	}
	if cs := e.CacheStats(); cs.Counters.Drifts != 0 {
		t.Errorf("identical reload drifted: %+v", cs.Counters)
	}
}

// TestPreparedConcurrent hammers one Prepared from many goroutines (run with
// -race): items must always match the sequential baseline, and once warmed
// every execution replays.
func TestPreparedConcurrent(t *testing.T) {
	e := engine(t)
	prep, err := e.Prepare(`
		for $p in doc("people.xml")//person,
		    $o in doc("orders.xml")//order
		where $o/@person = $p/@id
		return $o`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep}))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const iters = 10
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep}))
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Items, want.Items) {
					errs <- fmt.Errorf("concurrent prepared items = %v", res.Items)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cs := e.CacheStats()
	if total := cs.Counters.Hits + cs.Counters.StaleHits; total < goroutines*iters {
		t.Errorf("hits = %d, want >= %d", total, goroutines*iters)
	}
}

func TestPreparedContextCancel(t *testing.T) {
	e := engine(t)
	prep, err := e.Prepare(`for $p in doc("people.xml")//person return $p`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := collectRows(e.Execute(ctx, Request{Prepared: prep})); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled prepared query: err = %v", err)
	}
	// Cancellation during a cache-hit replay must also propagate.
	if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil {
		t.Fatal(err)
	}
	if _, err := collectRows(e.Execute(ctx, Request{Prepared: prep})); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled replay: err = %v", err)
	}
}

// TestCacheLRUBound: a 2-entry cache holds only the two most recent shapes.
func TestCacheLRUBound(t *testing.T) {
	e := NewEngine(WithSeed(7), WithPlanCache(2))
	if err := e.LoadSource(FromXML("people.xml", peopleXML)); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`for $p in doc("people.xml")//person return $p`,
		`for $n in doc("people.xml")//person/name return $n`,
		`for $c in doc("people.xml")//person/city return $c`,
	}
	for _, q := range queries {
		if _, err := collectRows(e.Execute(context.Background(), Request{Query: q})); err != nil {
			t.Fatal(err)
		}
	}
	cs := e.CacheStats()
	if cs.Size != 2 || cs.Counters.Evictions != 1 {
		t.Fatalf("cache size = %d, evictions = %d, want 2 and 1", cs.Size, cs.Counters.Evictions)
	}
	// The evicted first query misses again.
	res, err := collectRows(e.Execute(context.Background(), Request{Query: queries[0]}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Error("evicted query should not hit")
	}
}

// TestPoolPrepared: prepared execution through the bounded pool, plus the
// cache-stats plumbing servers read.
func TestPoolPrepared(t *testing.T) {
	e := engine(t)
	p := NewPool(e, 2)
	prep, err := e.Prepare(`for $p in doc("people.xml")//person return $p`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := collectRows(e.Execute(context.Background(), Request{Query: `for $p in doc("people.xml")//person return $p`}))
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := collectRows(p.Execute(context.Background(), Request{Prepared: prep}))
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(res.Items, want.Items) {
				errs <- fmt.Errorf("pool prepared items = %v", res.Items)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := p.Aggregator().Queries(); got != n {
		t.Errorf("aggregator queries = %d, want %d", got, n)
	}
	cs := e.CacheStats()
	if !cs.Enabled || cs.Counters.Hits+cs.Counters.StaleHits < n {
		t.Errorf("pool cache stats = %+v", cs)
	}
	// A statement prepared on a different engine is rejected.
	other := NewEngine()
	if err := other.LoadSource(FromXML("people.xml", peopleXML)); err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Prepare(`for $p in doc("people.xml")//person return $p`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collectRows(p.Execute(context.Background(), Request{Prepared: foreign})); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("foreign prepared statement: err = %v, want ErrInvalidRequest", err)
	}
}

// TestStatsRowsMatchesItems: Stats.Rows == len(Items) on every path,
// including count($v) queries (which collapse to a single item) and cached
// replays of them.
func TestStatsRowsMatchesItems(t *testing.T) {
	e := engine(t)
	cases := []string{
		`for $p in doc("people.xml")//person return $p`,
		`for $p in doc("people.xml")//person,
		     $o in doc("orders.xml")//order
		 where $o/@person = $p/@id
		 return count($o)`,
	}
	for _, q := range cases {
		for round := 0; round < 2; round++ { // round 2 exercises the replay path
			res, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Rows != len(res.Items) {
				t.Errorf("round %d: Rows = %d, len(Items) = %d (%s)",
					round, res.Stats.Rows, len(res.Items), q)
			}
		}
		stat, err := collectRows(e.Execute(context.Background(), Request{Query: q, Static: true}))
		if err != nil {
			t.Fatal(err)
		}
		if stat.Stats.Rows != len(stat.Items) {
			t.Errorf("static: Rows = %d, len(Items) = %d (%s)",
				stat.Stats.Rows, len(stat.Items), q)
		}
	}
	// The count query joins 3 order/person pairs but returns one item.
	res, err := collectRows(e.Execute(context.Background(), Request{Query: cases[1]}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rows != 1 || res.Items[0] != "3" {
		t.Errorf("count query: Rows = %d, items = %v, want 1 and [3]", res.Stats.Rows, res.Items)
	}
}

// TestNoSuchDocumentTyped: the unloaded-document failure is matchable with
// errors.Is and carries the name through errors.As.
func TestNoSuchDocumentTyped(t *testing.T) {
	e := engine(t)
	_, err := e.XPath("missing.xml", "//a")
	if !errors.Is(err, ErrNoSuchDocument) {
		t.Fatalf("errors.Is(err, ErrNoSuchDocument) = false for %v", err)
	}
	var nse *NoSuchDocumentError
	if !errors.As(err, &nse) || nse.Name != "missing.xml" {
		t.Fatalf("errors.As: got %+v", nse)
	}
	_, err = e.XPathCount("gone.xml", "//a")
	if !errors.Is(err, ErrNoSuchDocument) {
		t.Fatalf("XPathCount: errors.Is = false for %v", err)
	}
	if !strings.Contains(err.Error(), "gone.xml") {
		t.Errorf("error text lost the document name: %v", err)
	}
	// The full query pipeline translates the catalog failure too.
	_, err = collectRows(e.Execute(context.Background(), Request{Query: `for $x in doc("absent.xml")//a return $x`}))
	if !errors.Is(err, ErrNoSuchDocument) {
		t.Fatalf("Execute: errors.Is = false for %v", err)
	}
	if !errors.As(err, &nse) || nse.Name != "absent.xml" {
		t.Fatalf("Execute errors.As: got %+v", nse)
	}
	_, err = collectRows(e.Execute(context.Background(), Request{Query: `for $x in doc("absent.xml")//a return $x`, Static: true}))
	if !errors.Is(err, ErrNoSuchDocument) {
		t.Fatalf("static Execute: errors.Is = false for %v", err)
	}
}

// TestPreparedMatchesUnprepared: a Request carrying query text and one
// carrying the same text prepared are one pipeline — Join Graph Isolation
// compiles both to the same graph and cache key — and Pool.Execute is
// Engine.Execute behind an admission slot. So every combination of the two
// fields and the two entry points, each on a fresh engine with the same seed,
// returns byte-identical items and identical Stats (Elapsed aside), cold and
// on the replay, which is a cache hit for every non-static shape. One window
// rule covers both fields: a zero window keeps the text's own limit clause,
// and an aggregate takes a zero window without complaint.
func TestPreparedMatchesUnprepared(t *testing.T) {
	const doc = `for $n in doc("ppl.xml")//person/name return $n`
	shapes := []struct {
		name, q       string
		static        bool
		limit, offset int
		items         int
	}{
		{name: "document", q: doc, items: 40},
		{name: "4-shard collection", q: `for $n in collection("ppl")//person/name return $n`, items: 40},
		{name: "static", q: doc, static: true, items: 40},
		{name: "order by", q: `for $p in doc("ppl.xml")//person order by $p/age descending return $p`, items: 40},
		{name: "aggregate", q: `for $p in doc("ppl.xml")//person return sum($p/salary)`, items: 1},
		{name: "text limit", q: `for $p in doc("ppl.xml")//person return $p limit 1`, items: 1},
		{name: "programmatic window", q: doc, limit: 7, offset: 3, items: 7},
	}
	newEng := func(t *testing.T) *Engine {
		t.Helper()
		eng := NewEngine(WithSeed(3))
		if err := eng.LoadSource(FromXML("ppl.xml", pricedShardXML(0, 40))); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := eng.LoadCollectionSource("ppl", FromXML(fmt.Sprintf("ppl-%d.xml", i), pricedShardXML(10*i, 10))); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}
	// withoutElapsed zeroes the one wall-clock field, per shard too.
	withoutElapsed := func(s Stats) Stats {
		s.ElapsedNS = 0
		s.Shards = slices.Clone(s.Shards)
		for i := range s.Shards {
			s.Shards[i].Stats.ElapsedNS = 0
		}
		return s
	}
	type path struct {
		name     string
		prepared bool
		pooled   bool
	}
	paths := []path{
		{"Engine/Query", false, false},
		{"Engine/Prepared", true, false},
		{"Pool/Query", false, true},
		{"Pool/Prepared", true, true},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var ref [2]*Result
			for i, p := range paths {
				eng := newEng(t)
				req := Request{Query: sh.q, Static: sh.static, Limit: sh.limit, Offset: sh.offset}
				if p.prepared {
					prep, err := eng.Prepare(sh.q)
					if err != nil {
						t.Fatal(err)
					}
					req.Query, req.Prepared = "", prep
				}
				execute := eng.Execute
				if p.pooled {
					execute = NewPool(eng, 2).Execute
				}
				for run := range 2 {
					res, err := collectRows(execute(context.Background(), req))
					if err != nil {
						t.Fatalf("%s run %d: %v", p.name, run+1, err)
					}
					if len(res.Items) != sh.items {
						t.Fatalf("%s run %d: %d items, want %d", p.name, run+1, len(res.Items), sh.items)
					}
					if hit := res.Stats.CacheHit; run == 1 && hit == sh.static {
						t.Errorf("%s replay: CacheHit = %v on a static=%v shape", p.name, hit, sh.static)
					}
					if i == 0 {
						ref[run] = res
						continue
					}
					assertSameItems(t, p.name, ref[run].Items, res.Items)
					if got, want := withoutElapsed(res.Stats), withoutElapsed(ref[run].Stats); !reflect.DeepEqual(got, want) {
						t.Errorf("%s run %d: Stats %+v\n%s run %d: Stats %+v", p.name, run+1, got, paths[0].name, run+1, want)
					}
				}
			}
			if sh.static && ref[1].Stats.SampleTuples != 0 {
				t.Errorf("static replay sampled %d tuples: not the baseline plan", ref[1].Stats.SampleTuples)
			}
		})
	}

	// Every malformed Request is the caller's mistake, on both entry points.
	eng := newEng(t)
	foreign, err := newEng(t).Prepare(doc)
	if err != nil {
		t.Fatal(err)
	}
	own, err := eng.Prepare(doc)
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]Request{
		"foreign statement": {Prepared: foreign},
		"both fields":       {Query: doc, Prepared: own},
		"neither field":     {},
		"malformed query":   {Query: `for $p in doc("d.xml")//p give-back $p`},
	} {
		for _, execute := range []func(context.Context, Request) (*Rows, error){eng.Execute, NewPool(eng, 1).Execute} {
			if _, err := collectRows(execute(context.Background(), req)); !errors.Is(err, ErrInvalidRequest) {
				t.Errorf("%s: err = %v, want ErrInvalidRequest", name, err)
			}
		}
	}
}
