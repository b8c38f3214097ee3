// Benchmarks of the physical operators, the ROX and classical end-to-end
// pipelines and the engine's serving paths (prepared, concurrent, scattered,
// streaming). The paper's tables and figures are printed by cmd/roxbench,
// not re-run here:
//
//	go test -run '^$' -bench . -benchmem
//	go run ./cmd/roxbench -exp all
package rox

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/classical"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/planenum"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// --- Micro benchmarks of the physical operators. ---

func microDoc(n int) (*xmltree.Document, *index.Index) {
	rng := rand.New(rand.NewSource(7))
	bld := xmltree.NewBuilder("micro.xml")
	bld.StartElem("root")
	for i := 0; i < n; i++ {
		bld.StartElem("a")
		bld.StartElem("b")
		bld.Text(string(rune('a' + rng.Intn(26))))
		bld.EndElem()
		bld.EndElem()
	}
	bld.EndElem()
	d := bld.MustBuild()
	return d, index.New(d)
}

func BenchmarkStaircaseDesc(b *testing.B) {
	d, ix := microDoc(5000)
	C := []xmltree.NodeID{d.Root()}
	S := ix.Elements("b")
	rec := metrics.NewRecorder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops.StaircaseSemi(rec, d, ops.AxisDesc, C, S)
	}
}

func BenchmarkStaircaseChildPairs(b *testing.B) {
	d, ix := microDoc(5000)
	C := ix.Elements("a")
	S := ix.Elements("b")
	rec := metrics.NewRecorder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops.StepPairs(rec, d, ops.AxisChild, C, S, 0)
	}
}

func BenchmarkHashValueJoin(b *testing.B) {
	d, ix := microDoc(5000)
	texts := ix.Texts()
	rec := metrics.NewRecorder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops.HashJoinPairs(rec, d, texts, d, texts, 0)
	}
}

func BenchmarkNLIndexJoinSampled(b *testing.B) {
	d, ix := microDoc(5000)
	texts := ix.Texts()
	rec := metrics.NewRecorder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The zero-investment sampled form: 100-tuple outer, cut off at 100.
		ops.NLIndexJoinPairs(rec, d, texts[:100], ops.TextProbe(ix), 100)
	}
}

func BenchmarkShred(b *testing.B) {
	cfg := datagen.DefaultXMarkConfig()
	cfg.Persons, cfg.Items, cfg.OpenAuctions = 200, 150, 100
	d := datagen.XMark(cfg)
	text := xmltree.SerializeString(d, d.Root())
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.ParseString("x.xml", text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	cfg := datagen.DefaultXMarkConfig()
	d := datagen.XMark(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.New(d)
	}
}

// BenchmarkROXEndToEnd runs the full pipeline (compile → optimize+execute →
// tail) on the XMark query.
func BenchmarkROXEndToEnd(b *testing.B) {
	cfg := datagen.DefaultXMarkConfig()
	d := datagen.XMark(cfg)
	comp, err := xquery.CompileString(`
		let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < 145],
		    $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id
		return $p`, xquery.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ix := index.New(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := plan.NewEnv(metrics.NewRecorder(), int64(i))
		env.AddIndexed(ix)
		if _, _, err := core.Run(env, comp.Graph, comp.Tail, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassicalEndToEnd runs the same query through the classical
// baseline for comparison.
func BenchmarkClassicalEndToEnd(b *testing.B) {
	cfg := datagen.DefaultXMarkConfig()
	d := datagen.XMark(cfg)
	comp, err := xquery.CompileString(`
		let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < 145],
		    $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id
		return $p`, xquery.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ix := index.New(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := plan.NewEnv(metrics.NewRecorder(), int64(i))
		env.AddIndexed(ix)
		pl, err := classical.StaticPlan(env, comp.Graph)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := plan.Run(env, comp.Graph, pl, comp.Tail); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanEnumeration measures the Sec 4.2 tool.
func BenchmarkPlanEnumeration(b *testing.B) {
	combo := datagen.Combo{}
	for i, n := range []string{"VLDB", "ICDE", "ICIP", "ADBIS"} {
		v, _ := datagen.VenueByName(n)
		combo.Venues[i] = v
	}
	comp, fw, err := bench.CompileCombo(combo)
	if err != nil {
		b.Fatal(err)
	}
	_ = comp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range planenum.EnumerateJoinOrders4() {
			for _, p := range planenum.Placements() {
				if _, err := fw.BuildPlan(o, p); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// --- Concurrent serving benches: one shared catalog, many queries. ---

// concurrencyBenchEngine loads one XMark document into an engine; queries
// then share its immutable catalog. The plan cache is disabled so these
// benchmarks keep measuring the full optimizer path under concurrency (the
// cached hot path has its own benches, BenchmarkPreparedQuery*).
func concurrencyBenchEngine() (*Engine, string) {
	cfg := datagen.DefaultXMarkConfig()
	d := datagen.XMark(cfg)
	e := NewEngine(WithSeed(1), WithPlanCache(0))
	_ = e.LoadSource(FromDocument(d))
	q := `
		let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < 145],
		    $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id
		return $p`
	return e, q
}

// BenchmarkSequentialQuery is the single-goroutine baseline for
// BenchmarkConcurrentQuery: full engine path (compile → ROX optimize+execute
// → serialize), one query at a time.
func BenchmarkSequentialQuery(b *testing.B) {
	e, q := concurrencyBenchEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collectRows(e.Execute(context.Background(), Request{Query: q})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentQuery measures read-scaling over the shared immutable
// catalog: GOMAXPROCS goroutines evaluate the same query concurrently, each
// with its own per-query Env. Compare ns/op against BenchmarkSequentialQuery
// — with no shared mutable state on the query path, throughput should scale
// near-linearly with cores:
//
//	go test -bench 'Sequential|Concurrent' -benchtime 3s
func BenchmarkConcurrentQuery(b *testing.B) {
	e, q := concurrencyBenchEngine()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := collectRows(e.Execute(context.Background(), Request{Query: q})); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkConcurrentQueryPool is BenchmarkConcurrentQuery through the
// bounded Pool front end (admission + aggregation overhead included).
func BenchmarkConcurrentQueryPool(b *testing.B) {
	e, q := concurrencyBenchEngine()
	p := NewPool(e, 0)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := collectRows(p.Execute(ctx, Request{Query: q})); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --- Prepared-query benches: the repeated-workload hot path. ---

// BenchmarkColdQuery is the no-cache baseline for BenchmarkPreparedQuery:
// every iteration pays compile + the full ROX sampling loop, the cost a
// production workload of repeated queries would pay per request without the
// plan cache.
func BenchmarkColdQuery(b *testing.B) {
	cfg := datagen.DefaultXMarkConfig()
	d := datagen.XMark(cfg)
	e := NewEngine(WithSeed(1), WithPlanCache(0))
	_ = e.LoadSource(FromDocument(d))
	q := `
		let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < 145],
		    $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id
		return $p`
	var sampled int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
		if err != nil {
			b.Fatal(err)
		}
		sampled = res.Stats.SampleTuples
	}
	b.ReportMetric(float64(sampled), "sample-tuples/op")
}

// BenchmarkPreparedQuery measures the cache-hit hot path: compile once
// (Prepare), then every iteration replays the cached plan with zero sampling
// work. Compare ns/op and sample-tuples/op against BenchmarkColdQuery:
//
//	go test -bench 'ColdQuery|PreparedQuery' -benchtime 3s
func BenchmarkPreparedQuery(b *testing.B) {
	cfg := datagen.DefaultXMarkConfig()
	d := datagen.XMark(cfg)
	e := NewEngine(WithSeed(1))
	_ = e.LoadSource(FromDocument(d))
	prep, err := e.Prepare(`
		let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < 145],
		    $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id
		return $p`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep}))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Stats.CacheHit || res.Stats.SampleTuples != 0 {
			b.Fatalf("hot path fell off the cache: hit=%v sample=%d",
				res.Stats.CacheHit, res.Stats.SampleTuples)
		}
	}
	b.ReportMetric(0, "sample-tuples/op")
}

// BenchmarkPreparedQueryConcurrent is the prepared hot path under
// GOMAXPROCS-way concurrency — the shape of a server replaying one popular
// query.
func BenchmarkPreparedQueryConcurrent(b *testing.B) {
	cfg := datagen.DefaultXMarkConfig()
	d := datagen.XMark(cfg)
	e := NewEngine(WithSeed(1))
	_ = e.LoadSource(FromDocument(d))
	prep, err := e.Prepare(`
		let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < 145],
		    $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id
		return $p`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkXPathEval measures Engine.XPath, a path executed as a FLWOR
// query, on the XMark document.
func BenchmarkXPathEval(b *testing.B) {
	e := NewEngine()
	if err := e.LoadSource(FromDocument(datagen.XMark(datagen.DefaultXMarkConfig()))); err != nil {
		b.Fatal(err)
	}
	exprs := []string{
		"//open_auction/bidder/personref",
		"//item[./quantity = 1]/name",
		"//person[@id='person7']",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range exprs {
			if _, err := e.XPath("xmark.xml", p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Sharded-collection benches: the scatter-gather path. ---

// scatterBenchEngine loads the default XMark corpus split into 4 shards of
// collection "xmark" next to an engine holding it as one document, so the
// scatter-gather overhead is measurable against the single-catalog baseline.
func scatterBenchEngine(shards int) *Engine {
	cfg := datagen.DefaultXMarkConfig()
	e := NewEngine(WithSeed(1))
	for _, d := range datagen.XMarkShards(cfg, shards) {
		_ = e.LoadCollectionSource("xmark", FromDocument(d))
	}
	return e
}

const scatterBenchQuery = `for $p in collection("xmark")//person[.//province] return $p`

// BenchmarkCollectionScatterCold runs the full per-shard ROX sampling loop
// on every iteration (cache disabled): 4 independent optimizations plus the
// ordered merge tail.
func BenchmarkCollectionScatterCold(b *testing.B) {
	cfg := datagen.DefaultXMarkConfig()
	e := NewEngine(WithSeed(1), WithPlanCache(0))
	for _, d := range datagen.XMarkShards(cfg, 4) {
		_ = e.LoadCollectionSource("xmark", FromDocument(d))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collectRows(e.Execute(context.Background(), Request{Query: scatterBenchQuery})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrderedQuery measures the ordering tail on the cached hot path:
// replay the plan, extract one key per result tuple, stable-sort, serialize.
func BenchmarkOrderedQuery(b *testing.B) {
	cfg := datagen.DefaultXMarkConfig()
	e := NewEngine(WithSeed(1))
	_ = e.LoadSource(FromDocument(datagen.XMark(cfg)))
	prep, err := e.Prepare(
		`for $a in doc("xmark.xml")//open_auction[reserve] order by $a/current descending return $a`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep}))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Rows != len(res.Items) {
			b.Fatalf("Rows = %d, items = %d", res.Stats.Rows, len(res.Items))
		}
	}
}

// BenchmarkAggregateScatter measures a scatter-gather aggregate on the cached
// hot path: per-shard replay + exact partial-sum fold, algebraic merge of the
// four shard states.
func BenchmarkAggregateScatter(b *testing.B) {
	e := scatterBenchEngine(4)
	prep, err := e.Prepare(`for $a in collection("xmark")//open_auction return sum($a/initial)`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil { // warm the per-shard caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep}))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Rows != 1 {
			b.Fatalf("aggregate Rows = %d, want 1", res.Stats.Rows)
		}
	}
}

// BenchmarkCollectionScatterCached measures the steady-state hot path of a
// sharded corpus: per-shard plan-cache hits, zero sampling, concurrent shard
// replay, in-order merge.
func BenchmarkCollectionScatterCached(b *testing.B) {
	e := scatterBenchEngine(4)
	prep, err := e.Prepare(scatterBenchQuery)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil { // warm the per-shard caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep}))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.SampleTuples != 0 {
			b.Fatalf("cached scatter sampled %d tuples", res.Stats.SampleTuples)
		}
	}
}

// --- Streaming-cursor and limit-pushdown benches. ---

// limitScatterEngine loads the default XMark corpus split into 12 shards —
// the early-termination showcase: limit 10 needs roughly one shard's output,
// so the gather cancels the other eleven mid-join.
func limitScatterEngine(cacheSize int) *Engine {
	cfg := datagen.DefaultXMarkConfig()
	e := NewEngine(WithSeed(1), WithPlanCache(cacheSize))
	for _, d := range datagen.XMarkShards(cfg, 12) {
		_ = e.LoadCollectionSource("xmark", FromDocument(d))
	}
	return e
}

const limitScatterQuery = `for $p in collection("xmark")//person return $p limit 10`
const limitScatterFullQuery = `for $p in collection("xmark")//person return $p`

// BenchmarkLimitScatterCold: limit 10 over 12 shards with the cache
// disabled. The gather stops after ten merged items and cancels the shards
// it never consumed, so most of the 12 per-shard sampling loops abort early —
// compare against BenchmarkLimitScatterFullDrain, the same corpus and query
// without the window.
func BenchmarkLimitScatterCold(b *testing.B) {
	e := limitScatterEngine(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := collectRows(e.Execute(context.Background(), Request{Query: limitScatterQuery}))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Rows != 10 {
			b.Fatalf("Rows = %d, want 10", res.Stats.Rows)
		}
	}
}

// BenchmarkLimitScatterCached: the steady-state page-one hot path — per-shard
// plan-cache replay, early-terminating merge, ten serialized items.
func BenchmarkLimitScatterCached(b *testing.B) {
	e := limitScatterEngine(DefaultPlanCacheSize)
	prep, err := e.Prepare(limitScatterQuery)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil { // warm the per-shard caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep}))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Rows != 10 {
			b.Fatalf("Rows = %d, want 10", res.Stats.Rows)
		}
	}
}

// BenchmarkLimitScatterFullDrain is the no-window comparator for the two
// benches above: the identical 12-shard corpus and query, every shard
// replayed and merged to completion. The committed baseline pins the
// early-termination win: LimitScatterCached must stay well under this.
func BenchmarkLimitScatterFullDrain(b *testing.B) {
	e := limitScatterEngine(DefaultPlanCacheSize)
	prep, err := e.Prepare(limitScatterFullQuery)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil { // warm the per-shard caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingQuery drives the cursor API end to end on the cached
// single-catalog path: replay, then incremental serialization through
// Rows.Next — the per-item overhead of the streaming surface against
// BenchmarkPreparedQuery's materializing drain.
func BenchmarkStreamingQuery(b *testing.B) {
	cfg := datagen.DefaultXMarkConfig()
	e := NewEngine(WithSeed(1))
	_ = e.LoadSource(FromDocument(datagen.XMark(cfg)))
	prep, err := e.Prepare(`for $p in doc("xmark.xml")//person[.//province] return $p`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil { // warm the cache
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := e.Execute(ctx, Request{Prepared: prep})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Close(); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("streamed zero rows")
		}
	}
}
