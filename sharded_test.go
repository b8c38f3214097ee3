package rox

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
)

// newXMarkEngines builds the two sides of the equivalence contract: one
// engine holding the whole XMark corpus as a single document, and one holding
// the same corpus pre-split into n shards of collection "xmark".
func newXMarkEngines(t *testing.T, n int) (single, sharded *Engine) {
	t.Helper()
	cfg := datagen.DefaultXMarkConfig()
	cfg.Persons, cfg.Items, cfg.OpenAuctions = 200, 120, 100
	single = NewEngine()
	_ = single.LoadSource(FromDocument(datagen.XMark(cfg)))
	sharded = NewEngine()
	for _, d := range datagen.XMarkShards(cfg, n) {
		_ = sharded.LoadCollectionSource("xmark", FromDocument(d))
	}
	return single, sharded
}

// TestCollectionEquivalence is the sharding contract: a collection() query
// over the XMark corpus split into 4 shards returns results byte-identical
// to the same corpus loaded as a single catalog — for ordered item queries
// and for count() aggregates.
func TestCollectionEquivalence(t *testing.T) {
	single, sharded := newXMarkEngines(t, 4)
	queries := []struct {
		name            string
		docQ, collQ     string
		wantAtLeastRows int
	}{
		{
			name:            "ordered persons with education",
			docQ:            `for $p in doc("xmark.xml")//person[education] return $p`,
			collQ:           `for $p in collection("xmark")//person[education] return $p`,
			wantAtLeastRows: 10,
		},
		{
			name:            "ordered two-variable constructor within auctions",
			docQ:            `for $a in doc("xmark.xml")//open_auction[reserve], $b in $a/bidder where $a/current > 150 return <hit>{$b}</hit>`,
			collQ:           `for $a in collection("xmark")//open_auction[reserve], $b in $a/bidder where $a/current > 150 return <hit>{$b}</hit>`,
			wantAtLeastRows: 10,
		},
		{
			name:            "count of bidders in reserved auctions",
			docQ:            `for $b in doc("xmark.xml")//open_auction[reserve]//bidder return count($b)`,
			collQ:           `for $b in collection("xmark")//open_auction[reserve]//bidder return count($b)`,
			wantAtLeastRows: 1,
		},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			want, err := collectRows(single.Execute(context.Background(), Request{Query: q.docQ}))
			if err != nil {
				t.Fatalf("single-catalog query: %v", err)
			}
			got, err := collectRows(sharded.Execute(context.Background(), Request{Query: q.collQ}))
			if err != nil {
				t.Fatalf("collection query: %v", err)
			}
			if len(want.Items) < q.wantAtLeastRows {
				t.Fatalf("degenerate test corpus: only %d rows", len(want.Items))
			}
			if len(got.Items) != len(want.Items) {
				t.Fatalf("row count: sharded %d, single %d", len(got.Items), len(want.Items))
			}
			for i := range want.Items {
				if got.Items[i] != want.Items[i] {
					t.Fatalf("item %d differs:\nsharded: %s\nsingle:  %s", i, got.Items[i], want.Items[i])
				}
			}
			if len(got.Stats.Shards) != 4 {
				t.Errorf("ShardStats count = %d, want 4", len(got.Stats.Shards))
			}
		})
	}
}

// TestCollectionAggregateOrderEquivalence extends the sharding contract to
// the aggregation/ordering tail: every aggregate (sum, avg, min, max over
// decimal-valued paths — the exact partial-sum merge keeps grouping
// invisible) and every order by (numeric and string keys, ascending and
// descending, ties included) must be byte-identical between the single
// catalog and the same corpus split into 4 and 12 shards — on the cold
// scatter AND on the prepared plan-cache replay.
func TestCollectionAggregateOrderEquivalence(t *testing.T) {
	queries := []struct {
		name, docQ, collQ string
	}{
		{
			name:  "sum of decimal initial prices",
			docQ:  `for $a in doc("xmark.xml")//open_auction return sum($a/initial)`,
			collQ: `for $a in collection("xmark")//open_auction return sum($a/initial)`,
		},
		{
			name:  "avg of reserves over reserved auctions",
			docQ:  `for $a in doc("xmark.xml")//open_auction[reserve] return avg($a/reserve)`,
			collQ: `for $a in collection("xmark")//open_auction[reserve] return avg($a/reserve)`,
		},
		{
			name:  "min bidder increase",
			docQ:  `for $b in doc("xmark.xml")//open_auction//bidder return min($b/increase)`,
			collQ: `for $b in collection("xmark")//open_auction//bidder return min($b/increase)`,
		},
		{
			name:  "max current price",
			docQ:  `for $a in doc("xmark.xml")//open_auction return max($a/current)`,
			collQ: `for $a in collection("xmark")//open_auction return max($a/current)`,
		},
		{
			name:  "order by integer key descending with ties",
			docQ:  `for $a in doc("xmark.xml")//open_auction where $a/current > 100 order by $a/current descending return $a`,
			collQ: `for $a in collection("xmark")//open_auction where $a/current > 100 order by $a/current descending return $a`,
		},
		{
			name:  "order by string attribute key",
			docQ:  `for $p in doc("xmark.xml")//person[education] order by $p/@id return $p`,
			collQ: `for $p in collection("xmark")//person[education] order by $p/@id return $p`,
		},
		{
			name:  "order by all-equal key is pure stability",
			docQ:  `for $p in doc("xmark.xml")//person[education] order by $p/education return $p`,
			collQ: `for $p in collection("xmark")//person[education] order by $p/education return $p`,
		},
	}
	for _, shards := range []int{4, 12} {
		single, sharded := newXMarkEngines(t, shards)
		for _, q := range queries {
			t.Run(fmt.Sprintf("%d-shard/%s", shards, q.name), func(t *testing.T) {
				want, err := collectRows(single.Execute(context.Background(), Request{Query: q.docQ}))
				if err != nil {
					t.Fatalf("single-catalog query: %v", err)
				}
				prep, err := sharded.Prepare(q.collQ)
				if err != nil {
					t.Fatalf("prepare: %v", err)
				}
				cold, err := collectRows(sharded.Execute(context.Background(), Request{Prepared: prep}))
				if err != nil {
					t.Fatalf("cold scatter: %v", err)
				}
				assertSameItems(t, "cold scatter", want.Items, cold.Items)
				replay, err := collectRows(sharded.Execute(context.Background(), Request{Prepared: prep}))
				if err != nil {
					t.Fatalf("prepared replay: %v", err)
				}
				assertSameItems(t, "prepared replay", want.Items, replay.Items)
				if !replay.Stats.CacheHit || replay.Stats.SampleTuples != 0 {
					t.Errorf("replay: CacheHit=%v SampleTuples=%d, want per-shard hits with zero sampling",
						replay.Stats.CacheHit, replay.Stats.SampleTuples)
				}
				if len(cold.Stats.Shards) != shards {
					t.Errorf("ShardStats count = %d, want %d", len(cold.Stats.Shards), shards)
				}
				if cold.Stats.Rows != len(cold.Items) {
					t.Errorf("Stats.Rows = %d, len(Items) = %d", cold.Stats.Rows, len(cold.Items))
				}
			})
		}
	}
}

// assertSameItems fails on the first differing item (byte comparison).
func assertSameItems(t *testing.T, phase string, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, single catalog has %d", phase, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: item %d differs:\nsharded: %s\nsingle:  %s", phase, i, got[i], want[i])
		}
	}
}

// pricedShardXML builds one people shard whose persons carry numeric ages and
// decimal salaries (stress for the exact partial-sum merge) starting at id
// base.
func pricedShardXML(base, n int) string {
	var sb strings.Builder
	sb.WriteString("<people>")
	for i := 0; i < n; i++ {
		id := base + i
		fmt.Fprintf(&sb, `<person id="p%04d"><name>n%d</name><age>%d</age><salary>%d.%02d</salary></person>`,
			id, id, 20+(id*7)%50, 1000+(id*37)%900, (id*53)%100)
	}
	sb.WriteString("</people>")
	return sb.String()
}

// TestShardedAggregateDriftEquivalence is the acceptance contract's drift
// leg: after one shard is reloaded with 10× the data, prepared aggregate and
// order-by queries must re-optimize that shard only and still return results
// byte-identical to a single catalog holding the same post-reload corpus.
func TestShardedAggregateDriftEquivalence(t *testing.T) {
	shardSpans := [][2]int{{0, 30}, {100, 30}, {200, 30}} // {base, n} per shard
	sharded := NewEngine()
	for i, sp := range shardSpans {
		if err := sharded.LoadCollectionSource("ppl", FromXML(fmt.Sprintf("ppl-%d.xml", i), pricedShardXML(sp[0], sp[1]))); err != nil {
			t.Fatal(err)
		}
	}
	singleFor := func(spans [][2]int) *Engine {
		var sb strings.Builder
		sb.WriteString("<people>")
		for _, sp := range spans {
			inner := pricedShardXML(sp[0], sp[1])
			sb.WriteString(strings.TrimSuffix(strings.TrimPrefix(inner, "<people>"), "</people>"))
		}
		sb.WriteString("</people>")
		eng := NewEngine()
		if err := eng.LoadSource(FromXML("ppl.xml", sb.String())); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	queries := []struct{ name, collQ, docQ string }{
		{"sum", `for $p in collection("ppl")//person return sum($p/salary)`,
			`for $p in doc("ppl.xml")//person return sum($p/salary)`},
		{"avg", `for $p in collection("ppl")//person return avg($p/salary)`,
			`for $p in doc("ppl.xml")//person return avg($p/salary)`},
		{"min", `for $p in collection("ppl")//person return min($p/age)`,
			`for $p in doc("ppl.xml")//person return min($p/age)`},
		{"max", `for $p in collection("ppl")//person return max($p/salary)`,
			`for $p in doc("ppl.xml")//person return max($p/salary)`},
		{"order by age desc", `for $p in collection("ppl")//person order by $p/age descending return $p`,
			`for $p in doc("ppl.xml")//person order by $p/age descending return $p`},
	}
	preps := make([]*Prepared, len(queries))
	for i, q := range queries {
		p, err := sharded.Prepare(q.collQ)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		preps[i] = p
	}

	single := singleFor(shardSpans)
	for i, q := range queries {
		want, err := collectRows(single.Execute(context.Background(), Request{Query: q.docQ}))
		if err != nil {
			t.Fatalf("%s single: %v", q.name, err)
		}
		for _, phase := range []string{"cold", "replay"} {
			got, err := collectRows(sharded.Execute(context.Background(), Request{Prepared: preps[i]}))
			if err != nil {
				t.Fatalf("%s %s: %v", q.name, phase, err)
			}
			assertSameItems(t, q.name+" "+phase, want.Items, got.Items)
			if phase == "replay" && (!got.Stats.CacheHit || got.Stats.SampleTuples != 0) {
				t.Errorf("%s replay missed the cache: CacheHit=%v SampleTuples=%d",
					q.name, got.Stats.CacheHit, got.Stats.SampleTuples)
			}
		}
	}

	// Reload the middle shard with 10× the data — far beyond the drift ratio.
	shardSpans[1] = [2]int{100, 300}
	if err := sharded.LoadCollectionSource("ppl", FromXML("ppl-1.xml", pricedShardXML(shardSpans[1][0], shardSpans[1][1]))); err != nil {
		t.Fatal(err)
	}
	single = singleFor(shardSpans)
	for i, q := range queries {
		want, err := collectRows(single.Execute(context.Background(), Request{Query: q.docQ}))
		if err != nil {
			t.Fatalf("%s single after reload: %v", q.name, err)
		}
		drift, err := collectRows(sharded.Execute(context.Background(), Request{Prepared: preps[i]}))
		if err != nil {
			t.Fatalf("%s drift query: %v", q.name, err)
		}
		assertSameItems(t, q.name+" drift", want.Items, drift.Items)
		if !drift.Stats.Reoptimized {
			t.Errorf("%s: reloaded shard did not re-optimize", q.name)
		}
		for _, sh := range drift.Stats.Shards {
			if sh.Shard != "ppl-1.xml" && (!sh.Stats.CacheHit || sh.Stats.SampleTuples != 0) {
				t.Errorf("%s: untouched shard %s lost its cached plan", q.name, sh.Shard)
			}
		}
		settled, err := collectRows(sharded.Execute(context.Background(), Request{Prepared: preps[i]}))
		if err != nil {
			t.Fatalf("%s settled query: %v", q.name, err)
		}
		assertSameItems(t, q.name+" settled", want.Items, settled.Items)
		if !settled.Stats.CacheHit || settled.Stats.SampleTuples != 0 {
			t.Errorf("%s settled run missed the cache: CacheHit=%v SampleTuples=%d",
				q.name, settled.Stats.CacheHit, settled.Stats.SampleTuples)
		}
	}
}

// TestCollectionShardStatsRollup checks that the scatter-gather Stats add up:
// top-level tuple counters are the per-shard sums and every shard reports its
// own plan.
func TestCollectionShardStatsRollup(t *testing.T) {
	_, sharded := newXMarkEngines(t, 4)
	res, err := collectRows(sharded.Execute(context.Background(), Request{Query: `for $p in collection("xmark")//person[education] return $p`}))
	if err != nil {
		t.Fatal(err)
	}
	var exec, sample, interm int64
	rows := 0
	for _, sh := range res.Stats.Shards {
		exec += sh.Stats.ExecTuples
		sample += sh.Stats.SampleTuples
		interm += sh.Stats.CumulativeIntermediate
		rows += sh.Stats.Rows
		if sh.Stats.Plan == "" {
			t.Errorf("shard %s reports no plan", sh.Shard)
		}
		if sh.Stats.SampleTuples == 0 {
			t.Errorf("shard %s did no sampling on a cold query", sh.Shard)
		}
	}
	if res.Stats.ExecTuples != exec || res.Stats.SampleTuples != sample ||
		res.Stats.CumulativeIntermediate != interm {
		t.Errorf("rollup mismatch: top (%d, %d, %d) vs shard sums (%d, %d, %d)",
			res.Stats.ExecTuples, res.Stats.SampleTuples, res.Stats.CumulativeIntermediate,
			exec, sample, interm)
	}
	if rows != res.Stats.Rows {
		t.Errorf("shard rows sum %d != top rows %d", rows, res.Stats.Rows)
	}
	if !strings.HasPrefix(res.Stats.Plan, "scatter(xmark/") {
		t.Errorf("top-level plan = %q, want scatter(xmark/…)", res.Stats.Plan)
	}
}

// shardXML builds a small people shard with n persons, m of which carry the
// marker element the test queries select on.
func shardXML(n, m int) string {
	var sb strings.Builder
	sb.WriteString("<people>")
	for i := 0; i < n; i++ {
		if i < m {
			fmt.Fprintf(&sb, `<person id="p%d"><name>n%d</name><marker>yes</marker></person>`, i, i)
		} else {
			fmt.Fprintf(&sb, `<person id="p%d"><name>n%d</name></person>`, i, i)
		}
	}
	sb.WriteString("</people>")
	return sb.String()
}

// TestShardReloadInvalidatesOnlyThatShard is the per-shard cache-invalidation
// contract: after reloading one shard with drastically different data, the
// next query replays cached plans on the untouched shards (zero sampling)
// and re-optimizes only the reloaded one.
func TestShardReloadInvalidatesOnlyThatShard(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("ppl-%d.xml", i)
		if err := eng.LoadCollectionSource("ppl", FromXML(name, shardXML(40, 40))); err != nil {
			t.Fatal(err)
		}
	}
	const q = `for $p in collection("ppl")//person[marker] return $p`

	cold, err := collectRows(eng.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.CacheHit {
		t.Fatalf("cold query reported a cache hit")
	}
	warm, err := collectRows(eng.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.CacheHit || warm.Stats.SampleTuples != 0 {
		t.Fatalf("warm query: CacheHit=%v SampleTuples=%d, want hit with zero sampling",
			warm.Stats.CacheHit, warm.Stats.SampleTuples)
	}

	// Reload the middle shard with 10× the data: far beyond the drift ratio.
	if err := eng.LoadCollectionSource("ppl", FromXML("ppl-1.xml", shardXML(400, 400))); err != nil {
		t.Fatal(err)
	}
	res, err := collectRows(eng.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Shards) != 3 {
		t.Fatalf("shard stats count = %d", len(res.Stats.Shards))
	}
	for _, sh := range res.Stats.Shards {
		switch sh.Shard {
		case "ppl-1.xml":
			if !sh.Stats.Reoptimized {
				t.Errorf("reloaded shard was not re-optimized (CacheHit=%v SampleTuples=%d)",
					sh.Stats.CacheHit, sh.Stats.SampleTuples)
			}
		default:
			if !sh.Stats.CacheHit || sh.Stats.SampleTuples != 0 {
				t.Errorf("untouched shard %s lost its cached plan: CacheHit=%v SampleTuples=%d",
					sh.Shard, sh.Stats.CacheHit, sh.Stats.SampleTuples)
			}
		}
	}
	if res.Stats.Rows != 40+400+40 {
		t.Errorf("rows after reload = %d, want 480", res.Stats.Rows)
	}

	// And the shard settles: the re-optimized plan serves the next query.
	settled, err := collectRows(eng.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if !settled.Stats.CacheHit || settled.Stats.SampleTuples != 0 {
		t.Errorf("post-reload query should fully hit: CacheHit=%v SampleTuples=%d",
			settled.Stats.CacheHit, settled.Stats.SampleTuples)
	}
}

// citiesXML builds a document of n cities whose ages cycle through
// pricedShardXML's 20..69, so every person joins n/50 cities by age.
func citiesXML(n int) string {
	var sb strings.Builder
	sb.WriteString("<cities>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<city id="c%d"><age>%d</age></city>`, i, 20+i%50)
	}
	sb.WriteString("</cities>")
	return sb.String()
}

// joinedCityQuery joins collection("ppl") with doc("cities.xml").
const joinedCityQuery = `for $p in collection("ppl")//person, $c in doc("cities.xml")//city
	where $p/age = $c/age return $p`

// checkShardLadder runs joinedCityQuery after cities.xml was reloaded with
// far more cities: every shard must replay stale, see drift and re-optimize
// once, and the run after must be exact hits with no sampling.
func checkShardLadder(t *testing.T, eng *Engine, wantRows int) {
	t.Helper()
	res, err := collectRows(eng.Execute(context.Background(), Request{Query: joinedCityQuery}))
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range res.Stats.Shards {
		if !sh.Stats.Reoptimized || sh.Stats.SampleTuples == 0 {
			t.Errorf("shard %s after the joined document's reload: Reoptimized=%v SampleTuples=%d, want a re-optimization",
				sh.Shard, sh.Stats.Reoptimized, sh.Stats.SampleTuples)
		}
	}
	if res.Stats.Rows != wantRows {
		t.Errorf("rows after reload = %d, want %d", res.Stats.Rows, wantRows)
	}
	settled, err := collectRows(eng.Execute(context.Background(), Request{Query: joinedCityQuery}))
	if err != nil {
		t.Fatal(err)
	}
	if !settled.Stats.CacheHit || settled.Stats.SampleTuples != 0 {
		t.Errorf("run after re-optimization: CacheHit=%v SampleTuples=%d, want exact hits",
			settled.Stats.CacheHit, settled.Stats.SampleTuples)
	}
}

// TestShardPlansFollowJoinedDocument: a shard's cached plan is current only
// while every document its graph reads is unchanged — the joined
// doc("cities.xml") as much as the shard itself. Reloading cities.xml with
// 50× the cities must stale every shard's plan, not replay it blindly.
func TestShardPlansFollowJoinedDocument(t *testing.T) {
	eng := NewEngine()
	for i, base := range []int{0, 100} {
		if err := eng.LoadCollectionSource("ppl", FromXML(fmt.Sprintf("ppl-%d.xml", i), pricedShardXML(base, 30))); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.LoadSource(FromXML("cities.xml", citiesXML(50))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // discover, then confirm the exact hits
		res, err := collectRows(eng.Execute(context.Background(), Request{Query: joinedCityQuery}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Rows != 60 || res.Stats.CacheHit != (i == 1) {
			t.Fatalf("warm-up run %d: rows=%d CacheHit=%v", i, res.Stats.Rows, res.Stats.CacheHit)
		}
	}
	if err := eng.LoadSource(FromXML("cities.xml", citiesXML(2500))); err != nil {
		t.Fatal(err)
	}
	checkShardLadder(t, eng, 3000)
	if c := eng.CacheStats().Counters; c.StaleHits != 2 || c.Drifts != 2 {
		t.Errorf("counters = %+v, want one stale hit and one drift per shard", c)
	}
}

// TestCollectionPrepared runs a collection query through Prepare: compile
// once, scatter on every call, cache per shard.
func TestCollectionPrepared(t *testing.T) {
	_, sharded := newXMarkEngines(t, 3)
	prep, err := sharded.Prepare(`for $p in collection("xmark")//person[education] return $p`)
	if err != nil {
		t.Fatal(err)
	}
	first, err := collectRows(sharded.Execute(context.Background(), Request{Prepared: prep}))
	if err != nil {
		t.Fatal(err)
	}
	second, err := collectRows(sharded.Execute(context.Background(), Request{Prepared: prep}))
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Items) == 0 || len(first.Items) != len(second.Items) {
		t.Fatalf("prepared runs disagree: %d vs %d items", len(first.Items), len(second.Items))
	}
	if !second.Stats.CacheHit || second.Stats.SampleTuples != 0 {
		t.Errorf("second prepared run: CacheHit=%v SampleTuples=%d, want full per-shard hits",
			second.Stats.CacheHit, second.Stats.SampleTuples)
	}
}

// TestCollectionConcurrent hammers one sharded engine from many goroutines
// (run under -race) and checks every result matches the sequential answer.
func TestCollectionConcurrent(t *testing.T) {
	_, sharded := newXMarkEngines(t, 4)
	const q = `for $p in collection("xmark")//person[education] return $p`
	want, err := collectRows(sharded.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(sharded, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := collectRows(pool.Execute(context.Background(), Request{Query: q}))
			if err != nil {
				errs <- err
				return
			}
			if len(res.Items) != len(want.Items) {
				errs <- fmt.Errorf("got %d items, want %d", len(res.Items), len(want.Items))
				return
			}
			for i := range want.Items {
				if res.Items[i] != want.Items[i] {
					errs <- fmt.Errorf("item %d differs", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCollectionCancellation: a canceled context aborts the scatter instead
// of evaluating every shard.
func TestCollectionCancellation(t *testing.T) {
	_, sharded := newXMarkEngines(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := collectRows(sharded.Execute(ctx, Request{Query: `for $p in collection("xmark")//person[education] return $p`}))
	if err == nil {
		t.Fatal("canceled collection query succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// TestCollectionErrors covers the failure surface of the collection API.
func TestCollectionErrors(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadCollectionSource("a", FromXML("a-0.xml", `<r><x>1</x></r>`)); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadCollectionSource("b", FromXML("b-0.xml", `<r><x>1</x></r>`)); err != nil {
		t.Fatal(err)
	}

	t.Run("unknown collection", func(t *testing.T) {
		_, err := collectRows(eng.Execute(context.Background(), Request{Query: `for $x in collection("nope")//x return $x`}))
		if !errors.Is(err, ErrNoSuchCollection) {
			t.Errorf("err = %v, want ErrNoSuchCollection", err)
		}
		var nce *NoSuchCollectionError
		if !errors.As(err, &nce) || nce.Name != "nope" {
			t.Errorf("err carries name %v, want nope", err)
		}
	})
	t.Run("two collections in one query", func(t *testing.T) {
		_, err := collectRows(eng.Execute(context.Background(), Request{Query: `for $x in collection("a")//x, $y in collection("b")//x return $x`}))
		if err == nil || !strings.Contains(err.Error(), "at most one collection") {
			t.Errorf("err = %v, want at-most-one-collection failure", err)
		}
	})
	t.Run("static baseline rejects collections", func(t *testing.T) {
		_, err := collectRows(eng.Execute(context.Background(), Request{Query: `for $x in collection("a")//x return $x`, Static: true}))
		if !errors.Is(err, ErrStaticCollection) {
			t.Errorf("err = %v, want ErrStaticCollection", err)
		}
	})
	t.Run("name used as both doc and collection", func(t *testing.T) {
		_, err := collectRows(eng.Execute(context.Background(), Request{Query: `for $x in collection("a")//x, $y in doc("a")//x return $x`}))
		if err == nil || !strings.Contains(err.Error(), "both doc") {
			t.Errorf("err = %v, want doc/collection conflict failure", err)
		}
	})
	t.Run("unknown shard document still typed", func(t *testing.T) {
		// doc() addressing of a shard that does not exist keeps the document
		// error surface.
		_, err := collectRows(eng.Execute(context.Background(), Request{Query: `for $x in doc("a-9.xml")//x return $x`}))
		if !errors.Is(err, ErrNoSuchDocument) {
			t.Errorf("err = %v, want ErrNoSuchDocument", err)
		}
	})
}

// TestCollectionShardsAccessors covers the registry accessors.
func TestCollectionShardsAccessors(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 3; i++ {
		if err := eng.LoadCollectionSource("c", FromXML(fmt.Sprintf("s%d.xml", i), `<r><x>v</x></r>`)); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Collections(); len(got) != 1 || got[0] != "c" {
		t.Errorf("Collections() = %v", got)
	}
	shards, err := eng.CollectionShards("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 || shards[0] != "s0.xml" || shards[2] != "s2.xml" {
		t.Errorf("CollectionShards = %v, want registration order s0..s2", shards)
	}
	if _, err := eng.CollectionShards("nope"); !errors.Is(err, ErrNoSuchCollection) {
		t.Errorf("CollectionShards(nope) err = %v", err)
	}
	// Shards are documents too.
	docs := eng.Documents()
	if len(docs) != 3 {
		t.Errorf("Documents() = %v, want the 3 shards", docs)
	}
}

// TestShardReloadViaDocPath: shards double as documents, so reloading one
// through the plain document path (LoadSource under the shard's name) must move
// that shard's generation stamp exactly like LoadCollectionSource — otherwise
// cached per-shard plans would replay against changed data without drift
// verification.
func TestShardReloadViaDocPath(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 3; i++ {
		if err := eng.LoadCollectionSource("ppl", FromXML(fmt.Sprintf("ppl-%d.xml", i), shardXML(40, 40))); err != nil {
			t.Fatal(err)
		}
	}
	const q = `for $p in collection("ppl")//person[marker] return $p`
	if _, err := collectRows(eng.Execute(context.Background(), Request{Query: q})); err != nil {
		t.Fatal(err)
	}

	// Reload the middle shard through the *document* API with 10x the data.
	if err := eng.LoadSource(FromXML("ppl-1.xml", shardXML(400, 400))); err != nil {
		t.Fatal(err)
	}
	res, err := collectRows(eng.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rows != 40+400+40 {
		t.Fatalf("rows = %d, want 480 (doc-path reload must be visible to the collection)", res.Stats.Rows)
	}
	for _, sh := range res.Stats.Shards {
		switch sh.Shard {
		case "ppl-1.xml":
			if !sh.Stats.Reoptimized {
				t.Errorf("doc-path reloaded shard was not re-optimized: CacheHit=%v SampleTuples=%d",
					sh.Stats.CacheHit, sh.Stats.SampleTuples)
			}
		default:
			if !sh.Stats.CacheHit || sh.Stats.SampleTuples != 0 {
				t.Errorf("untouched shard %s lost its cached plan", sh.Shard)
			}
		}
	}
}
