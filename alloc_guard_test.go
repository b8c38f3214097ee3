//go:build !race

package rox

import (
	"context"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// The allocation guard: a per-row allocation that creeps back into edge
// execution, the aggregate fold or item rendering fails here, in `go test`,
// before it reaches roxmark. Each ceiling is ≈ 25 % above the count (or
// bytes) measured when it was written (default XMark scale, go1.24); the
// counts scale with the result rows, so a per-row regression overshoots a
// ceiling many times over. The
// race detector changes what escapes, so the file is excluded under -race
// and ci.yml runs `go test -run Alloc ./...` without it.

func allocsPerQuery(t *testing.T, query string) float64 {
	t.Helper()
	run := replayer(t, query)
	runtime.GC() // see bytesPerRun
	return testing.AllocsPerRun(20, run)
}

// replayer loads the default XMark document, runs query once to optimize it
// and returns a function that replays the cached plan.
func replayer(t *testing.T, query string) func() {
	t.Helper()
	e := NewEngine(WithSeed(1))
	_ = e.LoadSource(FromDocument(datagen.XMark(datagen.DefaultXMarkConfig())))
	run := func() {
		res, err := collectRows(e.Execute(context.Background(), Request{Query: query}))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) == 0 {
			t.Fatal("query returned no items")
		}
	}
	run() // optimize once; every measured run replays the cached plan
	return run
}

// bytesPerRun is testing.AllocsPerRun for bytes: the runtime.MemStats
// TotalAlloc delta over runs calls of f, per call, on one P as AllocsPerRun
// measures it. A collection comes first, so that none is likely to fall
// inside the measured runs: it would free the scratch one query hands the
// next, and the run after it would allocate that scratch again.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// replayedJoin is the paper's Sec 3.2 query, windowed like roxmark's join
// class so that edge execution, not item rendering, is what is counted.
const replayedJoin = `let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < 145], $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id return $p limit 50`

func TestAllocGuardReplayedJoin(t *testing.T) {
	// Measured 189: the index remembers the price predicate's answer (191
	// when it is rebuilt per query), the relations a finished query's
	// merges superseded are the next query's merge output columns (207
	// without), the merge
	// scratch and the hash join's build come back from the previous query
	// (236 without), each edge's pairs are reserved
	// at the cardinality the cached plan observed, a first edge's pairs
	// become its relation, pair groups are counted before they are filled,
	// T(v) is refreshed only where a later step reads it, a merge copies no
	// column of a vertex nothing reads again, and the Env's generator is
	// never built (255 with the dead
	// columns copied; 387 before the rest; 530 when vertex tables copied the
	// index, a refreshed T(v) cloned its column and step pairs grew per edge;
	// 5 851 with a hash map and a slice per context node in every merge).
	const ceiling = 239
	if got := allocsPerQuery(t, replayedJoin); got > ceiling {
		t.Errorf("replayed join: %.0f allocations per query, ceiling %d", got, ceiling)
	}
}

func TestAllocGuardReplayedJoinBytes(t *testing.T) {
	// The object count above cannot see a copy of a whole index extent or
	// column, which is one allocation however large. Bytes can. Measured
	// 28 509 (44 765 when the index rebuilds the answer of the price
	// predicate on every query instead of remembering it; 73 392 when
	// every merge output column is allocated fresh
	// instead of reusing the relations the previous query superseded;
	// 109 497 when Runner.Finish does not hand the merge scratch
	// back; 130 231 when neither it nor the hash join's build was recycled;
	// 161 474 when every merge copies the columns of vertices no later step
	// and no tail reads; 204 166 before the pair buffers were sized from the
	// plan cache and owned by the relation; 382 107 with VertexTable copying
	// each extent, DistinctNodes cloning each column and the step pairs
	// growing per edge). The ceiling is ≈ 5 % above, not 25 %: merges that
	// stop drawing on the spares, scratch that is not handed back, copying
	// the dead columns again, pair buffers growing from empty, the extent
	// copy, the column clone or a range answer built again each cost more;
	// each must fail here.
	const ceiling = 30_000
	if got := bytesPerRun(20, replayer(t, replayedJoin)); got > ceiling {
		t.Errorf("replayed join: %.0f bytes per query, ceiling %d", got, ceiling)
	}
}

// coldFourWay loads four DBLP venues at a tenth of their tags into an engine
// without a plan cache and returns a function running roxmark's c31 query on
// them: every call compiles it, chain-samples and executes the joins — the
// paper's Sec 4 cold run — and one of the joins is a hash join over an
// unreduced text extent.
func coldFourWay(t *testing.T) func() {
	t.Helper()
	e := NewEngine(WithSeed(1), WithPlanCache(0))
	query := loadFourWay(t, e)
	run := func() {
		res, err := collectRows(e.Execute(context.Background(), Request{Query: query}))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) == 0 {
			t.Fatal("query returned no items")
		}
	}
	run()
	return run
}

func TestAllocGuardColdFourWay(t *testing.T) {
	// Measured 618: the optimizer samples into, and chain sampling builds
	// its candidates in, a recycled scratch (core.chainScratch), the
	// optimizer's loop reuses its edge lists, and the run records no trace
	// (636 with the sampling's pair buffer growing from empty in every run;
	// 642 with the loop's lists allocated per iteration too; 785 with only
	// the trace on request, each candidate a fresh pathState, edge list and
	// copy of its sampled pairs; 818 with a trace on every run; 835 when
	// first-edge pairs grow from empty instead of reserving the optimizer's
	// estimate; 862 when in addition every merge output column is allocated
	// fresh instead of reusing the relations the previous query superseded;
	// 885 before merge scratch and hash join builds were recycled across
	// queries): sampled pairs live in one buffer, restricted probes filter
	// in place, the value index is the hash join's build side over an
	// unreduced extent, and the optimizer looks edges up in lists built
	// once and draws samples without a map (3 230 when each of those
	// allocated; 1 839 with a slice per restricted probe alone). The
	// ceiling is ≈ 5 % above: a trace on every run, or a chain scratch
	// that is not handed back, fails here.
	const ceiling = 649
	if got := testing.AllocsPerRun(20, coldFourWay(t)); got > ceiling {
		t.Errorf("cold four-way: %.0f allocations per query, ceiling %d", got, ceiling)
	}
}

func TestAllocGuardColdFourWayBytes(t *testing.T) {
	// Measured 74 213 with the sampling in a recycled scratch and no trace
	// (82 438 with the sampling's pair buffer growing from empty in every
	// run; 82 951 with the optimizer's loop allocating its edge lists per
	// iteration too; 122 193 with only the trace on request, a quarter of
	// it the copies of each candidate's sampled pairs; 128 488 with a trace
	// on every run; 138 523 when first-edge pairs grow from empty instead
	// of reserving the optimizer's estimate; 164 634 when in addition every
	// merge output column is allocated fresh; 175 136 before merge scratch
	// and hash join builds were recycled, 523 379 before the change above).
	// The ceiling is ≈ 5 % above: a cold run that stops reserving, merges
	// that stop drawing on the spares, a sampling pair buffer that grows
	// from empty, or chain sampling that copies its candidates' inputs into
	// fresh arrays again, fail here. A hash table built over the unreduced
	// extent instead of probing the index is recycled too, so bytes no
	// longer see it; TestExecEdgeHashOverExtentBuildsNothing
	// (internal/plan) catches it with the free list emptied.
	const ceiling = 78_000
	if got := bytesPerRun(20, coldFourWay(t)); got > ceiling {
		t.Errorf("cold four-way: %.0f bytes per query, ceiling %d", got, ceiling)
	}
}

func TestAllocGuardSumAggregate(t *testing.T) {
	// Measured 63: nothing per row (96 with pair buffers growing per run and
	// an eager generator, 569 when StringValue built a string per leaf
	// element, 3 112 when matchNodes materialized Children per row).
	const ceiling = 79
	got := allocsPerQuery(t, `for $a in doc("xmark.xml")//open_auction return sum($a/initial)`)
	if got > ceiling {
		t.Errorf("sum aggregate: %.0f allocations per query, ceiling %d", got, ceiling)
	}
}

func TestAllocGuardTopK(t *testing.T) {
	// roxmark's topk class: the key sort keeps ten keyed rows in a heap and
	// reads each key as the dictionary's own string. Measured 85 (127 with
	// pair buffers growing per run and an eager generator, 418 with a string
	// per key and a reflective stable sort over every row).
	const ceiling = 106
	got := allocsPerQuery(t, `for $a in doc("xmark.xml")//open_auction[reserve]
		order by $a/current descending return $a limit 10`)
	if got > ceiling {
		t.Errorf("top-k: %.0f allocations per query, ceiling %d", got, ceiling)
	}
}

func TestAllocGuardShardReplayBytes(t *testing.T) {
	// A replayed 4-shard aggregate: five Envs (the gather's and one per
	// shard) and one small edge per shard, so fixed per-run costs dominate.
	// Measured 18 778 bytes (57 137 when every replay grew its pair buffers
	// from empty, copied a first edge's pairs and built five generators).
	// The ceiling is ≈ 9 % above: the first edge's relation copying its
	// pairs again costs 22 364, pair buffers growing from empty 23 322, and
	// building each Env's generator eagerly 45 528; each must fail here.
	const ceiling = 20_500
	e := NewEngine(WithSeed(1))
	for _, d := range datagen.XMarkShards(datagen.DefaultXMarkConfig(), 4) {
		_ = e.LoadCollectionSource("xmark", FromDocument(d))
	}
	run := func() {
		res, err := collectRows(e.Execute(context.Background(), Request{
			Query: `for $a in collection("xmark")//open_auction return sum($a/initial)`}))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) == 0 {
			t.Fatal("query returned no items")
		}
	}
	run() // optimize once; every measured run replays the cached plans
	if got := bytesPerRun(20, run); got > ceiling {
		t.Errorf("replayed shard sum: %.0f bytes per query, ceiling %d", got, ceiling)
	}
}

func TestAllocGuardReplayedTailOverlay(t *testing.T) {
	// A replayed sum and top-k over a 4-shard collection with a pending
	// ingest overlay on every shard: each shard's tail reads its key path's
	// element postings level by level, base then delta, as views. Measured
	// 261 and 328 allocations, 20 436 and 44 044 bytes. Concatenating the
	// levels, as index.Elements does on an overlay, costs one allocation and
	// ≈ 420 bytes per shard (265 and 332 allocations, 22 100 and 45 708
	// bytes), and so does a walker allocating per path step; the ceilings
	// leave two allocations and ≈ 2.5 % bytes of slack, so either fails here.
	e := NewEngine(WithSeed(1))
	for _, d := range datagen.XMarkShards(datagen.DefaultXMarkConfig(), 4) {
		if err := e.LoadCollectionSource("xmark", FromDocument(d)); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 { // round-robin: one appended auction per shard
		if err := e.Append("xmark", `<open_auction id="ingested"><initial>12.5</initial>`+
			`<reserve>3</reserve><current>40</current></open_auction>`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, query   string
		allocs, bytes float64
	}{
		{"sum", `for $a in collection("xmark")//open_auction return sum($a/initial)`, 263, 20_950},
		{"top-k", `for $a in collection("xmark")//open_auction[reserve]
			order by $a/current descending return $a limit 10`, 330, 45_150},
	} {
		run := func() {
			res, err := collectRows(e.Execute(context.Background(), Request{Query: c.query}))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Items) == 0 {
				t.Fatal("query returned no items")
			}
		}
		run() // optimize once; every measured run replays the cached plans
		if got := testing.AllocsPerRun(20, run); got > c.allocs {
			t.Errorf("overlay %s: %.0f allocations per query, ceiling %.0f", c.name, got, c.allocs)
		}
		if got := bytesPerRun(20, run); got > c.bytes {
			t.Errorf("overlay %s: %.0f bytes per query, ceiling %.0f", c.name, got, c.bytes)
		}
	}
}

func TestAllocGuardRenderedScan(t *testing.T) {
	// roxmark's scan class drained the way the NDJSON path drains it: each
	// row is rendered into the cursor's one buffer and read through
	// ItemBytes, so 200 rows cost what 1 row costs plus the few doublings
	// that grow the buffer to the largest item. Measured 175 for both (4 470
	// against 190 when renderItem went through two strings.Builders, Children
	// and Attributes slices and an xml.EscapeText round trip per text node).
	const slack = 8
	e := NewEngine(WithSeed(1))
	_ = e.LoadSource(FromDocument(datagen.XMark(datagen.DefaultXMarkConfig())))
	drain := func(limit, want int) func() {
		return func() {
			rows, err := e.Execute(context.Background(), Request{
				Query: `for $p in doc("xmark.xml")//person[.//province] return $p`, Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			n, size := 0, 0
			for rows.Next() {
				n++
				size += len(rows.ItemBytes())
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			if n != want || size == 0 {
				t.Fatalf("limit %d drained %d items, %d bytes", limit, n, size)
			}
		}
	}
	drain(200, 200)() // optimize once; every measured run replays the cached plan
	one := testing.AllocsPerRun(20, drain(1, 1))
	all := testing.AllocsPerRun(20, drain(200, 200))
	if all > one+slack {
		t.Errorf("rendered scan: 200 items allocate %.0f, 1 item %.0f: rendering allocates per item", all, one)
	}
}

func TestAllocGuardScatterScan(t *testing.T) {
	// The same drain over a 4-shard collection: the gather hands each local
	// shard's item to Rows straight from that shard cursor's own buffer. The
	// order by makes every shard finish its join before the first item goes
	// out, so no cancellation races the count. Measured 568 for both (810
	// against 591 when the gather copied each item into a string to push it
	// through a channel).
	const slack = 8
	e := NewEngine(WithSeed(1))
	for _, d := range datagen.XMarkShards(datagen.DefaultXMarkConfig(), 4) {
		_ = e.LoadCollectionSource("xmark", FromDocument(d))
	}
	drain := func(limit int) func() {
		return func() {
			rows, err := e.Execute(context.Background(), Request{
				Query: `for $p in collection("xmark")//person[.//province] order by $p/@id return $p`, Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			n, size := 0, 0
			for rows.Next() {
				n++
				size += len(rows.ItemBytes())
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			if n != limit || size == 0 {
				t.Fatalf("limit %d drained %d items, %d bytes", limit, n, size)
			}
		}
	}
	drain(200)() // optimize once; every measured run replays the cached plans
	one := testing.AllocsPerRun(20, drain(1))
	all := testing.AllocsPerRun(20, drain(200))
	if all > one+slack {
		t.Errorf("scatter scan: 200 items allocate %.0f, 1 item %.0f: the gather allocates per item", all, one)
	}
}

func TestAllocGuardRemoteWindowBytes(t *testing.T) {
	// Windowed queries over 4 remote shards on 2 in-process shard servers,
	// both ends of the wire counted. The gather reads a window-cut stream's
	// rest instead of aborting it, and both ends recycle their wire buffers,
	// so a query dials no connection and allocates no 4 KiB stream reader or
	// line buffer. Measured 86 700 bytes for the topk and 95 300 for the
	// scan (176 600 and 129 900 while window-cut streams were aborted). The
	// deep page (offset 40 of 50 reserve auctions per shard) runs bounded by
	// the start its first run remembered: measured 77 500 bytes, against
	// 94 700 when every shard shipped offset+count items. The plain window
	// (limit 20, which shard 0 fills) opens shard 0 alone once its first run
	// remembered that: measured 20 168 bytes, against 52 700 when all four
	// shards ran and shipped 20 persons each. The ceilings are the
	// measurements plus about 5 %.
	shards := datagen.XMarkShards(datagen.DefaultXMarkConfig(), 4)
	var endpoints []Endpoint
	for _, half := range [][]*xmltree.Document{shards[:2], shards[2:]} {
		srv := NewEngine(WithSeed(1))
		for _, d := range half {
			_ = srv.LoadSource(FromDocument(d))
		}
		_, ts := newShardServer(t, srv)
		endpoints = append(endpoints, Endpoint{URL: ts.URL})
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	e := NewEngine(WithSeed(1), WithShardHTTPClient(&http.Client{Transport: tr}))
	if err := e.LoadCollectionRemote(context.Background(), "xmark", endpoints); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		query   string
		ceiling float64
	}{
		{"topk", `for $a in collection("xmark")//open_auction[reserve] order by $a/current descending return $a limit 10`, 108_000},
		{"scan", `for $p in collection("xmark")//person[.//province] return $p limit 200`, 119_000},
		{"plain window", `for $p in collection("xmark")//person[.//province] return $p limit 20`, 21_500},
		{"deep page", `for $a in collection("xmark")//open_auction[reserve] order by $a/initial return $a limit 10 offset 40`, 81_400},
	} {
		run := func() {
			if _, err := collectRows(e.Execute(context.Background(), Request{Query: c.query})); err != nil {
				t.Fatal(err)
			}
		}
		run() // optimize once on both ends; fill the idle pool; learn the deep page's start
		if got := bytesPerRun(50, run); got > c.ceiling {
			t.Errorf("remote %s: %.0f bytes per query, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

func TestAllocGuardRepeatedText(t *testing.T) {
	// The statement cache: a repeated query text runs the statement Prepare
	// would have returned — no compile, no fingerprint, over a collection no
	// shard rebinds — so it allocates no more than that prepared statement.
	// Measured 530 against 530 for the join and 504 against 504 for the
	// 4-shard top-k; before the cache the texts cost 657 and 599, their
	// statements 530 and 534 (the statement, too, rebound every shard).
	e := NewEngine(WithSeed(1))
	cfg := datagen.DefaultXMarkConfig()
	_ = e.LoadSource(FromDocument(datagen.XMark(cfg)))
	for _, d := range datagen.XMarkShards(cfg, 4) {
		_ = e.LoadCollectionSource("xmark", FromDocument(d))
	}
	for _, q := range []string{
		`let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < 145], $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id return $p limit 50`,
		`for $a in collection("xmark")//open_auction[reserve] order by $a/current descending return $a limit 10`,
	} {
		p, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		run := func(req Request) func() {
			return func() {
				res, err := collectRows(e.Execute(context.Background(), req))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Items) == 0 {
					t.Fatal("query returned no items")
				}
			}
		}
		run(Request{Query: q})() // optimize once; every measured run replays
		text := testing.AllocsPerRun(20, run(Request{Query: q}))
		prepared := testing.AllocsPerRun(20, run(Request{Prepared: p}))
		if text > prepared {
			t.Errorf("%.40s…: the text allocates %.0f per query, its prepared statement %.0f", q, text, prepared)
		}
	}
}
