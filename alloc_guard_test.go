//go:build !race

package rox

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/datagen"
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
	return testing.AllocsPerRun(20, replayer(t, query))
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
// measures it.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
	// Measured 237: each edge's pairs are reserved at the cardinality the
	// cached plan observed, a first edge's pairs become its relation, pair
	// groups are counted before they are filled, T(v) is refreshed only where
	// a later step reads it, a merge copies no column of a vertex nothing
	// reads again, and the Env's generator is never built (255 with the dead
	// columns copied; 387 before the rest; 530 when vertex tables copied the
	// index, a refreshed T(v) cloned its column and step pairs grew per edge;
	// 5 851 with a hash map and a slice per context node in every merge).
	const ceiling = 296
	if got := allocsPerQuery(t, replayedJoin); got > ceiling {
		t.Errorf("replayed join: %.0f allocations per query, ceiling %d", got, ceiling)
	}
}

func TestAllocGuardReplayedJoinBytes(t *testing.T) {
	// The object count above cannot see a copy of a whole index extent or
	// column, which is one allocation however large. Bytes can. Measured
	// 130 272 (161 474 when every merge copies the columns of vertices no
	// later step and no tail reads; 204 166 before the pair buffers were
	// sized from the plan cache and owned by the relation; 382 107 with
	// VertexTable copying each extent, DistinctNodes cloning each column and
	// the step pairs growing per edge). The ceiling is ≈ 5 % above, not
	// 25 %: copying the dead columns again, pair buffers growing from empty,
	// the extent copy, the column clone or a string-keyed @person = @id hash
	// join build each cost more; each must fail here.
	const ceiling = 136_800
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
	query := bench.FourWayQuery(combo)
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
	// Measured 886: sampled pairs live in one optimizer buffer, restricted
	// probes filter in place, the value index is the hash join's build side
	// over an unreduced extent, and the optimizer looks edges up in lists
	// built once and draws samples without a map (3 230 when each of those
	// allocated; 1 839 with a slice per restricted probe alone).
	const ceiling = 1140
	if got := testing.AllocsPerRun(20, coldFourWay(t)); got > ceiling {
		t.Errorf("cold four-way: %.0f allocations per query, ceiling %d", got, ceiling)
	}
}

func TestAllocGuardColdFourWayBytes(t *testing.T) {
	// Measured 175 710 (523 379 before the change above). Building a hash
	// table over the unreduced extent instead of probing the index costs
	// 243 594 and must fail here.
	const ceiling = 225_000
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
