package rox

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

// drainAll collects a cursor through the iterator adapter, failing the test
// on a stream error.
func drainAll(t *testing.T, rows *Rows, phase string) []string {
	t.Helper()
	items := []string{}
	for item, err := range rows.All() {
		if err != nil {
			t.Fatalf("%s: stream error: %v", phase, err)
		}
		items = append(items, item)
	}
	return items
}

// TestCursorProtocol pins the database/sql-style cursor contract on the
// single-catalog path: Next/Item iteration matches the materialized
// Collect, Err is nil after exhaustion, Close is idempotent, Stats counts the
// handed-out rows, and the All() iterator agrees.
func TestCursorProtocol(t *testing.T) {
	e := NewEngine()
	if err := e.LoadSource(FromXML("ppl.xml", shardXML(20, 20))); err != nil {
		t.Fatal(err)
	}
	const q = `for $p in doc("ppl.xml")//person[marker] return $p`
	want, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.Execute(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for rows.Next() {
		got = append(got, rows.Item())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err after exhaustion: %v", err)
	}
	assertSameItems(t, "cursor drain", want.Items, got)
	st := rows.Stats()
	if st.Rows != len(got) || st.Scanned != len(got) || st.Truncated {
		t.Errorf("stats = Rows %d Scanned %d Truncated %v, want %d/%d/false",
			st.Rows, st.Scanned, st.Truncated, len(got), len(got))
	}
	if err := rows.Close(); err != nil {
		t.Errorf("Close after exhaustion: %v", err)
	}
	if rows.Next() {
		t.Error("Next after Close returned true")
	}

	rows2, err := e.Execute(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	assertSameItems(t, "All iterator", want.Items, drainAll(t, rows2, "All"))
}

// TestCursorEarlyCloseTruncates: closing a cursor mid-stream finalizes Stats
// with what was actually returned and marks the result truncated.
func TestCursorEarlyCloseTruncates(t *testing.T) {
	e := NewEngine()
	if err := e.LoadSource(FromXML("ppl.xml", shardXML(30, 30))); err != nil {
		t.Fatal(err)
	}
	rows, err := e.Execute(context.Background(), Request{Query: `for $p in doc("ppl.xml")//person[marker] return $p`})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && rows.Next(); i++ {
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := rows.Stats()
	if st.Rows != 5 || st.Scanned != 30 || !st.Truncated {
		t.Errorf("stats after early close = Rows %d Scanned %d Truncated %v, want 5/30/true",
			st.Rows, st.Scanned, st.Truncated)
	}

	// An aggregate cursor closed before its single item went out is
	// truncated too, even though Rows < Scanned holds trivially for folds.
	agg, err := e.Execute(context.Background(), Request{Query: `for $p in doc("ppl.xml")//person return count($p)`})
	if err != nil {
		t.Fatal(err)
	}
	agg.Close()
	if st := agg.Stats(); st.Rows != 0 || !st.Truncated {
		t.Errorf("aggregate early close: Rows=%d Truncated=%v, want 0/true", st.Rows, st.Truncated)
	}

	// Same on the scatter path: closing before the merged aggregate item.
	_, sharded := newXMarkEngines(t, 4)
	sagg, err := sharded.Execute(context.Background(), Request{Query: `for $p in collection("xmark")//person return count($p)`})
	if err != nil {
		t.Fatal(err)
	}
	sagg.Close()
	if st := sagg.Stats(); st.Rows != 0 || !st.Truncated {
		t.Errorf("scatter aggregate early close: Rows=%d Truncated=%v, want 0/true", st.Rows, st.Truncated)
	}
}

// limitWindow describes one limit/offset variant of the equivalence sweep.
type limitWindow struct {
	name          string
	limit, offset int
}

// TestLimitOffsetEquivalence is the streaming acceptance contract: for every
// tail shape (plain, order by ascending/descending, constructor) over the
// single catalog and 1-, 4- and 12-shard collections, a windowed query — via
// a `limit` clause in the text, via Request.Limit/Offset, and via a
// Request{Prepared} with the same window — returns exactly the full result's
// [offset, offset+limit) slice, byte for byte, on the cold run and on the
// plan-cache replay.
func TestLimitOffsetEquivalence(t *testing.T) {
	shapes := []struct {
		name, docQ, collQ string
	}{
		{
			name:  "plain",
			docQ:  `for $p in doc("xmark.xml")//person[education] return $p`,
			collQ: `for $p in collection("xmark")//person[education] return $p`,
		},
		{
			name:  "order by ascending",
			docQ:  `for $p in doc("xmark.xml")//person[education] order by $p/@id return $p`,
			collQ: `for $p in collection("xmark")//person[education] order by $p/@id return $p`,
		},
		{
			name:  "order by numeric descending",
			docQ:  `for $a in doc("xmark.xml")//open_auction where $a/current > 100 order by $a/current descending return $a`,
			collQ: `for $a in collection("xmark")//open_auction where $a/current > 100 order by $a/current descending return $a`,
		},
		{
			name:  "constructor",
			docQ:  `for $a in doc("xmark.xml")//open_auction[reserve], $b in $a/bidder return <hit>{$b}</hit>`,
			collQ: `for $a in collection("xmark")//open_auction[reserve], $b in $a/bidder return <hit>{$b}</hit>`,
		},
	}
	windows := []limitWindow{
		{"limit 5", 5, 0},
		{"limit 7 offset 3", 7, 3},
		{"offset only", 0, 4},
		{"limit past end", 100000, 0},
	}
	slice := func(items []string, w limitWindow) []string {
		lo := min(w.offset, len(items))
		hi := len(items)
		if w.limit > 0 && lo+w.limit < hi {
			hi = lo + w.limit
		}
		return items[lo:hi]
	}
	clause := func(q string, w limitWindow) string {
		if w.limit == 0 {
			// The grammar requires a count; emulate offset-only with a huge
			// limit so the text variant still exercises the clause.
			return fmt.Sprintf("%s limit %d offset %d", q, 1<<30, w.offset)
		}
		if w.offset == 0 {
			return fmt.Sprintf("%s limit %d", q, w.limit)
		}
		return fmt.Sprintf("%s limit %d offset %d", q, w.limit, w.offset)
	}

	for _, shards := range []int{1, 4, 12} {
		single, sharded := newXMarkEngines(t, shards)
		for _, shape := range shapes {
			for engName, pick := range map[string]struct {
				eng *Engine
				q   string
			}{
				"doc":        {single, shape.docQ},
				"collection": {sharded, shape.collQ},
			} {
				if engName == "doc" && shards != 1 {
					continue // the single-catalog side is shard-count-invariant
				}
				t.Run(fmt.Sprintf("%d-shard/%s/%s", shards, shape.name, engName), func(t *testing.T) {
					full, err := collectRows(pick.eng.Execute(context.Background(), Request{Query: pick.q}))
					if err != nil {
						t.Fatal(err)
					}
					if len(full.Items) < 12 {
						t.Fatalf("degenerate corpus: only %d rows", len(full.Items))
					}
					for _, w := range windows {
						want := slice(full.Items, w)

						res, err := collectRows(pick.eng.Execute(context.Background(), Request{Query: clause(pick.q, w)}))
						if err != nil {
							t.Fatalf("%s clause: %v", w.name, err)
						}
						assertSameItems(t, w.name+" clause", want, res.Items)

						rows, err := pick.eng.Execute(context.Background(),
							Request{Query: pick.q, Limit: w.limit, Offset: w.offset})
						if err != nil {
							t.Fatalf("%s request: %v", w.name, err)
						}
						assertSameItems(t, w.name+" request", want, drainAll(t, rows, w.name))

						prep, err := pick.eng.Prepare(pick.q)
						if err != nil {
							t.Fatal(err)
						}
						for _, phase := range []string{"cold-or-warm", "replay"} {
							rows, err := pick.eng.Execute(context.Background(),
								Request{Prepared: prep, Limit: w.limit, Offset: w.offset})
							if err != nil {
								t.Fatalf("%s prepared %s: %v", w.name, phase, err)
							}
							assertSameItems(t, w.name+" prepared "+phase, want,
								drainAll(t, rows, w.name))
						}
					}
				})
			}
		}
	}
}

// TestLimitReplayAndDriftSharded extends the window contract through the
// plan-cache lifecycle on the scatter path: a prepared ordered top-k query
// over a sharded collection replays with zero sampling, survives a
// 10× reload of one shard (drift → that shard re-optimizes), and stays
// byte-identical to the single-catalog slice at every phase.
func TestLimitReplayAndDriftSharded(t *testing.T) {
	spans := [][2]int{{0, 30}, {100, 30}, {200, 30}}
	sharded := NewEngine()
	for i, sp := range spans {
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
	const docQ = `for $p in doc("ppl.xml")//person order by $p/salary descending return $p limit 10 offset 2`
	const collQ = `for $p in collection("ppl")//person order by $p/salary descending return $p limit 10 offset 2`

	prep, err := sharded.Prepare(collQ)
	if err != nil {
		t.Fatal(err)
	}
	single := singleFor(spans)
	want, err := collectRows(single.Execute(context.Background(), Request{Query: docQ}))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := collectRows(sharded.Execute(context.Background(), Request{Prepared: prep}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameItems(t, "cold", want.Items, cold.Items)
	replay, err := collectRows(sharded.Execute(context.Background(), Request{Prepared: prep}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameItems(t, "replay", want.Items, replay.Items)
	if !replay.Stats.CacheHit || replay.Stats.SampleTuples != 0 {
		t.Errorf("replay: CacheHit=%v SampleTuples=%d, want hit with zero sampling",
			replay.Stats.CacheHit, replay.Stats.SampleTuples)
	}

	// Reload the middle shard with 10× the data — far beyond the drift ratio.
	spans[1] = [2]int{100, 300}
	if err := sharded.LoadCollectionSource("ppl", FromXML("ppl-1.xml", pricedShardXML(spans[1][0], spans[1][1]))); err != nil {
		t.Fatal(err)
	}
	want, err = collectRows(singleFor(spans).Execute(context.Background(), Request{Query: docQ}))
	if err != nil {
		t.Fatal(err)
	}
	drift, err := collectRows(sharded.Execute(context.Background(), Request{Prepared: prep}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameItems(t, "drift", want.Items, drift.Items)
	if !drift.Stats.Reoptimized {
		t.Error("reloaded shard did not re-optimize")
	}
	settled, err := collectRows(sharded.Execute(context.Background(), Request{Prepared: prep}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameItems(t, "settled", want.Items, settled.Items)
	if !settled.Stats.CacheHit || settled.Stats.SampleTuples != 0 {
		t.Errorf("settled: CacheHit=%v SampleTuples=%d", settled.Stats.CacheHit, settled.Stats.SampleTuples)
	}
}

// TestScatterEarlyTermination is the early-exit acceptance contract: `limit
// 10` over a 12-shard collection returns the first ten items, reports the
// truncation per shard, and cancels the shard work the window made
// unnecessary instead of computing the full union.
func TestScatterEarlyTermination(t *testing.T) {
	_, sharded := newXMarkEngines(t, 12)
	const fullQ = `for $p in collection("xmark")//person return $p`
	full, err := collectRows(sharded.Execute(context.Background(), Request{Query: fullQ}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := collectRows(sharded.Execute(context.Background(), Request{Query: fullQ + ` limit 10`}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameItems(t, "limit 10 prefix", full.Items[:10], res.Items)
	if res.Stats.Rows != 10 {
		t.Errorf("Rows = %d, want 10", res.Stats.Rows)
	}
	if !res.Stats.Truncated {
		t.Error("top-level Stats.Truncated not set")
	}
	if len(res.Stats.Shards) != 12 {
		t.Fatalf("ShardStats count = %d, want 12", len(res.Stats.Shards))
	}
	// Every shard holds ~17 of the 200 persons, well past the 10-row
	// per-shard cap, so each one must report truncated pulls — whether it
	// completed its capped tail or was canceled outright by the gather.
	for _, sh := range res.Stats.Shards {
		if !sh.Stats.Truncated {
			t.Errorf("shard %s reports no truncated pulls under limit 10 (Rows=%d Scanned=%d)",
				sh.Shard, sh.Stats.Rows, sh.Stats.Scanned)
		}
	}
	// The scanned rollup can never exceed the full union, and the emitted
	// rows stay within the windowed pull budget per shard (the cap), never
	// the full per-shard result. The wall-clock effect of the
	// cancellation is pinned by BenchmarkLimitScatter* against the
	// full-drain baseline, where the per-shard work is big enough to
	// dominate scheduling noise.
	if res.Stats.Scanned > full.Stats.Scanned {
		t.Errorf("windowed Scanned = %d exceeds full %d", res.Stats.Scanned, full.Stats.Scanned)
	}
	for _, sh := range res.Stats.Shards {
		if sh.Stats.Rows > 10 {
			t.Errorf("shard %s emitted %d rows past the 10-row cap", sh.Shard, sh.Stats.Rows)
		}
	}
}

// TestCursorCancelMidStreamSingle cancels the context after three items on
// the single-catalog path: the cursor must surface ctx.Err(), and the plan
// the run discovered must stay installed (the join work already happened).
func TestCursorCancelMidStreamSingle(t *testing.T) {
	e := NewEngine()
	if err := e.LoadSource(FromXML("ppl.xml", shardXML(50, 50))); err != nil {
		t.Fatal(err)
	}
	const q = `for $p in doc("ppl.xml")//person[marker] return $p`
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := e.Execute(ctx, Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close() // idempotent after exhaustion; keeps every path finished
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("Next %d returned false early: %v", i, rows.Err())
		}
	}
	cancel()
	if rows.Next() {
		t.Fatal("Next after cancel returned true")
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	st := rows.Stats()
	if st.Rows != 3 || !st.Truncated {
		t.Errorf("stats after cancel = Rows %d Truncated %v, want 3/true", st.Rows, st.Truncated)
	}
	if cs := e.CacheStats(); cs.Size == 0 {
		t.Error("canceled cursor run installed no plan")
	}
	warm, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.CacheHit || warm.Stats.SampleTuples != 0 {
		t.Errorf("query after canceled cursor: CacheHit=%v SampleTuples=%d, want replay",
			warm.Stats.CacheHit, warm.Stats.SampleTuples)
	}
}

// TestCursorCancelMidStreamSharded cancels a scatter mid-stream: the cursor
// surfaces ctx.Err(), every shard open in flight exits, and the shards that
// completed before the cancel keep their installed plans.
func TestCursorCancelMidStreamSharded(t *testing.T) {
	_, sharded := newXMarkEngines(t, 4)
	const q = `for $p in collection("xmark")//person return $p`
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := sharded.Execute(ctx, Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close() // idempotent after exhaustion; keeps every path finished
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("Next %d returned false early: %v", i, rows.Err())
		}
	}
	cancel()
	for rows.Next() {
		// A few buffered items may still arrive; the stream must still end
		// with the context error.
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	testutil.WaitGoroutines(t, base)
	if cs := sharded.CacheStats(); cs.Size == 0 {
		t.Error("no shard plan survived the canceled scatter (the first shard completed its join)")
	}
}

// TestCursorLeakReleasesGoroutines: a scatter cursor abandoned without Close
// is cleaned up by the runtime — no shard open outlives the handle being
// garbage collected.
func TestCursorLeakReleasesGoroutines(t *testing.T) {
	_, sharded := newXMarkEngines(t, 4)
	base := runtime.NumGoroutine()
	rows, err := sharded.Execute(context.Background(), Request{Query: `for $p in collection("xmark")//person return $p`})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	rows = nil // abandon without Close
	_ = rows
	testutil.WaitGoroutines(t, base)
}

// TestPoolCursorSlotLifecycle: a pooled cursor holds its admission slot until
// it finishes — Close releases it synchronously, and a cursor leaked without
// Close releases it through the garbage-collection cleanup.
func TestPoolCursorSlotLifecycle(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadSource(FromXML("ppl.xml", shardXML(10, 10))); err != nil {
		t.Fatal(err)
	}
	const q = `for $p in doc("ppl.xml")//person[marker] return $p`
	pool := NewPool(eng, 1)

	// While a cursor is open, the single slot is busy.
	rows, err := pool.Execute(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	busyCtx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if _, err := collectRows(pool.Execute(busyCtx, Request{Query: q})); err == nil {
		t.Fatal("second query admitted while a cursor holds the only slot")
	}
	cancel()
	// Close releases the slot immediately.
	rows.Close()
	if _, err := collectRows(pool.Execute(context.Background(), Request{Query: q})); err != nil {
		t.Fatalf("query after Close: %v", err)
	}

	// A leaked cursor must release its slot via the GC cleanup.
	rows, err = pool.Execute(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	rows = nil // leak: no Close
	_ = rows
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, err := collectRows(pool.Execute(ctx, Request{Query: q}))
		cancel()
		if err == nil {
			break // the cleanup released the leaked slot
		}
		if time.Now().After(deadline) {
			t.Fatal("leaked cursor never released its pool slot")
		}
	}
}

// TestStatsRowsScannedSemantics pins the Rows/Scanned split on every path:
// Rows counts returned items (post-window), Scanned the join output before
// truncation — cold, replay, static and scatter, plus the aggregate shapes.
func TestStatsRowsScannedSemantics(t *testing.T) {
	e := NewEngine()
	if err := e.LoadSource(FromXML("ppl.xml", pricedShardXML(0, 40))); err != nil {
		t.Fatal(err)
	}
	const windowed = `for $p in doc("ppl.xml")//person return $p limit 5 offset 2`
	check := func(phase string, st Stats, rows, scanned int, truncated bool) {
		t.Helper()
		if st.Rows != rows || st.Scanned != scanned || st.Truncated != truncated {
			t.Errorf("%s: Rows=%d Scanned=%d Truncated=%v, want %d/%d/%v",
				phase, st.Rows, st.Scanned, st.Truncated, rows, scanned, truncated)
		}
	}

	cold, err := collectRows(e.Execute(context.Background(), Request{Query: windowed}))
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Items) != 5 {
		t.Fatalf("windowed items = %d", len(cold.Items))
	}
	check("cold", cold.Stats, 5, 40, true)
	if cold.Stats.CacheHit {
		t.Error("cold run claims a cache hit")
	}

	replay, err := collectRows(e.Execute(context.Background(), Request{Query: windowed}))
	if err != nil {
		t.Fatal(err)
	}
	check("replay", replay.Stats, 5, 40, true)
	if !replay.Stats.CacheHit || replay.Stats.SampleTuples != 0 {
		t.Errorf("replay: CacheHit=%v SampleTuples=%d", replay.Stats.CacheHit, replay.Stats.SampleTuples)
	}

	static, err := collectRows(e.Execute(context.Background(), Request{Query: windowed, Static: true}))
	if err != nil {
		t.Fatal(err)
	}
	check("static", static.Stats, 5, 40, true)

	agg, err := collectRows(e.Execute(context.Background(), Request{Query: `for $p in doc("ppl.xml")//person return sum($p/salary)`}))
	if err != nil {
		t.Fatal(err)
	}
	check("aggregate", agg.Stats, 1, 40, false)

	unlimited, err := collectRows(e.Execute(context.Background(), Request{Query: `for $p in doc("ppl.xml")//person return $p`}))
	if err != nil {
		t.Fatal(err)
	}
	check("unlimited", unlimited.Stats, 40, 40, false)

	_, sharded := newXMarkEngines(t, 4)
	scatter, err := collectRows(sharded.Execute(context.Background(), Request{Query: `for $p in collection("xmark")//person[education] order by $p/@id return $p limit 6`}))
	if err != nil {
		t.Fatal(err)
	}
	if scatter.Stats.Rows != 6 || !scatter.Stats.Truncated {
		t.Errorf("scatter: Rows=%d Truncated=%v, want 6/true", scatter.Stats.Rows, scatter.Stats.Truncated)
	}
	if scatter.Stats.Scanned < 6 {
		t.Errorf("scatter Scanned = %d, want >= 6", scatter.Stats.Scanned)
	}
	var shardScanned int
	for _, sh := range scatter.Stats.Shards {
		shardScanned += sh.Stats.Scanned
	}
	if scatter.Stats.Scanned != shardScanned {
		t.Errorf("scatter Scanned rollup %d != shard sum %d", scatter.Stats.Scanned, shardScanned)
	}
}

// TestWindowValidation covers the failure surface of the programmatic
// window: negative values, and windows on aggregate returns (which yield one
// item by construction) wherever they can be requested.
func TestWindowValidation(t *testing.T) {
	e := NewEngine()
	if err := e.LoadSource(FromXML("ppl.xml", shardXML(10, 10))); err != nil {
		t.Fatal(err)
	}
	const aggQ = `for $p in doc("ppl.xml")//person return count($p)`
	//roxvet:ignore the call must fail validation; no cursor exists on the error path
	if _, err := e.Execute(context.Background(), Request{Query: `for $p in doc("ppl.xml")//person return $p`, Limit: -1}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("negative limit: err = %v, want ErrInvalidRequest", err)
	}
	//roxvet:ignore the call must fail validation; no cursor exists on the error path
	if _, err := e.Execute(context.Background(), Request{Query: `for $p in doc("ppl.xml")//person return $p`, Offset: -2}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("negative offset: err = %v, want ErrInvalidRequest", err)
	}
	//roxvet:ignore the call must fail validation; no cursor exists on the error path
	if _, err := e.Execute(context.Background(), Request{Query: aggQ, Limit: 3}); !errors.Is(err, ErrInvalidRequest) || !strings.Contains(err.Error(), "aggregate") {
		t.Errorf("window on aggregate request: err = %v", err)
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Query: aggQ + ` limit 3`})); err == nil || !strings.Contains(err.Error(), "aggregate") {
		t.Errorf("limit clause on aggregate: err = %v", err)
	}
	prep, err := e.Prepare(aggQ)
	if err != nil {
		t.Fatal(err)
	}
	//roxvet:ignore the call must fail validation; no cursor exists on the error path
	if _, err := e.Execute(context.Background(), Request{Prepared: prep, Limit: 3}); !errors.Is(err, ErrInvalidRequest) || !strings.Contains(err.Error(), "aggregate") {
		t.Errorf("window on prepared aggregate: err = %v", err)
	}
	// The aggregate still runs fine without a window.
	if res, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil || res.Items[0] != "10" {
		t.Errorf("aggregate run: %v %v", res, err)
	}
}

// TestTailChangeWithLimitIsCacheMiss: the window is part of the plan-cache
// key (replay expectations are projection-sensitive), so changing only the
// window is a miss — while the Join Graph fingerprint stays identical and
// both windows replay once warm.
func TestTailChangeWithLimitIsCacheMiss(t *testing.T) {
	e := NewEngine()
	if err := e.LoadSource(FromXML("ppl.xml", shardXML(20, 20))); err != nil {
		t.Fatal(err)
	}
	const q = `for $p in doc("ppl.xml")//person[marker] return $p`
	p1, err := e.Prepare(q + ` limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Prepare(q + ` limit 6`)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint() == p2.Fingerprint() {
		t.Error("different windows share a cache key")
	}
	if p1.comp.Graph.Fingerprint() != p2.comp.Graph.Fingerprint() {
		t.Error("window changed the Join Graph fingerprint — plans would not transfer")
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: p1})); err != nil {
		t.Fatal(err)
	}
	second, err := collectRows(e.Execute(context.Background(), Request{Prepared: p2}))
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CacheHit {
		t.Error("window change replayed the other window's entry")
	}
	warm, err := collectRows(e.Execute(context.Background(), Request{Prepared: p2}))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.CacheHit {
		t.Error("warm windowed query missed its own entry")
	}
}

// TestItemBytesAndItemAgree pins the item-buffer lifetime on both row sources
// — the execution cursor (a document query) and the gather (a collection
// query): ItemBytes is a view that the next Next may overwrite, Item is a
// string that stays intact after it, the two carry the same bytes in either
// call order, and a drain through ItemBytes equals a Collect.
func TestItemBytesAndItemAgree(t *testing.T) {
	e := NewEngine()
	if err := e.LoadSource(FromXML("ppl.xml", pricedShardXML(0, 40))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := e.LoadCollectionSource("ppl", FromXML(fmt.Sprintf("ppl-%d.xml", i), pricedShardXML(100*i, 20))); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`for $p in doc("ppl.xml")//person return $p`,
		`for $p in doc("ppl.xml")//person return <r>{$p}</r>`,
		`for $p in doc("ppl.xml")//person return sum($p/salary)`,
		`for $p in collection("ppl")//person order by $p/age return $p`,
		`for $p in collection("ppl")//person return count($p)`,
	} {
		want, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := e.Execute(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		var kept []string // Item strings, read back after the cursor moved on
		var viaBytes []string
		for i := 0; rows.Next(); i++ {
			var s string
			var b []byte
			if i%2 == 0 { // either call order
				s, b = rows.Item(), rows.ItemBytes()
			} else {
				b, s = rows.ItemBytes(), rows.Item()
			}
			if s != string(b) {
				t.Fatalf("%s row %d: Item %q != ItemBytes %q", q, i, s, b)
			}
			kept = append(kept, s)
			viaBytes = append(viaBytes, string(b))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		assertSameItems(t, q+" (Item kept across Next)", want.Items, kept)
		assertSameItems(t, q+" (ItemBytes)", want.Items, viaBytes)
	}
}

// TestShardSlotReleasedBeforeEmit pins the fan-out contract of a shard cursor
// under the smallest limiter: with one shard worker, six local shards of 60
// rows each and an order by, the gather needs every shard's head before it
// can emit — so a shard that still held the one slot past its join would
// starve the other five opens and the query would hang. It must complete, and
// every item must come through intact: each shard's head stays in its own
// cursor's buffer until the merge takes it, so the merged result equals the
// same data sorted in one document.
func TestShardSlotReleasedBeforeEmit(t *testing.T) {
	testutil.CheckGoroutines(t)
	const shards, perShard = 6, 60
	spans := make([][2]int, shards)
	sharded := NewEngine(WithShardWorkers(1))
	for i := range spans {
		spans[i] = [2]int{100 * i, perShard}
		if err := sharded.LoadCollectionSource("ppl", FromXML(fmt.Sprintf("ppl-%d.xml", i), pricedShardXML(spans[i][0], spans[i][1]))); err != nil {
			t.Fatal(err)
		}
	}
	want, err := collectRows(pricedSingleEngine(t, spans).Execute(context.Background(), Request{Query: `for $p in doc("ppl.xml")//person order by $p/age return $p`}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := collectRows(sharded.Execute(ctx,
		Request{Query: `for $p in collection("ppl")//person order by $p/age return $p`}))
	if err != nil {
		t.Fatalf("ordered scatter under one shard worker: %v", err)
	}
	if len(got.Items) != shards*perShard {
		t.Fatalf("got %d items, want %d", len(got.Items), shards*perShard)
	}
	assertSameItems(t, "ordered scatter under one shard worker", want.Items, got.Items)
}

// TestExhaustionBeforeCancellation pins the order of the cursor's two ways to
// end: a cursor whose every row went out reports clean exhaustion — nil Err,
// not truncated — even when its context is canceled before the Next that
// finds the rows gone.
func TestExhaustionBeforeCancellation(t *testing.T) {
	e := NewEngine()
	if err := e.LoadSource(FromXML("ppl.xml", pricedShardXML(0, 25))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := e.Execute(ctx, Request{Query: `for $p in doc("ppl.xml")//person return $p`})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for i := 0; i < 25; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended after %d of 25 rows: %v", i, rows.Err())
		}
	}
	cancel()
	if rows.Next() {
		t.Fatal("Next returned a 26th row")
	}
	if err := rows.Err(); err != nil {
		t.Errorf("exhausted cursor reports %v after a late cancel, want nil", err)
	}
	if st := rows.Stats(); st.Truncated || st.Rows != 25 {
		t.Errorf("stats = Rows %d Truncated %v, want 25/false", st.Rows, st.Truncated)
	}
}
