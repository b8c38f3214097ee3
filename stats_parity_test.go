package rox

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestQueryStatsParity is the stats-parity audit of the ways to drain the
// one entry point: Execute drained manually, drained by Rows.Collect, and
// run from a prepared statement are the same pipeline, so for the same
// corpus and seed they must report identical Rows, Scanned, Truncated and
// per-shard breakdowns. Each path runs on its own fresh engine so plan-cache
// state cannot leak between them.
//
// The same holds across the drivers of the one execution cursor: a document
// and a one-shard collection holding the same XML (the solo field) return
// byte-identical items and agree on every count — with each other and with
// the shard's own ShardStats — cold and on the cached replay, and the static
// baseline of the document query agrees on items, Rows, Scanned and
// Truncated.
func TestQueryStatsParity(t *testing.T) {
	spans := [][2]int{{0, 25}, {100, 25}, {200, 25}}
	newEng := func(t *testing.T) *Engine {
		t.Helper()
		eng := NewEngine()
		for i, sp := range spans {
			if err := eng.LoadCollectionSource("ppl", FromXML(fmt.Sprintf("ppl-%d.xml", i), pricedShardXML(sp[0], sp[1]))); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.LoadSource(FromXML("ppl.xml", pricedShardXML(0, 50))); err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadCollectionSource("solo", FromXML("solo-0.xml", pricedShardXML(0, 50))); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	queries := []struct {
		name, q  string
		agg      bool // aggregates fold Scanned tuples into 1 row by design
		racyScan bool // early-terminated scatter: Scanned depends on cancellation timing
		// solo, on document queries, also runs the query over the one-shard
		// collection of the same XML; offset is the window's, which a shard
		// delivers on top of the rows the gather keeps.
		solo   bool
		offset int
	}{
		{name: "single document", q: `for $p in doc("ppl.xml")//person return $p`, solo: true},
		{name: "document windowed", q: `for $p in doc("ppl.xml")//person return $p limit 7 offset 3`, solo: true, offset: 3},
		{name: "document ordered", q: `for $p in doc("ppl.xml")//person order by $p/age return $p`, solo: true},
		{name: "document aggregate", q: `for $p in doc("ppl.xml")//person return sum($p/salary)`, agg: true, solo: true},
		{name: "document empty", q: `for $p in doc("ppl.xml")//person[nosuch] return $p`, solo: true},
		{name: "collection plain", q: `for $p in collection("ppl")//person return $p`},
		{name: "collection ordered", q: `for $p in collection("ppl")//person order by $p/age return $p`},
		// A limit window over a scatter cancels the remaining shards the
		// moment it fills; how far each shard got before the cancellation
		// landed is scheduling-dependent, so Scanned and the per-shard
		// breakdown are not comparable across runs for this shape.
		{name: "collection windowed", q: `for $p in collection("ppl")//person return $p limit 7 offset 3`, racyScan: true},
		{name: "collection aggregate", q: `for $p in collection("ppl")//person return avg($p/salary)`, agg: true},
	}

	type outcome struct {
		items []string
		stats Stats
	}
	execute := func(t *testing.T, eng *Engine, req Request) outcome {
		t.Helper()
		rows, err := eng.Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var items []string
		for rows.Next() {
			items = append(items, rows.Item())
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		return outcome{items: items, stats: rows.Stats()}
	}
	paths := []struct {
		name string
		run  func(t *testing.T, eng *Engine, q string) outcome
	}{
		{"Execute", func(t *testing.T, eng *Engine, q string) outcome {
			return execute(t, eng, Request{Query: q})
		}},
		{"Collect", func(t *testing.T, eng *Engine, q string) outcome {
			res, err := collectRows(eng.Execute(context.Background(), Request{Query: q}))
			if err != nil {
				t.Fatal(err)
			}
			return outcome{items: res.Items, stats: res.Stats}
		}},
		{"Prepared", func(t *testing.T, eng *Engine, q string) outcome {
			prep, err := eng.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := collectRows(eng.Execute(context.Background(), Request{Prepared: prep}))
			if err != nil {
				t.Fatal(err)
			}
			return outcome{items: res.Items, stats: res.Stats}
		}},
	}

	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			var ref outcome
			for i, p := range paths {
				got := p.run(t, newEng(t), q.q)
				if i == 0 {
					ref = got
					continue
				}
				assertSameItems(t, p.name, ref.items, got.items)
				if got.stats.Rows != ref.stats.Rows {
					t.Errorf("%s: Rows = %d, Execute reported %d", p.name, got.stats.Rows, ref.stats.Rows)
				}
				if !q.racyScan && got.stats.Scanned != ref.stats.Scanned {
					t.Errorf("%s: Scanned = %d, Execute reported %d", p.name, got.stats.Scanned, ref.stats.Scanned)
				}
				if got.stats.Truncated != ref.stats.Truncated {
					t.Errorf("%s: Truncated = %v, Execute reported %v", p.name, got.stats.Truncated, ref.stats.Truncated)
				}
				if len(got.stats.Shards) != len(ref.stats.Shards) {
					t.Fatalf("%s: %d shard stats, Execute reported %d",
						p.name, len(got.stats.Shards), len(ref.stats.Shards))
				}
				for j, sh := range got.stats.Shards {
					want := ref.stats.Shards[j]
					if sh.Shard != want.Shard {
						t.Errorf("%s: shard %d = %s, Execute reported %s",
							p.name, j, sh.Shard, want.Shard)
					}
					if q.racyScan {
						continue
					}
					if sh.Stats.Scanned != want.Stats.Scanned ||
						sh.Stats.Rows != want.Stats.Rows || sh.Stats.Truncated != want.Stats.Truncated {
						t.Errorf("%s: shard %d = {%s rows=%d scanned=%d trunc=%v}, Execute reported {%s rows=%d scanned=%d trunc=%v}",
							p.name, j, sh.Shard, sh.Stats.Rows, sh.Stats.Scanned, sh.Stats.Truncated,
							want.Shard, want.Stats.Rows, want.Stats.Scanned, want.Stats.Truncated)
					}
				}
			}
			// Scanned/Rows/Truncated are mutually consistent on every path
			// (aggregates excepted: their fold consumes Scanned tuples into
			// one row without that being a truncation).
			if !q.agg && ref.stats.Truncated != (ref.stats.Rows < ref.stats.Scanned) {
				t.Errorf("Execute: Truncated=%v with Rows=%d Scanned=%d",
					ref.stats.Truncated, ref.stats.Rows, ref.stats.Scanned)
			}
			if !q.solo {
				return
			}

			// Static baseline: another plan, the same stream.
			static := execute(t, newEng(t), Request{Query: q.q, Static: true})
			assertSameItems(t, "static", ref.items, static.items)
			if static.stats.Rows != ref.stats.Rows || static.stats.Scanned != ref.stats.Scanned ||
				static.stats.Truncated != ref.stats.Truncated {
				t.Errorf("static: rows=%d scanned=%d trunc=%v, ROX reported rows=%d scanned=%d trunc=%v",
					static.stats.Rows, static.stats.Scanned, static.stats.Truncated,
					ref.stats.Rows, ref.stats.Scanned, ref.stats.Truncated)
			}

			// Document ≡ its one-shard collection, cold then replayed.
			eng := newEng(t)
			soloQ := strings.Replace(q.q, `doc("ppl.xml")`, `collection("solo")`, 1)
			for _, round := range []string{"cold", "replay"} {
				doc := execute(t, eng, Request{Query: q.q})
				solo := execute(t, eng, Request{Query: soloQ})
				assertSameItems(t, round+" solo", doc.items, solo.items)
				if doc.stats.Shards != nil {
					t.Errorf("%s: document query reports shards %v", round, doc.stats.Shards)
				}
				if len(solo.stats.Shards) != 1 {
					t.Fatalf("%s: solo reports %d shards, want 1", round, len(solo.stats.Shards))
				}
				if doc.stats.CacheHit != (round == "replay") {
					t.Errorf("%s: document CacheHit = %v", round, doc.stats.CacheHit)
				}
				shard := solo.stats.Shards[0].Stats
				// A shard delivers the window's offset on top of the rows the
				// gather keeps, and folds an aggregate into one partial item.
				shard.Rows -= q.offset
				type counts struct {
					Rows, Scanned          int
					Truncated              bool
					Exec, Sample, CumInter int64
					CacheHit               bool
				}
				of := func(s Stats) counts {
					return counts{s.Rows, s.Scanned, s.Truncated, s.ExecTuples, s.SampleTuples,
						s.CumulativeIntermediate, s.CacheHit}
				}
				if of(solo.stats) != of(doc.stats) {
					t.Errorf("%s: solo collection %+v, document %+v", round, of(solo.stats), of(doc.stats))
				}
				if of(shard) != of(doc.stats) {
					t.Errorf("%s: solo shard %+v, document %+v", round, of(shard), of(doc.stats))
				}
				if shard.Plan != doc.stats.Plan {
					t.Errorf("%s: solo shard plan %q, document plan %q", round, shard.Plan, doc.stats.Plan)
				}
			}
		})
	}
}
