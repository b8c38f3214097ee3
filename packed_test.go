package rox

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// packShardFiles writes each document as a packed .roxd container (with
// persistent index sections) under dir and returns the files as sources in
// shard order.
func packShardFiles(t *testing.T, dir string, docs []*xmltree.Document) []Source {
	t.Helper()
	srcs := make([]Source, len(docs))
	for i, d := range docs {
		path := filepath.Join(dir, fmt.Sprintf("%s.roxd", d.Name()))
		if err := index.WritePackedFile(path, index.New(d)); err != nil {
			t.Fatalf("pack shard %s: %v", d.Name(), err)
		}
		srcs[i] = FromPacked(path)
	}
	return srcs
}

// TestPackedCollectionEquivalence is the storage half of the sharding
// contract: a collection served from memory-mapped packed shard files must
// answer every tail shape byte-identically to the same corpus loaded as one
// in-memory document — ordered, aggregate, limit/offset and count tails, at
// 4 and 12 shards, cold and on the prepared replay.
func TestPackedCollectionEquivalence(t *testing.T) {
	cfg := datagen.DefaultXMarkConfig()
	cfg.Persons, cfg.Items, cfg.OpenAuctions = 200, 120, 100
	single := NewEngine()
	_ = single.LoadSource(FromDocument(datagen.XMark(cfg)))

	queries := []struct{ name, docQ, collQ string }{
		{
			name:  "ordered persons",
			docQ:  `for $p in doc("xmark.xml")//person[education] order by $p/@id return $p`,
			collQ: `for $p in collection("xmark")//person[education] order by $p/@id return $p`,
		},
		{
			name:  "sum of initial prices",
			docQ:  `for $a in doc("xmark.xml")//open_auction return sum($a/initial)`,
			collQ: `for $a in collection("xmark")//open_auction return sum($a/initial)`,
		},
		{
			name:  "avg of reserves",
			docQ:  `for $a in doc("xmark.xml")//open_auction[reserve] return avg($a/reserve)`,
			collQ: `for $a in collection("xmark")//open_auction[reserve] return avg($a/reserve)`,
		},
		{
			name:  "limit/offset window over ordered auctions",
			docQ:  `for $a in doc("xmark.xml")//open_auction where $a/current > 100 order by $a/current descending return $a limit 10 offset 3`,
			collQ: `for $a in collection("xmark")//open_auction where $a/current > 100 order by $a/current descending return $a limit 10 offset 3`,
		},
		{
			name:  "count of bidders",
			docQ:  `for $b in doc("xmark.xml")//open_auction[reserve]//bidder return count($b)`,
			collQ: `for $b in collection("xmark")//open_auction[reserve]//bidder return count($b)`,
		},
	}

	for _, shards := range []int{4, 12} {
		srcs := packShardFiles(t, t.TempDir(), datagen.XMarkShards(cfg, shards))
		packed := NewEngine()
		if err := packed.LoadCollectionSource("xmark", srcs...); err != nil {
			t.Fatalf("%d shards: LoadCollectionSource: %v", shards, err)
		}
		if runtime.GOOS == "linux" {
			for _, name := range packed.Documents() {
				ix, err := packed.catalog().Index(name)
				if err != nil {
					t.Fatal(err)
				}
				if !ix.Doc().Mapped() {
					t.Errorf("%d shards: shard %s is not memory-mapped", shards, name)
				}
			}
		}
		for _, q := range queries {
			t.Run(fmt.Sprintf("%d-shard/%s", shards, q.name), func(t *testing.T) {
				want, err := collectRows(single.Execute(context.Background(), Request{Query: q.docQ}))
				if err != nil {
					t.Fatalf("single-catalog query: %v", err)
				}
				prep, err := packed.Prepare(q.collQ)
				if err != nil {
					t.Fatalf("prepare: %v", err)
				}
				cold, err := collectRows(packed.Execute(context.Background(), Request{Prepared: prep}))
				if err != nil {
					t.Fatalf("cold scatter: %v", err)
				}
				assertSameItems(t, "cold scatter", want.Items, cold.Items)
				replay, err := collectRows(packed.Execute(context.Background(), Request{Prepared: prep}))
				if err != nil {
					t.Fatalf("prepared replay: %v", err)
				}
				assertSameItems(t, "prepared replay", want.Items, replay.Items)
				if !replay.Stats.CacheHit || replay.Stats.SampleTuples != 0 {
					t.Errorf("replay: CacheHit=%v SampleTuples=%d, want cached replay without sampling",
						replay.Stats.CacheHit, replay.Stats.SampleTuples)
				}
			})
		}
	}
}

// TestPackedShardSwapDrift is the O(1)-swap contract: replacing one packed
// shard file of a served collection (10× the rows — far past the drift
// ratio) must re-optimize only that shard and keep every tail byte-identical
// to a fresh single-document engine over the post-swap corpus.
func TestPackedShardSwapDrift(t *testing.T) {
	dir := t.TempDir()
	spans := [][2]int{{0, 30}, {100, 30}, {200, 30}}
	packPpl := func(i int, span [2]int) string {
		d, err := xmltree.ParseString(fmt.Sprintf("ppl-%d.xml", i), pricedShardXML(span[0], span[1]))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("ppl-%d-%d.roxd", i, span[1]))
		if err := index.WritePackedFile(path, index.New(d)); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var srcs []Source
	for i, sp := range spans {
		srcs = append(srcs, FromPacked(packPpl(i, sp)))
	}
	packed := NewEngine()
	if err := packed.LoadCollectionSource("ppl", srcs...); err != nil {
		t.Fatal(err)
	}

	singleFor := func(spans [][2]int) *Engine {
		xml := "<people>"
		for _, sp := range spans {
			inner := pricedShardXML(sp[0], sp[1])
			xml += inner[len("<people>") : len(inner)-len("</people>")]
		}
		xml += "</people>"
		eng := NewEngine()
		if err := eng.LoadSource(FromXML("ppl.xml", xml)); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	queries := []struct{ name, collQ, docQ string }{
		{"sum", `for $p in collection("ppl")//person return sum($p/salary)`,
			`for $p in doc("ppl.xml")//person return sum($p/salary)`},
		{"order by age desc", `for $p in collection("ppl")//person order by $p/age descending return $p`,
			`for $p in doc("ppl.xml")//person order by $p/age descending return $p`},
		{"window", `for $p in collection("ppl")//person order by $p/salary descending return $p limit 10 offset 2`,
			`for $p in doc("ppl.xml")//person order by $p/salary descending return $p limit 10 offset 2`},
	}
	preps := make([]*Prepared, len(queries))
	for i, q := range queries {
		p, err := packed.Prepare(q.collQ)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		preps[i] = p
	}
	single := singleFor(spans)
	for i, q := range queries {
		want, err := collectRows(single.Execute(context.Background(), Request{Query: q.docQ}))
		if err != nil {
			t.Fatalf("%s single: %v", q.name, err)
		}
		got, err := collectRows(packed.Execute(context.Background(), Request{Prepared: preps[i]}))
		if err != nil {
			t.Fatalf("%s cold: %v", q.name, err)
		}
		assertSameItems(t, q.name+" cold", want.Items, got.Items)
	}

	// The swap: a new packed file for the middle shard, mapped in O(1) under
	// the same stored document name while the old mapping drains.
	spans[1] = [2]int{100, 300}
	if err := packed.LoadCollectionSource("ppl", FromPacked(packPpl(1, spans[1]))); err != nil {
		t.Fatal(err)
	}
	single = singleFor(spans)
	for i, q := range queries {
		want, err := collectRows(single.Execute(context.Background(), Request{Query: q.docQ}))
		if err != nil {
			t.Fatalf("%s single after swap: %v", q.name, err)
		}
		drift, err := collectRows(packed.Execute(context.Background(), Request{Prepared: preps[i]}))
		if err != nil {
			t.Fatalf("%s drift: %v", q.name, err)
		}
		assertSameItems(t, q.name+" drift", want.Items, drift.Items)
		if !drift.Stats.Reoptimized {
			t.Errorf("%s: swapped shard did not re-optimize", q.name)
		}
		for _, sh := range drift.Stats.Shards {
			if sh.Shard != "ppl-1.xml" && (!sh.Stats.CacheHit || sh.Stats.SampleTuples != 0) {
				t.Errorf("%s: untouched shard %s lost its cached plan", q.name, sh.Shard)
			}
		}
		settled, err := collectRows(packed.Execute(context.Background(), Request{Prepared: preps[i]}))
		if err != nil {
			t.Fatalf("%s settled: %v", q.name, err)
		}
		assertSameItems(t, q.name+" settled", want.Items, settled.Items)
		if !settled.Stats.CacheHit || settled.Stats.SampleTuples != 0 {
			t.Errorf("%s settled run missed the cache: CacheHit=%v SampleTuples=%d",
				q.name, settled.Stats.CacheHit, settled.Stats.SampleTuples)
		}
	}
}

// TestLoadPackedDocument covers the single-document packed load: a packed
// file queries identically to the document it was packed from, and a missing
// file fails the load.
func TestLoadPackedDocument(t *testing.T) {
	cfg := datagen.DefaultXMarkConfig()
	cfg.Persons, cfg.Items, cfg.OpenAuctions = 50, 30, 20
	d := datagen.XMark(cfg)

	mem := NewEngine()
	_ = mem.LoadSource(FromDocument(d))
	path := filepath.Join(t.TempDir(), "xmark.roxd")
	if err := index.WritePackedFile(path, index.New(d)); err != nil {
		t.Fatal(err)
	}
	packed := NewEngine()
	if err := packed.LoadSource(FromPacked(path)); err != nil {
		t.Fatal(err)
	}

	const q = `for $p in doc("xmark.xml")//person[education] order by $p/@id return $p`
	want, err := collectRows(mem.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := collectRows(packed.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameItems(t, "packed doc", want.Items, got.Items)

	if err := packed.LoadSource(FromPacked(filepath.Join(t.TempDir(), "absent.roxd"))); err == nil {
		t.Errorf("missing packed file should fail")
	}
}
