// Cold-start and steady-state benchmarks for the packed on-disk store: the
// acceptance contract of the mmap container is that loading a packed shard
// (map + attach persistent indices) beats re-shredding the XML (parse +
// O(n) index build) by a wide margin, while query latency over the mapped
// backing stays on par with the heap.
package rox

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// benchColdQuery is an ordered XMark query touching elements, attributes and
// text so a cold engine exercises every index family.
const benchColdQuery = `for $p in doc("xmark.xml")//person[education] order by $p/@id return $p`

// coldStartFixture writes the XMark benchmark corpus once per process as
// both an XML file and a packed container, returning the two paths.
func coldStartFixture(b *testing.B) (xmlPath, packedPath string) {
	b.Helper()
	cfg := datagen.DefaultXMarkConfig()
	cfg.Persons, cfg.Items, cfg.OpenAuctions = 400, 240, 200
	d := datagen.XMark(cfg)
	dir := b.TempDir()
	xmlPath = filepath.Join(dir, "xmark.xml")
	f, err := os.Create(xmlPath)
	if err != nil {
		b.Fatal(err)
	}
	if err := xmltree.Serialize(f, d, d.Root()); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	packedPath = filepath.Join(dir, "xmark.roxd")
	if err := index.WritePackedFile(packedPath, index.New(d)); err != nil {
		b.Fatal(err)
	}
	return xmlPath, packedPath
}

// BenchmarkColdStartShred measures the legacy cold start: parse the XML
// corpus and build every index in memory, then answer one query.
func BenchmarkColdStartShred(b *testing.B) {
	xmlPath, _ := coldStartFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(WithSeed(7))
		if err := eng.LoadSource(FromFile("xmark.xml", xmlPath)); err != nil {
			b.Fatal(err)
		}
		if _, err := collectRows(eng.Execute(context.Background(), Request{Query: benchColdQuery})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdStartPacked measures the packed cold start: map the container,
// attach the persistent index sections, answer the same query. No shredding,
// no O(n) index build.
func BenchmarkColdStartPacked(b *testing.B) {
	_, packedPath := coldStartFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(WithSeed(7))
		if err := eng.LoadSource(FromPacked(packedPath)); err != nil {
			b.Fatal(err)
		}
		if _, err := collectRows(eng.Execute(context.Background(), Request{Query: benchColdQuery})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryHeapShred is the steady-state baseline: repeated queries
// against a heap-built catalog.
func BenchmarkQueryHeapShred(b *testing.B) {
	xmlPath, _ := coldStartFixture(b)
	eng := NewEngine(WithSeed(7))
	if err := eng.LoadSource(FromFile("xmark.xml", xmlPath)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collectRows(eng.Execute(context.Background(), Request{Query: benchColdQuery})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryPackedMapped runs the same steady-state load over the mapped
// backing — the zero-copy columns and mapped postings must hold their own
// against the heap.
func BenchmarkQueryPackedMapped(b *testing.B) {
	_, packedPath := coldStartFixture(b)
	eng := NewEngine(WithSeed(7))
	if err := eng.LoadSource(FromPacked(packedPath)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collectRows(eng.Execute(context.Background(), Request{Query: benchColdQuery})); err != nil {
			b.Fatal(err)
		}
	}
}
