// Benchmarks for the live-ingest path: the append hot loop, query latency
// over a base+delta overlay (the incremental index's concat accessors), and
// warm-restart WAL replay. The contract is that appends cost O(fragment),
// a modest delta leaves query latency on par with a flat document, and
// replay is bounded by the un-compacted batch count, not corpus size.
package rox

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// benchIngestBase builds a people document with n persons, and
// benchIngestFrag one appendable person, in the same shape the soak and
// scenario suites use.
func benchIngestBase(n int) string {
	var sb strings.Builder
	sb.WriteString("<people>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<person id="b%d"><name>n%d</name><age>%d</age></person>`, i, i%7, 20+i%50)
	}
	sb.WriteString("</people>")
	return sb.String()
}

func benchIngestFrag(i int) string {
	return fmt.Sprintf(`<person id="a%d"><name>m%d</name><age>%d</age></person>`, i, i%7, 20+i%50)
}

// BenchmarkIngestAppend measures the in-memory append hot loop: parse one
// fragment and extend the overlay document and delta index. Commits land
// every 128 appends so the uncommitted tail stays batch-sized, as it would
// under a serving ingest endpoint.
func BenchmarkIngestAppend(b *testing.B) {
	eng := NewEngine(WithSeed(7))
	if err := eng.LoadSource(FromXML("people.xml", benchIngestBase(500))); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Append("people.xml", benchIngestFrag(i)); err != nil {
			b.Fatal(err)
		}
		if i%128 == 127 {
			if _, err := eng.Commit(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkQueryWithDelta measures ordered-query latency over a document
// whose index is a packed-era base plus a committed 10% ingest delta — the
// steady state of a serving node between compactions.
func BenchmarkQueryWithDelta(b *testing.B) {
	eng := NewEngine(WithSeed(7))
	if err := eng.LoadSource(FromXML("people.xml", benchIngestBase(500))); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if err := eng.Append("people.xml", benchIngestFrag(i)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := eng.Commit(ctx); err != nil {
		b.Fatal(err)
	}
	const q = `for $p in doc("people.xml")//person order by $p/age return $p limit 10`
	if _, err := collectRows(eng.Execute(context.Background(), Request{Query: q})); err != nil {
		b.Fatal(err) // warm the plan cache once
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collectRows(eng.Execute(context.Background(), Request{Query: q})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALReplay measures the warm restart: open an ingest directory
// holding 32 committed single-fragment batches and replay them onto a
// freshly loaded corpus, one catalog publish per batch.
func BenchmarkWALReplay(b *testing.B) {
	base := benchIngestBase(500)
	walDir := b.TempDir()
	{
		eng := NewEngine(WithSeed(7))
		if err := eng.LoadSource(FromXML("people.xml", base)); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.OpenIngestDir(walDir); err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		for i := 0; i < 32; i++ {
			if err := eng.Append("people.xml", benchIngestFrag(i)); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Commit(ctx); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Ingest().Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(WithSeed(7))
		if err := eng.LoadSource(FromXML("people.xml", base)); err != nil {
			b.Fatal(err)
		}
		n, err := eng.OpenIngestDir(walDir)
		if err != nil {
			b.Fatal(err)
		}
		if n != 32 {
			b.Fatalf("replayed %d batches, want 32", n)
		}
		if err := eng.Ingest().Close(); err != nil {
			b.Fatal(err)
		}
	}
}
