package rox

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/xquery"
)

// replayXMarkTexts are the five query texts of roxmark's replay-xmark
// workload at seed 1: a join, its count, a top-k, a sum and a scan.
var replayXMarkTexts = func() []string {
	join := `let $d := doc("xmark.xml") for $o in $d//open_auction[.//current/text() < 145], ` +
		`$p in $d//person[.//province] where $o//bidder//personref/@person = $p/@id return `
	return []string{
		join + "$p limit 50",
		join + "count($p)",
		`for $a in doc("xmark.xml")//open_auction[reserve] order by $a/current descending return $a limit 10`,
		`for $a in doc("xmark.xml")//open_auction return sum($a/initial)`,
		`for $p in doc("xmark.xml")//person[.//province] return $p limit 200`,
	}
}()

// extentChecksum hashes the index extent of every Join Graph vertex of the
// texts: the node sets vertex tables are views of.
func extentChecksum(t *testing.T, e *Engine, texts []string) uint32 {
	t.Helper()
	h := crc32.NewIEEE()
	env := plan.NewQueryEnv(e.catalog(), nil, 0)
	for _, q := range texts {
		comp, err := xquery.CompileString(q, xquery.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range comp.Graph.Vertices {
			nodes, _, err := env.VertexNodes(v)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s:%d:", v.Label(), len(nodes))
			if err := binary.Write(h, binary.LittleEndian, nodes); err != nil {
				t.Fatal(err)
			}
		}
	}
	return h.Sum32()
}

// TestConcurrentRunsLeaveIndexExtentsIntact: vertex tables, step inputs and
// refreshed T(v) are views of index extents that every query shares, so no
// query may write through them. Checksum the extents the replay-xmark texts
// touch, run the texts from several goroutines at once — cold (optimizing)
// and replayed — and checksum again. Under -race the detector also watches
// every read of the shared extents against any write.
func TestConcurrentRunsLeaveIndexExtentsIntact(t *testing.T) {
	doc := datagen.XMark(datagen.DefaultXMarkConfig())
	for _, e := range []*Engine{NewEngine(WithSeed(1)), NewEngine(WithSeed(1), WithPlanCache(0))} {
		if err := e.LoadSource(FromDocument(doc)); err != nil {
			t.Fatal(err)
		}
		before := extentChecksum(t, e, replayXMarkTexts)
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					for _, q := range replayXMarkTexts {
						if _, err := collectRows(e.Execute(context.Background(), Request{Query: q})); err != nil {
							errs <- err
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if after := extentChecksum(t, e, replayXMarkTexts); after != before {
			t.Fatalf("index extents changed under concurrent queries: crc %08x, was %08x", after, before)
		}
	}
}
