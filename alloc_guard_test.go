//go:build !race

package rox

import (
	"context"
	"testing"

	"repro/internal/datagen"
)

// The allocation guard: a per-row allocation that creeps back into edge
// execution or the aggregate fold fails here, in `go test`, before it reaches
// roxmark. Each ceiling is ≈ 25 % above the count measured when it was
// written (default XMark scale, go1.24); the counts scale with the result
// rows, so a per-row regression overshoots a ceiling many times over. The
// race detector changes what escapes, so the file is excluded under -race
// and ci.yml runs `go test -run Alloc ./...` without it.

func allocsPerQuery(t *testing.T, query string) float64 {
	t.Helper()
	e := NewEngine(WithSeed(1))
	e.LoadDocument(datagen.XMark(datagen.DefaultXMarkConfig()))
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
	return testing.AllocsPerRun(20, run)
}

func TestAllocGuardReplayedJoin(t *testing.T) {
	// The paper's Sec 3.2 query, windowed like roxmark's join class so that
	// edge execution, not item rendering, is what is counted: measured 1 720
	// (5 851 with a hash map and a slice per context node in every merge).
	const ceiling = 2150
	got := allocsPerQuery(t, `let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < 145], $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id return $p limit 50`)
	if got > ceiling {
		t.Errorf("replayed join: %.0f allocations per query, ceiling %d", got, ceiling)
	}
}

func TestAllocGuardSumAggregate(t *testing.T) {
	// Measured 569 (3 112 when matchNodes materialized Children per row).
	const ceiling = 710
	got := allocsPerQuery(t, `for $a in doc("xmark.xml")//open_auction return sum($a/initial)`)
	if got > ceiling {
		t.Errorf("sum aggregate: %.0f allocations per query, ceiling %d", got, ceiling)
	}
}
