// Streaming top-k: the rox.Rows cursor with limit/offset push-down over a
// 12-shard collection. The gather pulls the merged result one Next at a
// time, each shard computes at most offset+limit rows, and once the window
// fills the remaining shard work is canceled — compare the scanned/returned
// accounting of the windowed run against the full drain.
//
//	go run ./examples/streaming-topk
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/datagen"
)

func main() {
	cfg := datagen.DefaultXMarkConfig()
	cfg.Persons, cfg.Items, cfg.OpenAuctions = 200, 120, 100
	eng := rox.NewEngine(rox.WithSeed(1))
	var shards []rox.Source
	for _, d := range datagen.XMarkShards(cfg, 12) {
		shards = append(shards, rox.FromDocument(d))
	}
	if err := eng.LoadCollectionSource("xmark", shards...); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Full drain first: the complete ordered result, for comparison.
	const q = `for $c in collection("xmark")//open_auction/current order by $c descending return $c`
	rows, err := eng.Execute(ctx, rox.Request{Query: q})
	if err != nil {
		log.Fatal(err)
	}
	full, err := rows.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full drain: %d items scanned across %d shards\n\n",
		full.Stats.Scanned, len(full.Stats.Shards))

	// Top 5 through the cursor: each shard's tail keeps at most 5 rows, the
	// k-way merge stops after 5 items, the rest of the scatter is canceled.
	if rows, err = eng.Execute(ctx, rox.Request{Query: q, Limit: 5}); err != nil {
		log.Fatal(err)
	}
	rank := 0
	for item, err := range rows.All() {
		if err != nil {
			log.Fatal(err)
		}
		rank++
		fmt.Printf("top %d: %s\n", rank, item)
	}
	st := rows.Stats()
	fmt.Printf("\ntop-5 run: returned %d of %d scanned, truncated %v\n",
		st.Rows, st.Scanned, st.Truncated)
	truncatedShards := 0
	for _, sh := range st.Shards {
		if sh.Stats.Truncated {
			truncatedShards++
		}
	}
	fmt.Printf("shards reporting truncated pulls: %d of %d\n", truncatedShards, len(st.Shards))

	// Page two of the same result, through a prepared statement: the
	// Request window overrides per execution, so one Prepared serves every
	// page.
	prep, err := eng.Prepare(q)
	if err != nil {
		log.Fatal(err)
	}
	pageTwo := rox.Request{Prepared: prep, Limit: 3, Offset: 5}
	page, err := eng.Execute(ctx, pageTwo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npage 2 (offset 5, limit 3):")
	for item, err := range page.All() {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("  " + item)
	}
	fmt.Println("page 2 equals full[5:8]:", pageEquals(ctx, eng, pageTwo, full.Items[5:8]))
}

// pageEquals re-runs page two and byte-compares it against the full drain's
// slice — the windowed scatter must agree with the materialized result.
func pageEquals(ctx context.Context, eng *rox.Engine, page rox.Request, want []string) bool {
	rows, err := eng.Execute(ctx, page)
	if err != nil {
		log.Fatal(err)
	}
	var got []string
	for item, err := range rows.All() {
		if err != nil {
			log.Fatal(err)
		}
		got = append(got, item)
	}
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
