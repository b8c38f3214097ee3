// Aggregates: the aggregation and ordering tail over a sharded collection —
// sum/avg/min/max with shard-aware partial-aggregate merge, and order by
// with the k-way ordered merge, checked against the same corpus loaded as a
// single catalog.
//
//	go run ./examples/aggregates
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/datagen"
)

func main() {
	// The same deterministic XMark corpus twice: as one catalog, and split
	// into 4 shards of collection "xmark".
	cfg := datagen.DefaultXMarkConfig()
	cfg.Persons, cfg.Items, cfg.OpenAuctions = 200, 120, 100

	single := rox.NewEngine(rox.WithSeed(1))
	if err := single.LoadSource(rox.FromDocument(datagen.XMark(cfg))); err != nil {
		log.Fatal(err)
	}
	sharded := rox.NewEngine(rox.WithSeed(1))
	var shards []rox.Source
	for _, d := range datagen.XMarkShards(cfg, 4) {
		shards = append(shards, rox.FromDocument(d))
	}
	if err := sharded.LoadCollectionSource("xmark", shards...); err != nil {
		log.Fatal(err)
	}

	queries := []struct{ label, docQ, collQ string }{
		{
			"sum of initial prices (exact partial-sum merge)",
			`for $a in doc("xmark.xml")//open_auction return sum($a/initial)`,
			`for $a in collection("xmark")//open_auction return sum($a/initial)`,
		},
		{
			"avg reserve over reserved auctions ((sum, count) merge)",
			`for $a in doc("xmark.xml")//open_auction[reserve] return avg($a/reserve)`,
			`for $a in collection("xmark")//open_auction[reserve] return avg($a/reserve)`,
		},
		{
			"min bidder increase (min of per-shard minima)",
			`for $b in doc("xmark.xml")//open_auction//bidder return min($b/increase)`,
			`for $b in collection("xmark")//open_auction//bidder return min($b/increase)`,
		},
		{
			"max current price (max of per-shard maxima)",
			`for $a in doc("xmark.xml")//open_auction return max($a/current)`,
			`for $a in collection("xmark")//open_auction return max($a/current)`,
		},
	}
	for _, q := range queries {
		one := collect(single, rox.Request{Query: q.docQ})
		many := collect(sharded, rox.Request{Query: q.collQ})
		status := "MATCH"
		if one.Items[0] != many.Items[0] {
			status = "MISMATCH"
		}
		fmt.Printf("%-58s single=%s sharded=%s (%d shards) %s\n",
			q.label, one.Items[0], many.Items[0], len(many.Stats.Shards), status)
	}

	// order by: every shard returns its items key-sorted, the gather side
	// k-way merges — byte-identical to sorting the single catalog.
	ordQ := `for $a in %s//open_auction where $a/current > 150 order by $a/current descending return $a`
	one := collect(single, rox.Request{Query: fmt.Sprintf(ordQ, `doc("xmark.xml")`)})
	many := collect(sharded, rox.Request{Query: fmt.Sprintf(ordQ, `collection("xmark")`)})
	identical := len(one.Items) == len(many.Items)
	for i := 0; identical && i < len(one.Items); i++ {
		identical = one.Items[i] == many.Items[i]
	}
	fmt.Printf("\norder by current descending: %d auctions, sharded output byte-identical: %v\n",
		one.Stats.Rows, identical)
	fmt.Println("top three item lengths (asc ties keep document order):")
	for i := 0; i < 3 && i < len(many.Items); i++ {
		fmt.Printf("  #%d: %d bytes\n", i+1, len(many.Items[i]))
	}

	// Cached replay: the second run replays every shard's plan.
	again := collect(sharded, rox.Request{Query: fmt.Sprintf(ordQ, `collection("xmark")`)})
	fmt.Printf("replay: cache hit %v, sampling tuples %d\n",
		again.Stats.CacheHit, again.Stats.SampleTuples)
}

// collect runs one request and drains its cursor into a Result.
func collect(eng *rox.Engine, req rox.Request) *rox.Result {
	rows, err := eng.Execute(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		log.Fatal(err)
	}
	return res
}
