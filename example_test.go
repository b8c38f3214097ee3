package rox_test

import (
	"context"
	"fmt"

	rox "repro"
)

// ExampleEngine_Execute_collect loads a document, runs a simple path query
// through the ROX run-time optimizer and drains the cursor into a Result.
func ExampleEngine_Execute_collect() {
	eng := rox.NewEngine()
	if err := eng.LoadSource(rox.FromXML("people.xml", `<people>
		<person id="p1"><name>Alice</name></person>
		<person id="p2"><name>Bob</name></person>
	</people>`)); err != nil {
		panic(err)
	}
	rows, err := eng.Execute(context.Background(), rox.Request{Query: `for $n in doc("people.xml")//person/name return $n`})
	if err != nil {
		panic(err)
	}
	res, err := rows.Collect()
	if err != nil {
		panic(err)
	}
	for _, item := range res.Items {
		fmt.Println(item)
	}
	// Output:
	// <name>Alice</name>
	// <name>Bob</name>
}

// ExampleEngine_Prepare compiles a join query once and replays its cached
// plan on every subsequent call — the server hot path.
func ExampleEngine_Prepare() {
	eng := rox.NewEngine()
	check := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	check(eng.LoadSource(rox.FromXML("people.xml", `<people>
		<person id="p1"><name>Alice</name></person>
		<person id="p2"><name>Bob</name></person>
	</people>`)))
	check(eng.LoadSource(rox.FromXML("orders.xml", `<orders>
		<order person="p2" total="8"/>
		<order person="p1" total="5"/>
	</orders>`)))

	prep, err := eng.Prepare(`
		for $p in doc("people.xml")//person,
		    $o in doc("orders.xml")//order
		where $o/@person = $p/@id
		return <hit>{$p}{$o}</hit>`)
	check(err)

	run := func() *rox.Result {
		rows, err := eng.Execute(context.Background(), rox.Request{Prepared: prep})
		check(err)
		res, err := rows.Collect()
		check(err)
		return res
	}
	first := run()  // cache miss: full ROX run, plan installed
	second := run() // cache hit: replay, zero sampling work
	fmt.Println("rows:", first.Stats.Rows)
	fmt.Println("second run cache hit:", second.Stats.CacheHit, "sample tuples:", second.Stats.SampleTuples)
	// Output:
	// rows: 2
	// second run cache hit: true sample tuples: 0
}

// ExampleEngine_LoadCollectionSource registers a sharded collection and queries it
// scatter-gather: every shard runs the full ROX pipeline independently and
// the ordered results merge back in collection order.
func ExampleEngine_LoadCollectionSource() {
	eng := rox.NewEngine()
	for i, xml := range []string{
		`<site><person id="p0"><name>Ada</name></person></site>`,
		`<site><person id="p1"><name>Grace</name></person></site>`,
	} {
		if err := eng.LoadCollectionSource("site", rox.FromXML(fmt.Sprintf("site-%d.xml", i), xml)); err != nil {
			panic(err)
		}
	}
	rows, err := eng.Execute(context.Background(), rox.Request{Query: `for $n in collection("site")//person/name return $n`})
	if err != nil {
		panic(err)
	}
	res, err := rows.Collect()
	if err != nil {
		panic(err)
	}
	for _, item := range res.Items {
		fmt.Println(item)
	}
	fmt.Println("shards evaluated:", len(res.Stats.Shards))
	// Output:
	// <name>Ada</name>
	// <name>Grace</name>
	// shards evaluated: 2
}

// ExampleEngine_Execute streams a query through the rox.Rows cursor. Items
// are serialized one Next at a time, so an early Close never pays for rows
// the caller does not read.
func ExampleEngine_Execute() {
	eng := rox.NewEngine()
	if err := eng.LoadSource(rox.FromXML("people.xml", `<people>
		<person id="p1"><name>Alice</name></person>
		<person id="p2"><name>Bob</name></person>
	</people>`)); err != nil {
		panic(err)
	}
	ctx := context.Background()
	rows, err := eng.Execute(ctx, rox.Request{Query: `for $n in doc("people.xml")//person/name return $n`})
	if err != nil {
		panic(err)
	}
	defer rows.Close()
	for rows.Next() {
		fmt.Println(rows.Item())
	}
	if err := rows.Err(); err != nil {
		panic(err)
	}
	fmt.Println("rows:", rows.Stats().Rows)
	// Output:
	// <name>Alice</name>
	// <name>Bob</name>
	// rows: 2
}

// ExampleRows_All iterates a cursor with the Go 1.23 range-over-func
// adapter; the cursor closes itself when the loop ends.
func ExampleRows_All() {
	eng := rox.NewEngine()
	if err := eng.LoadSource(rox.FromXML("shop.xml", `<shop>
		<item><price>10</price></item>
		<item><price>25</price></item>
	</shop>`)); err != nil {
		panic(err)
	}
	rows, err := eng.Execute(context.Background(),
		rox.Request{Query: `for $p in doc("shop.xml")//item/price return $p`})
	if err != nil {
		panic(err)
	}
	for item, err := range rows.All() {
		if err != nil {
			panic(err)
		}
		fmt.Println(item)
	}
	// Output:
	// <price>10</price>
	// <price>25</price>
}

// ExampleEngine_Execute_prepared pages through a result with limit/offset
// push-down: one prepared statement serves every page, the Request window
// rides the cache key, and over sharded collections the scatter stops
// pulling once the page is full.
func ExampleEngine_Execute_prepared() {
	eng := rox.NewEngine()
	if err := eng.LoadSource(rox.FromXML("shop.xml", `<shop>
		<item><price>10</price></item>
		<item><price>45</price></item>
		<item><price>25</price></item>
		<item><price>30</price></item>
	</shop>`)); err != nil {
		panic(err)
	}
	prep, err := eng.Prepare(`for $p in doc("shop.xml")//item/price order by $p descending return $p`)
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	for page := 0; page < 2; page++ {
		rows, err := eng.Execute(ctx, rox.Request{Prepared: prep, Limit: 2, Offset: 2 * page})
		if err != nil {
			panic(err)
		}
		for item, err := range rows.All() {
			if err != nil {
				panic(err)
			}
			fmt.Printf("page %d: %s\n", page, item)
		}
	}
	// Output:
	// page 0: <price>45</price>
	// page 0: <price>30</price>
	// page 1: <price>25</price>
	// page 1: <price>10</price>
}

// ExampleEngine_Execute_aggregatesAndOrderBy shows the aggregation and
// ordering tail: numeric aggregates fold over every binding, order by sorts
// result items by an extracted key. Over a collection the same queries merge
// per-shard partial aggregates and k-way merge the ordered streams.
func ExampleEngine_Execute_aggregatesAndOrderBy() {
	eng := rox.NewEngine()
	query := func(q string) []string {
		rows, err := eng.Execute(context.Background(), rox.Request{Query: q})
		if err != nil {
			panic(err)
		}
		res, err := rows.Collect()
		if err != nil {
			panic(err)
		}
		return res.Items
	}
	if err := eng.LoadSource(rox.FromXML("shop.xml", `<shop>
		<item id="i1"><price>10</price></item>
		<item id="i2"><price>25.5</price></item>
		<item id="i3"><price>30</price></item>
	</shop>`)); err != nil {
		panic(err)
	}
	for _, q := range []string{
		`for $i in doc("shop.xml")//item return sum($i/price)`,
		`for $i in doc("shop.xml")//item return avg($i/price)`,
		`for $i in doc("shop.xml")//item return max($i/price)`,
	} {
		fmt.Println(query(q)[0])
	}
	fmt.Println(query(`for $p in doc("shop.xml")//item/price order by $p descending return $p`))
	// Output:
	// 65.5
	// 21.833333333333332
	// 30
	// [<price>30</price> <price>25.5</price> <price>10</price>]
}
