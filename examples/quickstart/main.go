// Quickstart: load XML documents, run an XQuery with the ROX run-time
// optimizer, inspect results and statistics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

const people = `<people>
  <person id="p1"><name>Ada</name><city>Enschede</city></person>
  <person id="p2"><name>Grace</name><city>Amsterdam</city></person>
  <person id="p3"><name>Edsger</name><city>Amsterdam</city></person>
</people>`

const purchases = `<purchases>
  <purchase person="p2"><amount>120</amount></purchase>
  <purchase person="p3"><amount>15</amount></purchase>
  <purchase person="p2"><amount>60</amount></purchase>
</purchases>`

func main() {
	eng := rox.NewEngine(rox.WithSeed(1))
	if err := eng.LoadSource(rox.FromXML("people.xml", people)); err != nil {
		log.Fatal(err)
	}
	if err := eng.LoadSource(rox.FromXML("purchases.xml", purchases)); err != nil {
		log.Fatal(err)
	}

	// A join across two documents with a value predicate: people from
	// Amsterdam with a purchase above 50.
	query := `
		for $p in doc("people.xml")//person,
		    $b in doc("purchases.xml")//purchase[./amount/text() > 50]
		where $b/@person = $p/@id
		return $p`

	// What the run-time optimizer receives: the Join Graph.
	graph, err := eng.Explain(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Join Graph handed to ROX:")
	fmt.Println(graph)

	// Execute returns a streaming cursor; Collect drains it into a Result.
	ctx := context.Background()
	rows, err := eng.Execute(ctx, rox.Request{Query: query})
	if err != nil {
		log.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("results:")
	for _, item := range res.Items {
		fmt.Println(" ", item)
	}
	fmt.Printf("\nstats: %d rows in %s; execution work %d tuples, sampling work %d tuples\n",
		res.Stats.Rows, res.Stats.ElapsedNS, res.Stats.ExecTuples, res.Stats.SampleTuples)
	fmt.Printf("executed plan: %s\n", res.Stats.Plan)

	// The classical compile-time baseline computes the same answer.
	if rows, err = eng.Execute(ctx, rox.Request{Query: query, Static: true}); err != nil {
		log.Fatal(err)
	}
	stat, err := rows.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classical baseline agrees: %d rows, plan %s\n", stat.Stats.Rows, stat.Stats.Plan)
}
