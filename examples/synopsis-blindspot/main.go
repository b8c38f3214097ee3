// Synopsis blind-spot demo — why run-time optimization exists. A DataGuide
// synopsis (internal/synopsis) gives a static optimizer *exact* structural
// counts and decent value histograms, yet on correlated data its estimates
// are off by large factors because it multiplies marginal selectivities
// (the attribute-value-independence assumption of the paper's Sec 5).
// ROX never estimates: it samples the live intermediates and sees the
// correlation directly.
//
//	go run ./examples/synopsis-blindspot
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/synopsis"
	"repro/internal/xquery"
)

func main() {
	// The XMark generator correlates an auction's price with its bidder
	// count. Build the synopsis a static optimizer would use.
	doc := datagen.XMark(datagen.DefaultXMarkConfig())
	guide := synopsis.Build(doc)
	ix := index.New(doc)
	eng := rox.NewEngine()
	if err := eng.LoadSource(rox.FromDocument(doc)); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("document: %d nodes, synopsis: %d distinct paths\n\n", doc.Len(), guide.Size())

	// Structural counts are exact — the DataGuide guarantee.
	for _, p := range []string{"//open_auction", "//open_auction/bidder", "//person"} {
		est, err := guide.EstimatePath(p)
		if err != nil {
			log.Fatal(err)
		}
		actual, err := eng.XPathCount("xmark.xml", p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("structural %-28s synopsis %6d   actual %6d\n", p, est, actual)
	}

	// Now the correlated question: how many bidders belong to *cheap*
	// auctions? The synopsis scales the bidder count by the price
	// selectivity — assuming bidders are independent of price. They are
	// not: cheap auctions have few bidders.
	fmt.Println()
	bidders, _ := guide.EstimatePath("//open_auction/bidder")
	synEst := float64(bidders) * fracCheapAuctions(guide)

	cheapBidders, err := eng.XPathCount("xmark.xml", "//open_auction[./current/text() < 145]/bidder")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bidders of cheap auctions:   synopsis ≈ %.0f   actual %d\n", synEst, cheapBidders)
	ratio := synEst / float64(cheapBidders)
	if ratio < 1 {
		ratio = 1 / ratio
	}
	fmt.Printf("the static estimate is off by %.1f× — the independence blind spot\n\n", ratio)

	// ROX does not estimate — it observes. Run the paper's Q1 and watch
	// the weights adapt.
	comp, err := xquery.CompileString(`
		let $d := doc("xmark.xml")
		for $o in $d//open_auction[.//current/text() < 145],
		    $p in $d//person[.//province]
		where $o//bidder//personref/@person = $p/@id
		return $p`, xquery.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	env := plan.NewEnv(metrics.NewRecorder(), 2009)
	env.AddIndexed(ix)
	rel, res, err := core.Run(env, comp.Graph, comp.Tail, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ROX evaluated the correlated query: %d rows, %d intermediate tuples,\n",
		rel.NumRows(), res.CumulativeIntermediate)
	fmt.Printf("every ordering decision based on re-sampled live data — no estimates involved.\n")
}

// fracCheapAuctions returns the synopsis's estimate of the fraction of
// auctions whose current price is below 145 (their text values live under
// open_auction/current).
func fracCheapAuctions(g *synopsis.Guide) float64 {
	all, _ := g.EstimatePath("//open_auction")
	cheap, err := g.EstimateWithPredicates("//open_auction", synopsis.ValuePred{Op: "<", Val: "145"})
	if err != nil || all == 0 {
		return 0.5
	}
	return cheap / float64(all)
}
