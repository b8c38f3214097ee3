// DBLP four-way join demo — the paper's Sec 4 workload. Four venue
// documents are generated from the Table 3 catalog (three database venues
// plus ICIP from information retrieval); the query asks for authors that
// published in all four. The three DB venues share many authors (the
// within-area correlation), so any plan joining them first drags large
// intermediates; ROX discovers this by sampling and starts with the
// uncorrelated venue, while the classical smallest-input-first baseline
// walks straight into the correlation.
//
//	go run ./examples/dblp-fourway
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/classical"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/planenum"
)

func main() {
	cfg := bench.Config{Seed: 2009, Tau: 100, Scale: 1, TagDivisor: 20}
	corpus := bench.NewCorpus(cfg)

	var combo datagen.Combo
	for i, name := range []string{"VLDB", "ICDE", "ICIP", "ADBIS"} {
		v, _ := datagen.VenueByName(name)
		combo.Venues[i] = v
	}
	combo.Group = "3:1"

	fmt.Println("query: authors publishing in VLDB, ICDE, ICIP and ADBIS")
	fmt.Println(bench.FourWayQuery(combo))
	fmt.Println()

	comp, fw, err := bench.CompileCombo(combo)
	if err != nil {
		log.Fatal(err)
	}

	// Intermediate join sizes of every join order (Fig 5).
	counts := corpus.ComboCounts(combo)
	fmt.Println("cumulative intermediate join sizes per join order (1=VLDB 2=ICDE 3=ICIP 4=ADBIS):")
	for _, o := range planenum.EnumerateJoinOrders4() {
		fmt.Printf("  %-12s %8d\n", o.Label(), bench.CumulativeJoinSize(counts, o))
	}

	// The classical baseline's choice.
	env := corpus.EnvFor(combo)
	corder, err := classical.SmallestInputOrder(env, comp.Graph, fw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nclassical (smallest-input-first) picks: %s → cumulative %d\n",
		corder.Canonical().Label(), bench.CumulativeJoinSize(counts, corder))

	// ROX.
	env2 := corpus.EnvFor(combo)
	rel, res, err := core.Run(env2, comp.Graph, comp.Tail, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	rox, ok := fw.DecodeOrder(comp.Graph, &res.Plan)
	if !ok {
		log.Fatal("ROX's plan is none of the 18 join orders")
	}
	fmt.Printf("ROX picks:                              %s\n", rox.Label())
	fmt.Printf("ROX result: %d authors; cumulative intermediates %d; sampling %d / execution %d tuples\n",
		rel.NumRows(), res.CumulativeIntermediate, res.SampleCost.Tuples, res.ExecCost.Tuples)

	// Re-execute ROX's plan without sampling — the paper's "pure plan".
	env3 := corpus.EnvFor(combo)
	_, stats, err := plan.Run(env3, comp.Graph, &res.Plan, comp.Tail)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ROX pure plan re-run: %d result rows, cumulative intermediates %d\n",
		stats.ResultRows, stats.CumulativeIntermediate)
}
