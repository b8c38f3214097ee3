// Scenario suite: one txtar archive — corpus, queries, archived
// expectations — executed against the in-process engine, a roxserve
// handler and a loopback coordinator+shard cluster, with all three
// required to stream identical items. The archive format and runner
// semantics are specified in the "Load harness and the perf gate"
// section of DESIGN.md; the repo's own suite lives in
// internal/scenario/testdata.
//
//	go run ./examples/scenario-suite
package main

import (
	"context"
	_ "embed"
	"fmt"
	"log"

	"repro/internal/scenario"
)

//go:embed people.txtar
var archive []byte

func main() {
	s, err := scenario.Parse("people.txtar", archive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %s: collection %q, %d shards, %d queries\n",
		s.Name, s.Collection, len(s.Shards), len(s.Queries))
	for _, q := range s.Queries {
		fmt.Printf("  query %-12s expects %d items\n", q.Name, len(q.Expect))
	}

	// Run each target separately to show the per-target outcomes...
	ctx := context.Background()
	for _, target := range s.Targets {
		outs, err := s.Run(ctx, target)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntarget %s:\n", target)
		for _, o := range outs {
			if o.Err != "" {
				fmt.Printf("  %s: error: %s\n", o.Query, o.Err)
				continue
			}
			fmt.Printf("  %s: %d items, first: %s\n", o.Query, len(o.Items), o.Items[0])
		}
	}

	// ...then Verify, which is what the test suite runs: every target's
	// stream diffed item-for-item against the archived expectation.
	mismatches, err := scenario.Verify(ctx, s)
	if err != nil {
		log.Fatal(err)
	}
	if len(mismatches) > 0 {
		for _, m := range mismatches {
			fmt.Println("MISMATCH:", m)
		}
		log.Fatal("scenario failed")
	}
	fmt.Printf("\nverified: %d queries x %d targets, all streams identical\n",
		len(s.Queries), len(s.Targets))
}
