// Packed cold start: shred an XMark corpus into packed .roxd shard files
// once, then serve it by memory-mapping the containers — no XML parsing and
// no index rebuild on the hot path. Compares the packed cold start against
// re-shredding the same corpus and proves the answers are byte-identical.
//
//	go run ./examples/packed-coldstart
//
// Set ROX_PACKED_FIXTURES to a directory to reuse (and cache) the packed
// shard files across runs — CI points this at its fixture cache.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/index"
)

const shards = 4

func main() {
	dir := os.Getenv("ROX_PACKED_FIXTURES")
	if dir == "" {
		tmp, err := os.MkdirTemp("", "packed-coldstart")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	cfg := datagen.DefaultXMarkConfig()
	cfg.Persons, cfg.Items, cfg.OpenAuctions = 300, 180, 150
	docs := datagen.XMarkShards(cfg, shards)

	// Pack once (roxpack / datagen -pack do the same); reuse existing files
	// so a warm fixture directory skips straight to the mapped load.
	packed := make([]rox.Source, len(docs))
	for i, d := range docs {
		path := filepath.Join(dir, d.Name()+".roxd")
		packed[i] = rox.FromPacked(path)
		if _, err := os.Stat(path); err == nil {
			continue // warm fixture directory: reuse the packed shard
		}
		if err := index.WritePackedFile(path, index.New(d)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("fixture: %d packed shards\n", len(packed))

	// Cold start A: re-shred the XML corpus and rebuild every index.
	shredStart := time.Now()
	shredded := rox.NewEngine(rox.WithSeed(1))
	var fresh []rox.Source
	for _, d := range datagen.XMarkShards(cfg, shards) {
		fresh = append(fresh, rox.FromDocument(d))
	}
	if err := shredded.LoadCollectionSource("xmark", fresh...); err != nil {
		log.Fatal(err)
	}
	shredTime := time.Since(shredStart)

	// Cold start B: map the packed containers and attach their persistent
	// index sections.
	packedStart := time.Now()
	mapped := rox.NewEngine(rox.WithSeed(1))
	if err := mapped.LoadCollectionSource("xmark", packed...); err != nil {
		log.Fatal(err)
	}
	packedTime := time.Since(packedStart)
	fmt.Printf("cold start: shred %v, packed %v\n", shredTime, packedTime)

	query := `for $p in collection("xmark")//person[education] order by $p/@id return $p limit 3`
	want := collect(shredded, rox.Request{Query: query})
	got := collect(mapped, rox.Request{Query: query})
	identical := len(want.Items) == len(got.Items)
	for i := 0; identical && i < len(want.Items); i++ {
		identical = want.Items[i] == got.Items[i]
	}
	fmt.Printf("mapped results identical to shredded: %v (%d items)\n", identical, len(got.Items))
	for _, item := range got.Items {
		fmt.Println(" ", item)
	}

	sum := collect(mapped, rox.Request{Query: `for $a in collection("xmark")//open_auction return sum($a/initial)`})
	fmt.Printf("sum over mapped shards: %s\n", sum.Items[0])
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
