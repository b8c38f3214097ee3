// Command datagen writes the synthetic datasets of the evaluation to disk
// as XML files.
//
// Usage:
//
//	datagen -kind xmark -out xmark.xml
//	datagen -kind xmark -shards 4 -outdir corpus/   # xmark-0.xml … xmark-3.xml
//	datagen -kind dblp -outdir dblp/ -scale 10 -divisor 1
//	datagen -kind dblp -venues VLDB,ICDE,ICIP,ADBIS -outdir .
//
// With -shards N the XMark corpus is emitted pre-split into N shard
// documents whose contents partition the single-document corpus in order —
// load them with roxserve -collection or rox.LoadCollectionSource and query them
// with collection("name").
//
// With -pack each document is emitted as a packed ROXD v2 container
// (.roxd) with persistent value indices — the mmap-able shard files
// roxpack produces, generated directly without an XML intermediate.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/xmltree"
)

func main() {
	kind := flag.String("kind", "dblp", "dataset kind: dblp | xmark")
	out := flag.String("out", "xmark.xml", "output file (xmark)")
	outdir := flag.String("outdir", ".", "output directory (dblp)")
	scale := flag.Int("scale", 1, "DBLP replication factor")
	divisor := flag.Int("divisor", 1, "divide Table 3 author-tag counts")
	seed := flag.Int64("seed", 2009, "generation seed")
	venuesFlag := flag.String("venues", "", "comma-separated venue subset (default: all 23)")
	pack := flag.Bool("pack", false, "write packed containers with persistent indices (.roxd) instead of XML text")
	persons := flag.Int("persons", 600, "xmark: person count")
	items := flag.Int("items", 500, "xmark: item count")
	auctions := flag.Int("auctions", 400, "xmark: open auction count")
	shards := flag.Int("shards", 0, "xmark: split the corpus into N shard files (written to -outdir)")
	flag.Parse()

	if err := run(*kind, *out, *outdir, *scale, *divisor, *seed, *venuesFlag, *pack, *persons, *items, *auctions, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

// run generates the corpus; pack selects packed .roxd containers (with
// persistent indices) over XML text as the on-disk form.
func run(kind, out, outdir string, scale, divisor int, seed int64, venuesFlag string, pack bool, persons, items, auctions, shards int) error {
	switch kind {
	case "xmark":
		cfg := datagen.DefaultXMarkConfig()
		cfg.Seed = seed
		cfg.Persons, cfg.Items, cfg.OpenAuctions = persons, items, auctions
		if shards > 0 {
			for _, d := range datagen.XMarkShards(cfg, shards) {
				path := docPath(outdir, d.Name(), pack)
				if err := writeDoc(d, path, pack); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", path)
			}
			return nil
		}
		return writeDoc(datagen.XMark(cfg), out, pack)
	case "dblp":
		venues := datagen.Catalog()
		if venuesFlag != "" {
			venues = nil
			for _, name := range strings.Split(venuesFlag, ",") {
				v, ok := datagen.VenueByName(strings.TrimSpace(name))
				if !ok {
					return fmt.Errorf("unknown venue %q", name)
				}
				venues = append(venues, v)
			}
		}
		cfg := datagen.DefaultDBLPConfig()
		cfg.Seed = seed
		cfg.Scale = scale
		cfg.TagDivisor = divisor
		docs := datagen.GenerateDBLP(cfg, venues)
		// Write and report in sorted name order: docs is a map, and callers
		// (and the smoke tests) deserve the same output line order every run.
		names := make([]string, 0, len(docs))
		for name := range docs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			d := docs[name]
			path := docPath(outdir, name, pack)
			if err := writeDoc(d, path, pack); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d author tags)\n", path, datagen.AuthorTagCount(d))
		}
		return nil
	default:
		return fmt.Errorf("unknown kind %q", kind)
	}
}

func docPath(outdir, name string, pack bool) string {
	path := filepath.Join(outdir, name)
	if pack {
		path += ".roxd"
	}
	return path
}

func writeDoc(d *xmltree.Document, path string, pack bool) error {
	if pack {
		return index.WritePackedFile(path, index.New(d))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return xmltree.Serialize(f, d, d.Root())
}
