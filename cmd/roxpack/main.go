// Command roxpack shreds XML corpora into packed .roxd shard files — the
// ROXD v2 mmap-able container holding the columnar node table, the string
// dictionaries and the persistent value indices, so engines cold-start by
// mapping the file instead of re-shredding the XML and rebuilding every
// index in RAM (see the "On-disk store and persistent indices" section of
// DESIGN.md).
//
// Usage:
//
//	roxpack -outdir corpus/ shard-0.xml shard-1.xml      # pack XML files
//	roxpack -check corpus/*.roxd                         # audit packed files
//
// Each input FILE.xml becomes OUTDIR/FILE.roxd, named inside the container
// after the input's base name so doc("FILE.xml") and shard globs keep
// working. Inputs are processed in argument order and the output is
// byte-deterministic per input.
//
// Serve packed shards directly:
//
//	datagen -kind xmark -shards 4 -pack -outdir corpus/
//	roxserve -collection xmark=corpus/xmark-*.roxd
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/index"
	"repro/internal/xmltree"
)

func main() {
	outdir := flag.String("outdir", ".", "directory packed .roxd files are written to")
	check := flag.Bool("check", false, "verify packed files instead of packing: map, validate structure, print a summary")
	flag.Parse()
	if err := run(os.Stdout, *outdir, *check, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "roxpack:", err)
		os.Exit(1)
	}
}

func run(w *os.File, outdir string, check bool, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("no input files (pass XML paths, or .roxd paths with -check)")
	}
	if check {
		for _, path := range args {
			if err := checkFile(w, path); err != nil {
				return err
			}
		}
		return nil
	}
	for _, path := range args {
		if err := packFile(w, outdir, path); err != nil {
			return err
		}
	}
	return nil
}

// packFile shreds one XML input and writes the packed container with
// persistent index sections.
func packFile(w *os.File, outdir, path string) error {
	base := filepath.Base(path)
	if strings.HasSuffix(base, ".roxd") {
		// A container is only ever made from XML. Open it anyway, so a file
		// in the removed v1 format gets the decoder's re-pack hint.
		if _, err := xmltree.OpenPackedFile(path); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		return fmt.Errorf("%s: already packed; use -check", path)
	}
	d, err := xmltree.ParseFile(base, path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	name := strings.TrimSuffix(base, filepath.Ext(base)) + ".roxd"
	out := filepath.Join(outdir, name)
	ix := index.New(d)
	if err := index.WritePackedFile(out, ix); err != nil {
		return fmt.Errorf("pack %s: %w", path, err)
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "packed %s -> %s (%d nodes, %d bytes)\n", path, out, d.Len(), st.Size())
	return nil
}

// checkFile audits one packed file: open (mapping when possible), run the
// full structural validation the fast open path skips, and confirm the
// persistent index sections attach.
func checkFile(w *os.File, path string) error {
	p, err := xmltree.OpenPackedFile(path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := p.Verify(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	indexed := "persistent indices"
	if _, err := index.FromPacked(p); err != nil {
		if err != index.ErrNoIndexSections {
			return fmt.Errorf("%s: %w", path, err)
		}
		indexed = "no index sections"
	}
	backing := "heap"
	if p.Doc().Mapped() {
		backing = "mapped"
	}
	fmt.Fprintf(w, "ok %s: doc %q, %d nodes, %d sections, %s, %s\n",
		path, p.Doc().Name(), p.Doc().Len(), len(p.SectionNames()), indexed, backing)
	return nil
}
