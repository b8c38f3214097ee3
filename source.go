package rox

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/xmltree"
)

// Source is one loadable document in any of the engine's ingestion forms:
// XML text, a reader, an XML file, a packed .roxd container, or a
// pre-shredded document. Build one with the From* constructors — each fixes
// the document's name — and load it with Engine.LoadSource (single document)
// or Engine.LoadCollectionSource (shards of a collection). This is the one
// way a document reaches the engine.
//
// A Source is single-use in spirit but safe to reload: every open call
// re-reads its input (re-parses the XML, re-opens the file), so loading the
// same Source twice registers the current state of the input both times.
type Source struct {
	open func() (*index.Index, error) // materializes the document's index
	desc string
}

// FromXML sources a document from XML text; name is the document name
// (doc("name") in queries).
func FromXML(name, xml string) Source {
	return Source{desc: "xml", open: func() (*index.Index, error) {
		d, err := xmltree.ParseString(name, xml)
		if err != nil {
			return nil, err
		}
		return index.New(d), nil
	}}
}

// FromReader sources a document from an XML reader. The reader is consumed
// when the source is loaded — a Source built from a reader loads once.
func FromReader(name string, r io.Reader) Source {
	return Source{desc: "reader", open: func() (*index.Index, error) {
		d, err := xmltree.Parse(name, r, xmltree.ParseOptions{})
		if err != nil {
			return nil, err
		}
		return index.New(d), nil
	}}
}

// FromFile sources a document from an XML file; an empty name names the
// document after the path's base name.
func FromFile(name, path string) Source {
	return Source{desc: "file " + path, open: func() (*index.Index, error) {
		docName := name
		if docName == "" {
			docName = filepath.Base(path)
		}
		d, err := xmltree.ParseFile(docName, path)
		if err != nil {
			return nil, err
		}
		return index.New(d), nil
	}}
}

// FromPacked sources a document from a .roxd container produced by
// cmd/roxpack (or datagen -pack): memory-mapped and queried zero-copy, its
// persistent index sections attached from disk — none of the O(corpus)
// shredding and index building of FromFile. On platforms without mmap the
// container is read into the heap (same layout, same indices). The document
// keeps the name stored in the container (a packed document cannot be
// renamed — its serialized index postings embed the name).
//
// As a collection shard this is the O(1) shard swap: replacing a shard maps
// the new file with no re-shred, no index rebuild and no stop-the-world. The
// old mapping stays valid for in-flight queries over the previous catalog
// snapshot and is unmapped once unreachable.
func FromPacked(path string) Source {
	return Source{desc: "packed " + path, open: func() (*index.Index, error) {
		return index.OpenPackedFile(path)
	}}
}

// FromDocument sources a pre-shredded document (e.g. from the dataset
// generators in internal/datagen) under the document's own name.
func FromDocument(d *xmltree.Document) Source {
	return Source{desc: "document " + d.Name(), open: func() (*index.Index, error) {
		return index.New(d), nil
	}}
}

// FromPath sources a document from a file of either on-disk form, chosen by
// the one path rule of the repository: a path ending in .roxd is a packed
// container (FromPacked — it keeps its stored name and ignores xmlName),
// anything else is XML text (FromFile under xmlName, "" = the base name).
func FromPath(xmlName, path string) Source {
	if strings.HasSuffix(path, ".roxd") {
		return FromPacked(path)
	}
	return FromFile(xmlName, path)
}

// LoadSource loads one document from any Source. The expensive work (parsing,
// shredding, index building, mapping) happens outside the engine lock and
// the registration is one copy-on-write catalog swap, safe while queries are
// in flight. Replacing a document with durable ingest state compacts the
// ingest directory (see Ingester); its error is returned after the load
// published.
func (e *Engine) LoadSource(src Source) error {
	ix, err := src.open()
	if err != nil {
		return err
	}
	var olds []*index.Index
	e.publish(func(cat *plan.Catalog) {
		olds = replaced(cat, olds, ix)
		cat.AddIndexed(ix)
	})
	return e.reloaded(olds)
}

// LoadCollectionSource loads every Source as a shard of the named collection
// (created on first use), in argument order, which becomes the collection's
// result order; a source whose document name is already a shard replaces
// that shard in place. collection(coll) scatters over the shards and each
// also stays addressable as doc(shardName). All sources materialize before
// anything registers, and registration is one copy-on-write swap: concurrent
// queries see either the catalog before the call or the complete collection,
// never a prefix — and a source error loads nothing at all. A replaced shard
// bumps only its own generation stamp, so cached plans of the sibling shards
// stay exactly valid while the plan cache's stale-generation machinery
// absorbs the change for the swapped one. A swap, like a reload, compacts
// the ingest directory when the replaced shard has durable state.
func (e *Engine) LoadCollectionSource(coll string, srcs ...Source) error {
	ixs := make([]*index.Index, len(srcs)) // the expensive part, outside the lock
	for i, src := range srcs {
		ix, err := src.open()
		if err != nil {
			return fmt.Errorf("rox: collection %q shard %d (%s): %w", coll, i, src.desc, err)
		}
		ixs[i] = ix
	}
	var olds []*index.Index
	e.publish(func(cat *plan.Catalog) {
		for _, ix := range ixs {
			olds = replaced(cat, olds, ix)
			cat.AddCollectionShard(coll, ix)
		}
	})
	return e.reloaded(olds)
}

// replaced appends to olds the index cat registers under ix's document name,
// if any: the one registering ix replaces.
func replaced(cat *plan.Catalog, olds []*index.Index, ix *index.Index) []*index.Index {
	if old, err := cat.Index(ix.Doc().Name()); err == nil {
		olds = append(olds, old)
	}
	return olds
}

// reloaded hands the indexes a load replaced to the ingester, whose durable
// directory must forget them (Ingester.reloaded).
func (e *Engine) reloaded(olds []*index.Index) error {
	if len(olds) == 0 {
		return nil
	}
	return e.Ingest().reloaded(olds)
}
