package plan

import (
	"fmt"
	"sort"

	"repro/internal/index"
	"repro/internal/xmltree"
)

// Catalog is the share-everything half of the former Env: the registered
// documents and their indices. A Catalog is built once at load time and is
// immutable afterwards from the engine's point of view — all query-time
// access is read-only, so one Catalog can back any number of concurrent
// query evaluations (each with its own per-query Env).
//
// Mutation (AddDocument/AddIndexed) is only safe while the catalog has a
// single owner, i.e. during loading before queries start. Callers that need
// to load while queries are in flight should mutate a Clone and swap the
// pointer (copy-on-write), which is what rox.Engine does.
type Catalog struct {
	// idxs registers the documents by name; every index holds its document,
	// so this one map answers Doc, Index and Names.
	idxs map[string]*index.Index

	// colls registers logical collections: named, ordered lists of shards.
	// Each shard is an independently indexed document carrying its own
	// generation stamp, so a plan cache keyed per shard survives reloads of
	// the other shards untouched.
	colls map[string]*Collection

	// gen counts registrations across this catalog's copy-on-write lineage —
	// documents via AddDocument/AddIndexed and remote shards via
	// AddCollectionShardRemote — so two catalog snapshots with the same
	// generation hold the same corpus. Plan caches key on (query fingerprint,
	// generation): a reload under the same name changes the generation and
	// therefore invalidates exact cache hits even though the name set is
	// unchanged.
	gen uint64

	// docGens records, per document name, the generation at which that
	// document was last (re)registered. This is what a shard server reports
	// to coordinators: a remote shard's cached plans validate against the
	// serving document's own stamp, so reloading one document on one server
	// invalidates exactly that shard's plans cluster-wide and no others.
	docGens map[string]uint64
}

// Remote locates a shard whose data lives in another process: the base URL
// of the shard server (a roxserve in shard-server role) and the document name
// there. A Shard carrying a Remote has no local index — the engine executes
// it over the shard wire instead of in process.
type Remote struct {
	Endpoint string
	Doc      string
}

// Shard is one partition of a collection: a shredded document with its own
// indices and a generation stamp — the catalog generation at which this shard
// was (re)registered. Shards are immutable once registered; a reload swaps in
// a new Shard value, so holding a *Shard from a catalog snapshot is always
// safe.
type Shard struct {
	// Ix is the shard's local index; nil when Remote is set.
	Ix *index.Index
	// Gen is the catalog generation at this shard's registration. Per-shard
	// plan-cache entries pair a fingerprint with this value: reloading one
	// shard bumps only its own stamp, leaving the cached plans of sibling
	// shards exactly valid. For a remote shard this stamps the registration,
	// not the remote data — the serving document's own generation travels on
	// the wire with every response instead.
	Gen uint64
	// Remote, when non-nil, locates the shard: its data is served by another
	// process and the engine executes it over HTTP.
	Remote *Remote
}

// Name returns the shard's document name (for a remote shard, the document
// name on its serving endpoint).
func (s *Shard) Name() string {
	if s.Remote != nil {
		return s.Remote.Doc
	}
	return s.Ix.Doc().Name()
}

// Collection is a logical document set queried as one unit: collection(name)
// in a query scatters over the shards in registration order and concatenates
// their ordered results.
type Collection struct {
	Name   string
	Shards []*Shard // registration order; result order follows it
}

// ShardNames returns the shard document names in registration order.
func (c *Collection) ShardNames() []string {
	out := make([]string, len(c.Shards))
	for i, s := range c.Shards {
		out[i] = s.Name()
	}
	return out
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		idxs:    make(map[string]*index.Index),
		colls:   make(map[string]*Collection),
		docGens: make(map[string]uint64),
	}
}

// AddDocument registers a document and builds its indices (index
// construction is load-time work, not charged to query cost).
func (c *Catalog) AddDocument(d *xmltree.Document) {
	c.AddIndexed(index.New(d))
}

// AddIndexed registers a document with a pre-built index (lets callers share
// one index build across many catalogs or query environments). If the name
// is a shard of some collection, that shard is refreshed too: shards are
// documents, so a reload through the document path must move the shard's
// generation stamp or cached per-shard plans would keep replaying against
// data that changed under them.
func (c *Catalog) AddIndexed(ix *index.Index) {
	c.idxs[ix.Doc().Name()] = ix
	c.gen++
	c.docGens[ix.Doc().Name()] = c.gen
	c.refreshShard(ix)
}

// refreshShard swaps the registered Shard value of every collection shard
// matching the index's document name (fresh index, current generation).
func (c *Catalog) refreshShard(ix *index.Index) {
	name := ix.Doc().Name()
	for _, col := range c.colls {
		for i, sh := range col.Shards {
			if sh.Name() == name {
				col.Shards[i] = &Shard{Ix: ix, Gen: c.gen}
			}
		}
	}
}

// AddCollectionShard registers (or replaces, matching on document name) one
// shard of the named collection, creating the collection on first use. The
// shard's document is also registered as a plain document, so doc(shardName)
// keeps working next to collection(name). Single-owner only, like AddDocument;
// concurrent engines mutate a Clone and swap (copy-on-write).
func (c *Catalog) AddCollectionShard(coll string, ix *index.Index) {
	// AddIndexed registers the document and — via refreshShard — already
	// swaps a fresh Shard into every collection holding this name, so the
	// reload case is done; only create/append remains.
	c.AddIndexed(ix)
	col := c.colls[coll]
	if col == nil {
		c.colls[coll] = &Collection{Name: coll, Shards: []*Shard{{Ix: ix, Gen: c.gen}}}
		return
	}
	for _, sh := range col.Shards {
		if sh.Name() == ix.Doc().Name() {
			return // reload: refreshShard replaced it in place
		}
	}
	col.Shards = append(col.Shards, &Shard{Ix: ix, Gen: c.gen})
}

// AddCollectionShardRemote registers (or replaces, matching on document name)
// one remote shard of the named collection: a shard whose data is served by
// another process at r.Endpoint under the document name r.Doc. The shard is
// not registered as a plain document — doc(r.Doc) stays a query-time error
// here — and a later local load under the same name replaces the remote slot
// (refreshShard matches on name), which lets a coordinator promote a remote
// shard to a local one without re-registering the collection. Single-owner
// only, like AddDocument.
func (c *Catalog) AddCollectionShardRemote(coll string, r Remote) {
	c.gen++
	sh := &Shard{Gen: c.gen, Remote: &r}
	col := c.colls[coll]
	if col == nil {
		c.colls[coll] = &Collection{Name: coll, Shards: []*Shard{sh}}
		return
	}
	for i, old := range col.Shards {
		if old.Name() == r.Doc {
			col.Shards[i] = sh
			return
		}
	}
	col.Shards = append(col.Shards, sh)
}

// Collection returns the named collection.
func (c *Catalog) Collection(name string) (*Collection, error) {
	col, ok := c.colls[name]
	if !ok {
		return nil, &UnknownCollectionError{Name: name}
	}
	return col, nil
}

// Collections returns the registered collection names, sorted.
func (c *Catalog) Collections() []string {
	out := make([]string, 0, len(c.colls))
	for name := range c.colls {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Clone returns a new catalog with the same document and index registrations.
// Documents and indices themselves are shared (they are immutable); only the
// registration maps are copied, so a Clone is cheap and supports the
// copy-on-write load pattern. Collections are copied one level deep (new
// Collection values and shard slices, shared immutable *Shard entries), so a
// shard replace in the clone never shows through to holders of the original.
func (c *Catalog) Clone() *Catalog {
	out := &Catalog{
		idxs:    make(map[string]*index.Index, len(c.idxs)),
		colls:   make(map[string]*Collection, len(c.colls)),
		docGens: make(map[string]uint64, len(c.docGens)),
		gen:     c.gen,
	}
	for name, ix := range c.idxs {
		out.idxs[name] = ix
	}
	for name, g := range c.docGens {
		out.docGens[name] = g
	}
	for name, col := range c.colls {
		out.colls[name] = &Collection{
			Name:   col.Name,
			Shards: append([]*Shard(nil), col.Shards...),
		}
	}
	return out
}

// UnknownDocumentError reports access to a document name the catalog does
// not hold. It is typed so API layers can translate it into their own
// user-facing sentinel (rox.ErrNoSuchDocument) with errors.As.
type UnknownDocumentError struct {
	Name string
}

// Error renders the failure with the document name.
func (e *UnknownDocumentError) Error() string {
	return fmt.Sprintf("plan: document %q not registered", e.Name)
}

// UnknownCollectionError reports access to a collection name the catalog does
// not hold, typed for errors.As translation like UnknownDocumentError.
type UnknownCollectionError struct {
	Name string
}

// Error renders the failure with the collection name.
func (e *UnknownCollectionError) Error() string {
	return fmt.Sprintf("plan: collection %q not registered", e.Name)
}

// Doc returns the registered document with the given name.
func (c *Catalog) Doc(name string) (*xmltree.Document, error) {
	ix, ok := c.idxs[name]
	if !ok {
		return nil, &UnknownDocumentError{Name: name}
	}
	return ix.Doc(), nil
}

// Index returns the index of the named document.
func (c *Catalog) Index(name string) (*index.Index, error) {
	ix, ok := c.idxs[name]
	if !ok {
		return nil, &UnknownDocumentError{Name: name}
	}
	return ix, nil
}

// indexOf returns the registered index of document d, or nil when d is not
// the document registered under its name (or c is nil).
func (c *Catalog) indexOf(d *xmltree.Document) *index.Index {
	if c == nil {
		return nil
	}
	if ix := c.idxs[d.Name()]; ix != nil && ix.Doc() == d {
		return ix
	}
	return nil
}

// Names returns the registered document names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.idxs))
	for name := range c.idxs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered documents.
func (c *Catalog) Len() int { return len(c.idxs) }

// Generation returns the catalog's registration counter. It changes on every
// document load (including reloads under an existing name) and is preserved
// by Clone, so a (fingerprint, generation) pair identifies a query shape over
// one specific corpus state.
func (c *Catalog) Generation() uint64 { return c.gen }

// DocGeneration returns the generation at which the named document was last
// (re)registered, or 0 for a name this catalog does not hold. A shard server
// stamps every execute response with this value, so a coordinator's cached
// plan hints validate against exactly the document that served them.
func (c *Catalog) DocGeneration(name string) uint64 { return c.docGens[name] }
