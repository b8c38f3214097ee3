package plan

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/index"
	"repro/internal/joingraph"
	"repro/internal/xmltree"
)

// Catalog is the share-everything half of the former Env: the registered
// documents, one *Shard each (its index and its registration stamp), and the
// collections listing them. A Catalog is built once at load time and is
// immutable afterwards from the engine's point of view — all query-time
// access is read-only, so one Catalog can back any number of concurrent
// query evaluations (each with its own per-query Env).
//
// Mutation (AddDocument/AddIndexed) is only safe while the catalog has a
// single owner, i.e. during loading before queries start. Callers that need
// to load while queries are in flight should mutate a Clone and swap the
// pointer (copy-on-write), which is what rox.Engine does.
type Catalog struct {
	// docs registers the documents by name, one Shard each: the document's
	// index (which holds the document) and its registration stamp. A local
	// collection shard is the same *Shard value, so this one map answers Doc,
	// Index, Names and DocGeneration.
	docs map[string]*Shard

	// colls registers logical collections: named, ordered lists of shards.
	colls map[string]*Collection

	// gen counts registrations across this catalog's copy-on-write lineage —
	// documents via AddDocument/AddIndexed and remote shards via
	// AddCollectionShardRemote — and stamps each registration with its new
	// value. A cached plan is current while GraphGeneration of its graph is
	// unchanged: the newest stamp among the documents the graph reads.
	gen uint64
}

// Remote locates a shard whose data lives in another process: the base URL
// of the shard server (a roxserve in shard-server role) and the document name
// there. A Shard carrying a Remote has no local index — the engine executes
// it over the shard wire instead of in process.
type Remote struct {
	Endpoint string
	Doc      string
}

// Shard is one registered document — a plain document and a local
// collection shard are the same value — or one remote shard of a
// collection: an index and the catalog generation at which it was
// (re)registered. Shards are immutable once registered; a reload swaps in a
// new Shard value, so holding a *Shard from a catalog snapshot is always
// safe.
type Shard struct {
	// Ix is the document's index; nil when Remote is set.
	Ix *index.Index
	// Gen is the catalog generation at this registration. Plan currency reads
	// it through DocGeneration and GraphGeneration, never from a collection's
	// shard list; for a remote shard it stamps the coordinator's registration
	// only, and the serving process validates plans against its own stamps.
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
		docs:  make(map[string]*Shard),
		colls: make(map[string]*Collection),
	}
}

// AddDocument registers a document and builds its indices (index
// construction is load-time work, not charged to query cost).
func (c *Catalog) AddDocument(d *xmltree.Document) {
	c.AddIndexed(index.New(d))
}

// AddIndexed registers a document with a pre-built index (lets callers share
// one index build across many catalogs or query environments) under a fresh
// stamp. If the name is a shard of some collection, that shard is the same
// registration: a reload through the document path moves it too.
func (c *Catalog) AddIndexed(ix *index.Index) {
	c.gen++
	sh := &Shard{Ix: ix, Gen: c.gen}
	c.docs[ix.Doc().Name()] = sh
	c.refreshShard(sh)
}

// refreshShard puts a document's new registration into every collection slot
// holding its name.
func (c *Catalog) refreshShard(sh *Shard) {
	name := sh.Name()
	for _, col := range c.colls {
		for i, old := range col.Shards {
			if old.Name() == name {
				col.Shards[i] = sh
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
	// puts it into every collection holding this name, so the reload case is
	// done; only create/append remains.
	c.AddIndexed(ix)
	sh := c.docs[ix.Doc().Name()]
	col := c.colls[coll]
	if col == nil {
		c.colls[coll] = &Collection{Name: coll, Shards: []*Shard{sh}}
		return
	}
	if !slices.Contains(col.Shards, sh) {
		col.Shards = append(col.Shards, sh)
	}
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
		docs:  maps.Clone(c.docs),
		colls: make(map[string]*Collection, len(c.colls)),
		gen:   c.gen,
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
	ix, err := c.Index(name)
	if err != nil {
		return nil, err
	}
	return ix.Doc(), nil
}

// Index returns the index of the named document.
func (c *Catalog) Index(name string) (*index.Index, error) {
	sh, ok := c.docs[name]
	if !ok {
		return nil, &UnknownDocumentError{Name: name}
	}
	return sh.Ix, nil
}

// indexOf returns the registered index of document d, or nil when d is not
// the document registered under its name (or c is nil).
func (c *Catalog) indexOf(d *xmltree.Document) *index.Index {
	if c == nil {
		return nil
	}
	if sh := c.docs[d.Name()]; sh != nil && sh.Ix.Doc() == d {
		return sh.Ix
	}
	return nil
}

// Names returns the registered document names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.docs))
	for name := range c.docs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered documents.
func (c *Catalog) Len() int { return len(c.docs) }

// Generation returns the catalog's registration counter. It changes on every
// registration (reloads under an existing name included) and is preserved by
// Clone, so two snapshots of one lineage at the same generation hold the same
// corpus. Plan currency does not read it: see GraphGeneration.
func (c *Catalog) Generation() uint64 { return c.gen }

// DocGeneration returns the stamp of the named document's current
// registration, or 0 for a name this catalog does not hold. Like Generation
// it counts this catalog's loads only — a restarted process starts over — so
// a stamp never leaves the process except as inventory.
func (c *Catalog) DocGeneration(name string) uint64 {
	if sh := c.docs[name]; sh != nil {
		return sh.Gen
	}
	return 0
}

// GraphGeneration is the one rule for whether a cached plan is current: the
// newest DocGeneration among the documents g reads, named by its root
// vertices. A plan cached at this value stays exact until one of those
// documents is reloaded; loads of any other document leave it alone.
func (c *Catalog) GraphGeneration(g *joingraph.Graph) uint64 {
	var gen uint64
	for _, v := range g.Vertices {
		if v.Kind == joingraph.VRoot {
			gen = max(gen, c.DocGeneration(v.Doc))
		}
	}
	return gen
}
