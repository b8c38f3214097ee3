package rox

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/plan"
	"repro/internal/xmltree"
)

// Ingester is the engine's live-ingest handle: append XML fragments to
// loaded documents (or collection shards) without stopping readers, then
// Commit to publish them all in one copy-on-write catalog swap. Appends
// accumulate in an in-memory overlay — a segmented document plus a delta
// index over the immutable base (possibly a memory-mapped packed container)
// — so a commit costs O(batch), never O(document), and readers of earlier
// snapshots keep their snapshot: a query in flight across a commit sees the
// catalog as of its start, and the plan cache's stale-generation →
// replay-and-verify → drift machinery absorbs the generation bump exactly
// like a shard reload.
//
// With OpenDir attached, every append is logged to a write-ahead log and
// Commit fsyncs a commit record before publishing, so a crashed process
// restarts warm: OpenDir replays the committed batches on top of the last
// compacted snapshots (torn or uncommitted log tails are discarded — they
// were never acknowledged). Compact flattens the overlays into fresh packed
// ROXD containers and truncates the WAL, with the directory's manifest
// making the switch crash-atomic.
//
// The incremental path is exact, not approximate: appending fragments
// f1..fk to a document shredded from text B yields the same node table, the
// same dictionary ids and therefore byte-identical query results as loading
// B+f1+..+fk at once.
//
// One Ingester serializes its own operations internally and is safe for
// concurrent use alongside any number of readers; an engine has one, shared
// (Engine.Ingest).
type Ingester struct {
	e *Engine

	mu   sync.Mutex
	dir  *ingest.Dir           // durable state; nil for in-memory ingest
	docs map[string]*ingestDoc // per-target overlay state
	// remotes buffers appends routed to remote collection shards until
	// Commit forwards each batch to its shard server's ingest endpoint;
	// keyed endpoint|doc.
	remotes map[string]*remoteBatch
	// rr holds per-collection round-robin cursors for appends addressed to a
	// collection rather than a specific shard.
	rr map[string]int

	// compactAfter triggers Compact from Commit once the published overlays
	// hold at least this many appended nodes; 0 disables auto-compaction.
	compactAfter int

	// Lifetime event counts, and the catalog generation the last commit (or
	// replayed WAL batch) published: the ingester's own ledger, which Stats
	// reports.
	appends, commits, compactions, replayed int64
	lastGen                                 uint64

	// broken latches a durability failure (a WAL write error): every
	// subsequent operation fails with it, because the log no longer
	// faithfully describes the in-memory state. It wraps ErrIngestBroken.
	broken error
}

// ErrIngestBroken is wrapped by every error an Ingester returns once a
// durability failure (a WAL append, WAL commit or compaction commit that did
// not reach disk) has latched it: the server's fault, never the client's.
var ErrIngestBroken = errors.New("rox: ingest durability failure")

// ingestDoc is the per-document overlay state between compactions.
type ingestDoc struct {
	app *xmltree.Appender
	// baseIx indexes the appender's base segment — the catalog index the
	// overlay extends (nil until first needed for a fresh document).
	baseIx *index.Index
	// published is the index of the last committed publish (nil before the
	// first commit); comparing it against the catalog detects external swaps.
	published *index.Index
	// frags replays this document's appends since its base was established
	// (for rebasing onto an externally swapped document); committed marks how
	// many of them have been committed.
	frags     []ingest.Append
	committed int
}

func (s *ingestDoc) dirty() int { return len(s.frags) - s.committed }

// deltaNodes returns how many appended nodes the overlay currently holds
// (committed and uncommitted).
func (s *ingestDoc) deltaNodes() int {
	if s.app == nil {
		return 0
	}
	return s.app.Len() - s.app.BaseLen()
}

// remoteBatch buffers fragments bound for one remote shard until Commit, in
// append order.
type remoteBatch struct {
	endpoint, doc string
	frags         []string
}

// Ingest returns the engine's shared live-ingest handle, creating it on
// first use.
func (e *Engine) Ingest() *Ingester {
	e.ingOnce.Do(func() {
		e.ing = &Ingester{
			e:       e,
			docs:    make(map[string]*ingestDoc),
			remotes: make(map[string]*remoteBatch),
			rr:      make(map[string]int),
		}
	})
	return e.ing
}

// Append appends an XML fragment (one or more top-level elements) to the
// named target through the engine's shared Ingester; Commit publishes.
func (e *Engine) Append(target, xml string) error {
	return e.Ingest().Append(target, xml)
}

// Commit publishes all pending appends through the engine's shared Ingester.
func (e *Engine) Commit(ctx context.Context) (uint64, error) {
	return e.Ingest().Commit(ctx)
}

// OpenIngestDir attaches a durable ingest directory to the engine's shared
// Ingester. The compacted snapshots in the directory are all opened, then
// (re)registered in one catalog swap, so a corrupt one registers none. The
// WAL is replayed batch by batch on top of them — each batch published as its
// own catalog swap, so generation stamps advance exactly as they did before
// the restart — and subsequent appends and commits are logged there. It
// returns the number of committed batches recovered. Call it after the
// corpus is loaded and before serving ingest traffic.
func (e *Engine) OpenIngestDir(path string) (int, error) {
	return e.Ingest().OpenDir(path)
}

// SetCompactAfter makes Commit trigger a Compact once the published
// overlays hold at least n appended nodes; n <= 0 disables auto-compaction
// (the default).
func (g *Ingester) SetCompactAfter(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.compactAfter = n
}

// OpenDir attaches a durable ingest directory (see Engine.OpenIngestDir).
func (g *Ingester) OpenDir(path string) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dir != nil {
		return 0, fmt.Errorf("rox: ingest directory already open (%s)", g.dir.Path())
	}
	d, batches, err := ingest.OpenDir(path)
	if err != nil {
		return 0, err
	}
	// Compacted snapshots supersede whatever the corpus load registered
	// under the same names: they already contain every batch the truncated
	// WAL no longer holds. All of them open before any registers, so a
	// corrupt snapshot publishes nothing; then one swap registers them in
	// name order, so every restart assigns the same generation stamps.
	snaps := d.SnapshotPaths()
	var ixs []*index.Index
	for _, doc := range sortedKeys(snaps) {
		ix, err := index.OpenPackedFile(snaps[doc])
		if err != nil {
			d.Close()
			return 0, fmt.Errorf("rox: ingest snapshot %s: %w", snaps[doc], err)
		}
		ixs = append(ixs, ix)
	}
	g.e.publish(func(cat *plan.Catalog) {
		for _, ix := range ixs {
			cat.AddIndexed(ix)
		}
	})
	// Re-apply the committed batches, one publish per batch: the catalog
	// generation advances monotonically through the same sequence of states
	// the pre-crash process published.
	for _, b := range batches {
		for _, ap := range b.Appends {
			if err := g.applyLocked(ap.Target, ap.XML); err != nil {
				d.Close()
				return 0, fmt.Errorf("rox: replaying wal batch %d: %w", b.Seq, err)
			}
		}
		// Record where replay got to without counting new commits — these
		// batches were already counted in their first life.
		g.lastGen = g.publishLocked()
	}
	g.replayed += int64(len(batches))
	g.dir = d
	return len(batches), nil
}

// Append appends an XML fragment to the named target: a loaded document, a
// collection (the fragment routes round-robin across its shards), or a new
// document name (the fragment becomes the document). The append is applied
// to the in-memory overlay and logged to the WAL when one is attached, but
// is not visible to queries — and not durable — until Commit.
func (g *Ingester) Append(target, xml string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.broken != nil {
		return g.broken
	}
	cat := g.e.catalog()
	if col, err := cat.Collection(target); err == nil {
		if len(col.Shards) == 0 {
			return fmt.Errorf("rox: collection %q has no shards to ingest into", target)
		}
		sh := col.Shards[g.rr[target]%len(col.Shards)]
		g.rr[target]++
		if sh.Remote != nil {
			return g.bufferRemote(sh.Remote, xml)
		}
		target = sh.Name()
	}
	if err := g.applyLocked(target, xml); err != nil {
		return err
	}
	if g.dir != nil {
		if err := g.dir.WAL().LogAppend(ingest.Append{Target: target, Frag: "ingest", XML: xml}); err != nil {
			// The log no longer matches memory; refuse further work rather
			// than risk committing appends the WAL never saw.
			g.broken = fmt.Errorf("%w: wal append failed: %w", ErrIngestBroken, err)
			return g.broken
		}
	}
	g.appends++
	return nil
}

// bufferRemote validates the fragment locally and queues it for the remote
// shard; Commit forwards the batch. The shard server owns durability for
// its own data, so remote appends are not written to the local WAL.
//
// Parsing each fragment on its own is what makes Commit's concatenation
// exact: every fragment is well-formed by itself, and the parser drops
// top-level text, comments and PIs, so the shard server shreds the joined
// body into the same nodes and dictionary ids as the fragments appended one
// by one.
func (g *Ingester) bufferRemote(r *plan.Remote, xml string) error {
	if _, err := xmltree.ParseString("ingest", xml); err != nil {
		return err
	}
	key := r.Endpoint + "|" + r.Doc
	rb := g.remotes[key]
	if rb == nil {
		rb = &remoteBatch{endpoint: r.Endpoint, doc: r.Doc}
		g.remotes[key] = rb
	}
	rb.frags = append(rb.frags, xml)
	g.appends++
	return nil
}

// applyLocked parses the fragment and applies it to the target's overlay,
// establishing the overlay (or, for an unknown name, the document itself)
// first if needed.
func (g *Ingester) applyLocked(target, xml string) error {
	st := g.docs[target]
	if st == nil {
		st = &ingestDoc{}
		g.docs[target] = st
	}
	cat := g.e.catalog()
	if catIx, err := cat.Index(target); err == nil {
		// Rebase whenever someone else swapped the document under us — an
		// external reload, or our own state not yet attached. The overlay's
		// appends since its base was established are re-applied on top.
		if st.app == nil || (catIx != st.published && catIx != st.baseIx) {
			if err := st.rebase(catIx); err != nil {
				return err
			}
		}
	} else if st.app == nil {
		// Unknown name: the first fragment becomes the document (loading
		// B+f1+..+fk at once is the equivalence reference, with B empty).
		base, perr := xmltree.ParseString(target, xml)
		if perr != nil {
			return perr
		}
		st.app = xmltree.NewAppender(base)
		st.frags = append(st.frags, ingest.Append{Target: target, XML: xml})
		return nil
	}
	frag, err := xmltree.ParseString("ingest", xml)
	if err != nil {
		return err
	}
	if err := st.app.Append(frag); err != nil {
		return err
	}
	st.frags = append(st.frags, ingest.Append{Target: target, XML: xml})
	return nil
}

// rebase re-establishes the overlay on top of the given catalog index,
// re-applying every append this state has accumulated since its base.
func (st *ingestDoc) rebase(catIx *index.Index) error {
	baseIx := catIx
	if b := catIx.Base(); b != nil {
		baseIx = b
	}
	app := xmltree.NewAppender(catIx.Doc())
	for _, ap := range st.frags {
		frag, err := xmltree.ParseString("ingest", ap.XML)
		if err != nil {
			return err
		}
		if err := app.Append(frag); err != nil {
			return err
		}
	}
	st.app = app
	st.baseIx = baseIx
	st.published = catIx
	return nil
}

// Commit seals all pending appends as one batch and publishes them: each
// remote shard's buffer is forwarded first, as one body to its shard
// server's public ingest endpoint (one commit there, all-or-nothing because
// the server parses the whole body before it appends any of it), then (with
// a WAL attached) a commit record is fsynced — the durability point — and
// finally every changed document is re-published in a single copy-on-write
// catalog swap, bumping each one's generation stamp. In-flight queries keep the
// snapshot they started on; no query ever observes part of a batch. Returns
// the WAL batch sequence (0 without a WAL). A Commit with nothing pending
// is a no-op.
func (g *Ingester) Commit(ctx context.Context) (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.commitLocked(ctx)
}

func (g *Ingester) commitLocked(ctx context.Context) (uint64, error) {
	if g.broken != nil {
		return 0, g.broken
	}
	// Forward remote batches before the local publish; a remote failure
	// fails the commit with all buffers intact for retry. Key order, so the
	// shard that fails (and the batches already flushed) are the same on
	// every run.
	for _, key := range sortedKeys(g.remotes) {
		rb := g.remotes[key]
		if err := g.e.shardClient.Ingest(ctx, rb.endpoint, rb.doc, strings.Join(rb.frags, "")); err != nil {
			return 0, fmt.Errorf("rox: ingest into remote shard %q at %s: %w", rb.doc, rb.endpoint, err)
		}
		delete(g.remotes, key)
	}
	anyDirty := false
	for _, st := range g.docs {
		if st.dirty() > 0 {
			anyDirty = true
			break
		}
	}
	if !anyDirty {
		return g.lastSeq(), nil
	}
	var seq uint64
	if g.dir != nil {
		var err error
		if seq, err = g.dir.WAL().LogCommit(); err != nil {
			g.broken = fmt.Errorf("%w: wal commit failed: %w", ErrIngestBroken, err)
			return 0, g.broken
		}
	}
	g.lastGen = g.publishLocked()
	g.commits++
	if g.compactAfter > 0 && g.totalDeltaNodes() >= g.compactAfter {
		if err := g.compactLocked(); err != nil {
			return seq, err
		}
	}
	return seq, nil
}

// publishLocked publishes every dirty overlay in one copy-on-write catalog
// swap, marks their appends committed, and returns the resulting catalog
// generation.
func (g *Ingester) publishLocked() uint64 {
	return g.e.publish(func(cat *plan.Catalog) {
		// Name order: AddIndexed stamps each document with a fresh
		// generation, so the per-document stamps must be assigned in the same
		// order on every run — a WAL replay reproduces the pre-crash stamps
		// exactly.
		for _, name := range sortedKeys(g.docs) {
			st := g.docs[name]
			if st.dirty() == 0 {
				continue
			}
			snap := st.app.Snapshot()
			var ix *index.Index
			if snap.Segmented() {
				if st.baseIx == nil {
					// Possible only for a document this ingester created
					// whose base was never indexed — establish the base
					// index once.
					st.baseIx = index.New(snap.Flatten())
					ix = st.baseIx
				} else {
					ix = index.NewDelta(st.baseIx, snap)
				}
			} else if st.baseIx != nil && st.baseIx.Doc() == snap {
				ix = st.baseIx
			} else {
				ix = index.New(snap)
				st.baseIx = ix
			}
			cat.AddIndexed(ix)
			st.published = ix
			st.committed = len(st.frags)
		}
	})
}

// Compact flattens every published overlay into a plain single-segment
// document with a freshly built index — written as a packed ROXD v2
// container when a durable directory is attached — publishes the compacted
// form, and truncates the WAL (crash-atomically, via the directory
// manifest). Pending uncommitted appends are committed first. Queries in
// flight keep their snapshot, exactly as across a Commit.
func (g *Ingester) Compact(ctx context.Context) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, err := g.commitLocked(ctx); err != nil {
		return err
	}
	return g.compactLocked()
}

// compactLocked rewrites and re-publishes every overlay-bearing document.
// All pending appends must already be committed.
func (g *Ingester) compactLocked() error {
	type rewrite struct {
		name string
		ix   *index.Index
	}
	var rewrites []rewrite
	snaps := make(map[string]string)
	for _, name := range sortedKeys(g.docs) {
		st := g.docs[name]
		if st.deltaNodes() == 0 {
			continue
		}
		flat := st.app.Snapshot().Flatten()
		var ix *index.Index
		if g.dir != nil {
			path := g.dir.SnapshotFile(name)
			if err := index.WritePackedFile(path, index.New(flat)); err != nil {
				return fmt.Errorf("rox: compacting %q: %w", name, err)
			}
			var err error
			if ix, err = index.OpenPackedFile(path); err != nil {
				return fmt.Errorf("rox: compacting %q: %w", name, err)
			}
			snaps[name] = path
		} else {
			ix = index.New(flat)
		}
		rewrites = append(rewrites, rewrite{name: name, ix: ix})
	}
	if len(rewrites) == 0 {
		return nil
	}
	g.e.publish(func(cat *plan.Catalog) {
		for _, rw := range rewrites {
			cat.AddIndexed(rw.ix)
		}
	})
	for _, rw := range rewrites {
		st := g.docs[rw.name]
		st.app = xmltree.NewAppender(rw.ix.Doc())
		st.baseIx = rw.ix
		st.published = rw.ix
		st.frags = nil
		st.committed = 0
	}
	if g.dir != nil {
		if err := g.dir.CommitCompaction(snaps); err != nil {
			g.broken = fmt.Errorf("%w: compaction failed to commit: %w", ErrIngestBroken, err)
			return g.broken
		}
	}
	g.compactions++
	return nil
}

// IngestStats is a point-in-time view of the ingest path for monitoring:
// WAL health, overlay sizes, and lifetime event counts; as JSON, the ingest
// object of roxserve's /v1/stats and /v1/collections.
type IngestStats struct {
	// Durable reports whether a WAL directory is attached; WALPath, WALSize,
	// WALAge and LastCommitSeq are zero without one.
	Durable bool   `json:"durable"`
	WALPath string `json:"wal_path"`
	WALSize int64  `json:"wal_bytes"`
	// WALAge is the age of the current WAL epoch — how long ago the log was
	// created or last truncated by a compaction; integer nanoseconds in JSON.
	WALAge time.Duration `json:"wal_age_ns"`
	// PendingDocs counts documents with appends not yet committed;
	// DeltaDocs/DeltaNodes describe the published overlays (documents
	// carrying a delta, total appended nodes) since the last compaction.
	PendingDocs int `json:"pending_docs"`
	DeltaDocs   int `json:"delta_docs"`
	DeltaNodes  int `json:"delta_nodes"`
	// LastCommitSeq is the WAL sequence of the last committed batch;
	// LastCommitGen the catalog generation its publish reached.
	LastCommitSeq uint64 `json:"last_commit_seq"`
	LastCommitGen uint64 `json:"last_commit_gen"`
	// Lifetime event counts.
	Appends         int64 `json:"appends"`
	Commits         int64 `json:"commits"`
	Compactions     int64 `json:"compactions"`
	ReplayedBatches int64 `json:"replayed_batches"`
}

// Stats returns the ingester's current statistics. Safe to call concurrently
// with ingest operations and queries.
func (g *Ingester) Stats() IngestStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := IngestStats{
		PendingDocs:     g.pendingDocs(),
		DeltaDocs:       g.deltaDocCount(),
		DeltaNodes:      g.totalDeltaNodes(),
		LastCommitGen:   g.lastGen,
		Appends:         g.appends,
		Commits:         g.commits,
		Compactions:     g.compactions,
		ReplayedBatches: g.replayed,
	}
	if g.dir != nil {
		st.Durable = true
		st.WALPath = g.dir.WAL().Path()
		st.WALSize = g.dir.WAL().Size()
		st.WALAge = g.dir.WAL().Age()
		st.LastCommitSeq = g.dir.WAL().Seq()
	}
	return st
}

// Close releases the durable directory (closing the WAL file). Uncommitted
// appends are discarded by the next OpenDir, exactly as after a crash.
func (g *Ingester) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dir == nil {
		return nil
	}
	err := g.dir.Close()
	g.dir = nil
	return err
}

// sortedKeys returns m's keys in sorted order: every map the ingester walks
// with observable side effects (generation stamps, error order, remote
// flushes) is walked deterministically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (g *Ingester) lastSeq() uint64 {
	if g.dir != nil {
		return g.dir.WAL().Seq()
	}
	return 0
}

func (g *Ingester) pendingDocs() int {
	n := 0
	for _, st := range g.docs {
		if st.dirty() > 0 {
			n++
		}
	}
	return n
}

func (g *Ingester) deltaDocCount() int {
	n := 0
	for _, st := range g.docs {
		if st.deltaNodes() > 0 {
			n++
		}
	}
	return n
}

func (g *Ingester) totalDeltaNodes() int {
	n := 0
	for _, st := range g.docs {
		n += st.deltaNodes()
	}
	return n
}
