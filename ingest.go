package rox

import (
	"cmp"
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
// Commit to publish them all in one copy-on-write catalog swap. A commit
// registers each changed document as a segmented document plus a delta
// index over its immutable base (possibly a memory-mapped packed container),
// so it costs O(batch), never O(document), and readers of earlier snapshots
// keep their snapshot: a query in flight across a commit sees the catalog as
// of its start, and the plan cache's stale-generation → replay-and-verify →
// drift machinery absorbs the generation bump exactly like a shard reload.
//
// The catalog is the one record of committed appends: the Ingester holds
// only what is not yet committed. A reload or shard swap therefore replaces
// every committed append to that document, and appends still pending at the
// reload go on top of the new document at the next Commit.
//
// With OpenDir attached, every append is logged to a write-ahead log and
// Commit fsyncs a commit record before publishing, so a crashed process
// restarts warm: OpenDir replays the committed batches on top of the last
// compacted snapshots (torn or uncommitted log tails are discarded — they
// were never acknowledged). Compact flattens the catalog's delta documents
// into fresh packed ROXD containers and truncates the WAL, with the
// directory's manifest making the switch crash-atomic. Reloads are not
// logged; a reload or shard swap of a document with durable state (a
// snapshot, or batches in the WAL) compacts at once instead, so a restart
// over the corpus as loaded answers what the live engine answered.
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
	docs map[string]*ingestDoc // per-target appends since the last commit
	// remotes buffers appends routed to remote collection shards until
	// Commit forwards each batch to its shard server's ingest endpoint;
	// keyed endpoint|doc.
	remotes map[string]*remoteBatch
	// rr holds per-collection round-robin cursors for appends addressed to a
	// collection rather than a specific shard.
	rr map[string]int

	// compactAfter triggers Compact from Commit once the catalog's delta
	// documents hold at least this many appended nodes; 0 disables
	// auto-compaction.
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

// ingestDoc is one document's appends since the last commit: app extends
// ix's document by the pending fragments. ix is the catalog index the
// document had when app was built, or the index the last commit published
// — for a document this ingester creates, an index over an empty root until
// its first commit. Nothing committed lives here: the catalog holds it.
type ingestDoc struct {
	app     *xmltree.Appender
	ix      *index.Index
	pending []string
}

// extend returns the state to append to name while the catalog registers
// catIx under it (nil while the name is unknown): st itself if its Appender
// still extends catIx, else a fresh Appender over catIx's document with st's
// pending fragments re-applied, so a reload or shard swap replaces what was
// committed and keeps what was not.
func extend(name string, st *ingestDoc, catIx *index.Index) (*ingestDoc, error) {
	// The catalog never drops a name, so an unknown one is still the
	// document st creates.
	if st != nil && (st.ix == catIx || catIx == nil) {
		return st, nil
	}
	if catIx == nil {
		// A new name grows from an empty root: loading f1+..+fk at once is
		// the equivalence reference.
		catIx = index.New(xmltree.NewBuilder(name).MustBuild())
	}
	fresh := &ingestDoc{app: xmltree.NewAppender(catIx.Doc()), ix: catIx}
	if st != nil {
		for _, xml := range st.pending {
			if err := fresh.add(xml); err != nil {
				return nil, err
			}
		}
	}
	return fresh, nil
}

// add parses the fragment and appends it to the pending batch.
func (st *ingestDoc) add(xml string) error {
	if err := st.app.AppendXML("ingest", xml); err != nil {
		return err
	}
	st.pending = append(st.pending, xml)
	return nil
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

// SetCompactAfter makes Commit trigger a Compact once the catalog's delta
// documents hold at least n appended nodes; n <= 0 disables auto-compaction
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
		gen, err := g.publishLocked()
		if err != nil {
			d.Close()
			return 0, fmt.Errorf("rox: replaying wal batch %d: %w", b.Seq, err)
		}
		g.lastGen = gen
	}
	g.replayed += int64(len(batches))
	g.dir = d
	return len(batches), nil
}

// Append appends an XML fragment to the named target: a loaded document, a
// collection (the fragment routes round-robin across its shards), or a new
// document name (the fragment becomes the document). The append is applied
// to the target's pending batch and logged to the WAL when one is attached,
// but is not visible to queries — and not durable — until Commit.
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

// applyLocked parses the fragment and adds it to the target's pending
// batch, over the document the catalog registers under the name now.
func (g *Ingester) applyLocked(target, xml string) error {
	catIx, _ := g.e.catalog().Index(target)
	st, err := extend(target, g.docs[target], catIx)
	if err != nil {
		return err
	}
	if err := st.add(xml); err != nil {
		return err
	}
	g.docs[target] = st
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
	if g.pendingDocs() == 0 {
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
	gen, err := g.publishLocked()
	g.lastGen = gen
	g.commits++
	if err != nil {
		return seq, err
	}
	if g.compactAfter <= 0 {
		return seq, nil
	}
	if _, nodes := catalogDeltas(g.e.catalog()); nodes >= g.compactAfter {
		if err := g.compactLocked(); err != nil {
			return seq, err
		}
	}
	return seq, nil
}

// publishLocked publishes every pending batch in one copy-on-write catalog
// swap and returns the resulting catalog generation. Each batch goes on top
// of the document the swapped catalog holds, so a reload since the batch's
// first append replaces the committed appends beneath it. A batch that no
// longer fits its reloaded document (the 31-bit pre space) stays pending,
// and its error is returned.
func (g *Ingester) publishLocked() (uint64, error) {
	var first error
	gen := g.e.publish(func(cat *plan.Catalog) {
		// Name order: AddIndexed stamps each document with a fresh
		// generation, so the per-document stamps must be assigned in the same
		// order on every run — a WAL replay reproduces the pre-crash stamps
		// exactly.
		for _, name := range sortedKeys(g.docs) {
			if len(g.docs[name].pending) == 0 {
				continue
			}
			catIx, _ := cat.Index(name)
			st, err := extend(name, g.docs[name], catIx)
			if err != nil {
				first = cmp.Or(first, err)
				continue
			}
			ix := st.ix
			if snap := st.app.Snapshot(); snap.Len() > ix.Doc().Len() {
				// Deltas extend the original base, so lookup depth stays 2.
				base := ix
				if b := ix.Base(); b != nil {
					base = b
				}
				ix = index.NewDelta(base, snap)
			}
			cat.AddIndexed(ix)
			st.ix, st.pending = ix, nil
			g.docs[name] = st
		}
	})
	return gen, first
}

// Compact flattens every document the catalog holds as a delta into a plain
// single-segment document with a freshly built index — written as a packed
// ROXD v2 container when a durable directory is attached — publishes the
// compacted form, and truncates the WAL (crash-atomically, via the directory
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

// reloaded runs after a reload or shard swap replaced the catalog indexes
// olds. A replaced document with durable state — a snapshot in the
// manifest, or committed appends in the WAL (its index was a delta) — would
// come back at a restart: the snapshot supersedes the corpus load, and the
// WAL replays its appends onto whatever the corpus now holds. So the reload
// compacts at once: the new epoch drops the document's snapshot, and the
// truncated WAL its batches. A restart then answers the corpus as loaded
// plus what was committed after each document's last reload.
func (g *Ingester) reloaded(olds []*index.Index) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dir == nil {
		return nil
	}
	if g.broken != nil {
		return g.broken
	}
	snaps := g.dir.SnapshotPaths()
	var drop []string
	for _, old := range olds {
		name := old.Doc().Name()
		if _, ok := snaps[name]; ok || old.Base() != nil {
			drop = append(drop, name)
		}
	}
	if len(drop) == 0 {
		return nil
	}
	return g.compactLocked(drop...)
}

// compactLocked rewrites and re-publishes every delta document of the
// catalog and drops the Appenders that extended them; drop names documents
// whose snapshots the new epoch no longer lists unless they are rewritten.
// Appends still pending — only a reload compacts with some — keep their
// Appenders and are logged again to the new WAL.
func (g *Ingester) compactLocked(drop ...string) error {
	type rewrite struct {
		name     string
		from, ix *index.Index
	}
	var rewrites []rewrite
	snaps := make(map[string]string)
	cat := g.e.catalog()
	for _, name := range cat.Names() {
		from, _ := cat.Index(name)
		if from.Base() == nil {
			continue
		}
		flat := from.Doc().Flatten()
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
		rewrites = append(rewrites, rewrite{name: name, from: from, ix: ix})
	}
	for _, name := range drop {
		if _, ok := snaps[name]; !ok {
			snaps[name] = ""
		}
	}
	if len(rewrites) == 0 && len(snaps) == 0 {
		return nil
	}
	g.e.publish(func(cat *plan.Catalog) {
		for _, rw := range rewrites {
			// A reload that raced the rewrite wins: its document is not the
			// one flattened, and no snapshot may bring the old one back.
			if cur, _ := cat.Index(rw.name); cur != rw.from {
				delete(snaps, rw.name)
				continue
			}
			cat.AddIndexed(rw.ix)
		}
	})
	for _, rw := range rewrites {
		if st := g.docs[rw.name]; st != nil && len(st.pending) == 0 {
			delete(g.docs, rw.name)
		}
	}
	if g.dir != nil {
		if err := g.dir.CommitCompaction(snaps); err != nil {
			g.broken = fmt.Errorf("%w: compaction failed to commit: %w", ErrIngestBroken, err)
			return g.broken
		}
		for _, name := range sortedKeys(g.docs) {
			for _, xml := range g.docs[name].pending {
				if err := g.dir.WAL().LogAppend(ingest.Append{Target: name, Frag: "ingest", XML: xml}); err != nil {
					g.broken = fmt.Errorf("%w: wal append failed: %w", ErrIngestBroken, err)
					return g.broken
				}
			}
		}
	}
	g.compactions++
	return nil
}

// IngestStats is a point-in-time view of the ingest path for monitoring:
// WAL health, pending and delta sizes, and lifetime event counts; as JSON,
// the ingest object of roxserve's /v1/stats and /v1/collections.
type IngestStats struct {
	// Durable reports whether a WAL directory is attached; WALPath, WALSize,
	// WALAge and LastCommitSeq are zero without one.
	Durable bool   `json:"durable"`
	WALPath string `json:"wal_path"`
	WALSize int64  `json:"wal_bytes"`
	// WALAge is the age of the current WAL epoch — how long ago the log was
	// created or last truncated by a compaction; integer nanoseconds in JSON.
	WALAge time.Duration `json:"wal_age_ns"`
	// PendingDocs counts documents and remote shards with appends not yet
	// committed; DeltaDocs/DeltaNodes describe the catalog's delta documents
	// (how many, total appended nodes) since the last compaction.
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
	deltaDocs, deltaNodes := catalogDeltas(g.e.catalog())
	st := IngestStats{
		PendingDocs:     g.pendingDocs(),
		DeltaDocs:       deltaDocs,
		DeltaNodes:      deltaNodes,
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

// pendingDocs counts the local documents and remote shards holding appends
// not yet committed.
func (g *Ingester) pendingDocs() int {
	n := len(g.remotes)
	for _, st := range g.docs {
		if len(st.pending) > 0 {
			n++
		}
	}
	return n
}

// catalogDeltas counts the catalog's delta documents and the nodes their
// deltas appended to their bases.
func catalogDeltas(cat *plan.Catalog) (docs, nodes int) {
	for _, name := range cat.Names() {
		ix, _ := cat.Index(name)
		if b := ix.Base(); b != nil {
			docs++
			nodes += ix.Doc().Len() - b.Doc().Len()
		}
	}
	return docs, nodes
}
