package rox

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/shardrpc"
	"repro/internal/xquery"
)

// This file is the shard-execution contract of the scatter-gather: the
// ShardBackend interface, its in-process and HTTP implementations, and the
// engine's server half (ExecuteShard) that lets a roxserve in shard-server
// role serve the HTTP side. The gather in shard.go is backend-agnostic — it
// merges shardStream channels and never learns where the items came from.

// ShardBackend executes a collection query against one shard: rebind the
// compiled graph to the shard document, run the full ROX pipeline (plan-cache
// lookup → replay or sampling optimizer → drift verification) against the
// shard's own generation stamp, and stream the serialized result — items with
// their order-by keys when the query sorts, or a single partial-aggregate
// fold state — into the gather's channels, honoring ctx cancellation. The
// end-of-stream report carries the shard's Stats, its generation stamp, and
// the executed plan's replay payload.
//
// Two implementations exist: the in-process localBackend (shards indexed in
// this engine's catalog) and the HTTP httpBackend (shards registered with
// LoadCollectionRemote and served by a remote roxserve in shard-server role).
// The interface is sealed — the run method is unexported because shardStream
// is — so external packages pick backends by how they register shards, not by
// implementing this.
type ShardBackend interface {
	// Kind names the backend ("local" or "http") for diagnostics.
	Kind() string
	// run executes one shard and streams into st. It must close st.items and
	// send exactly one done report (before the close) on every path.
	run(ctx context.Context, x *shardExec, st *shardStream)
}

// shardExec is one shard's execution order: everything a backend needs to run
// a ForShard-rebound query, for either transport.
type shardExec struct {
	coll  string // collection name in the compiled graph
	shard string // shard document name
	// gen is the generation stamp cached plans validate against: the shard's
	// registration stamp locally; remotely the serving document's own stamp
	// (stamped on every response).
	gen    uint64
	remote *plan.Remote  // non-nil for http shards: where the data lives
	cat    *plan.Catalog // catalog snapshot the query runs against (local)
	// comp is the compiled query with the per-shard limit window already
	// applied, not yet rebound to the shard document.
	comp *xquery.Compiled
	// query and shardLimit re-express comp for the wire: the HTTP backend
	// ships text + window (compilation is deterministic, so the server
	// rebuilds the identical graph) instead of a serialized graph.
	query      string
	shardLimit int
	baseFP     string // base plan-cache key; "" = caching disabled
	interrupt  func() error
}

// localBackend runs shards in-process over the engine's own catalog.
type localBackend struct {
	e *Engine
}

// Kind names the backend.
func (b *localBackend) Kind() string { return "local" }

// run pumps one local shard's cursor into the gather's bounded item channel;
// everything else — the fan-out slot around the join, the plan choice against
// the shard's own generation stamp, the fold, the rendering, the statistics —
// is the cursor's. The done report is always sent before the item channel
// closes.
func (b *localBackend) run(ctx context.Context, x *shardExec, st *shardStream) {
	defer close(st.items)
	c := b.e.shardCursor(ctx, x)
	delivered := 0
	for c.Next() {
		// The item outlives the cursor's buffer on the channel: copy it out.
		it := shardItem{item: string(c.buf)}
		it.key, _ = c.Key()
		select {
		case st.items <- it:
			delivered++
		case <-ctx.Done():
			// The gather's early termination (or the caller) cut the stream
			// short with an item in hand; the error ends the cursor.
			c.err = ctx.Err()
		}
	}
	st.done <- c.done(delivered)
}

// shardCursor binds the execution cursor to one shard: the compiled graph
// rebound to the shard document, a per-shard environment (own recorder and
// seeded random stream) over the query's catalog snapshot, and the shard's
// own cache key and generation stamp — so a reload of this shard invalidates
// exactly this shard's cached plans and no others.
func (e *Engine) shardCursor(ctx context.Context, x *shardExec) *cursor {
	env := plan.NewQueryEnv(x.cat, metrics.NewRecorder(), e.seed)
	env.Interrupt = x.interrupt
	fp := ""
	if x.baseFP != "" {
		// The rebound graph's own fingerprint would differ per shard too, but
		// deriving the key from the base avoids re-hashing the graph on every
		// shard of every query (Prepared computes baseFP once, ever).
		fp = x.baseFP + "|shard:" + x.shard
	}
	c := e.newCursor(ctx, env, x.comp.ForShard(x.coll, x.shard), fp, x.gen)
	c.shard = true
	return c
}

// done is a shard cursor's end-of-stream report for the gather.
func (c *cursor) done(delivered int) shardDone {
	return shardDone{
		stats:    c.report(delivered),
		rec:      c.env.Rec,
		agg:      c.agg,
		err:      c.err,
		gen:      c.gen,
		ranPlan:  c.ranPlan,
		edgeRows: c.edgeRows,
	}
}

// httpBackend runs shards on remote shard servers over the shardrpc NDJSON
// protocol. It keeps a hint store: the replay payload each endpoint's done
// reports carried last, re-attached to the next request for that shard so a
// warm cluster replays discovered plans with zero sampling — the coordinator
// never re-learns what a shard server already knows, and a shard server
// restarted cold re-learns from the coordinator's hint instead of sampling.
type httpBackend struct {
	e      *Engine
	client *shardrpc.Client
	// hints caches replay payloads keyed endpoint|baseFP|shard:name, each at
	// the remote document generation that produced it. The existing
	// stale/drift machinery runs on the serving side; this store only
	// remembers what to hint.
	hints *plancache.Cache
}

// Kind names the backend.
func (b *httpBackend) Kind() string { return "http" }

// hintKey derives the hint-store key for one remote shard execution.
func (x *shardExec) hintKey() string {
	return x.remote.Endpoint + "|" + x.baseFP + "|shard:" + x.shard
}

// run executes one shard remotely: acquire a fan-out slot around request
// establishment (the remote join work is bounded by the server's own limiter;
// holding a coordinator slot while streaming would starve an ordered merge
// exactly like a local shard holding its slot while blocked on a full
// channel), stream the response into the gather, and report the done line's
// stats with the coordinator-observed elapsed time. Cancellation — window
// filled, caller gone — closes the response body, which aborts the remote
// execution mid-stream.
func (b *httpBackend) run(ctx context.Context, x *shardExec, st *shardStream) {
	defer close(st.items)
	sw := metrics.Start()
	rec := metrics.NewRecorder()
	fail := func(err error) {
		st.done <- shardDone{
			err:   fmt.Errorf("rox: shard %q at %s: %w", x.shard, x.remote.Endpoint, err),
			rec:   rec,
			stats: Stats{Elapsed: sw.Elapsed(), Truncated: true},
		}
	}
	req := &shardrpc.ExecRequest{
		Collection:  x.coll,
		Query:       x.query,
		ShardLimit:  x.shardLimit,
		Fingerprint: x.baseFP,
	}
	if x.baseFP != "" {
		if entry, outcome := b.hints.Lookup(x.hintKey(), 0); outcome != plancache.Miss && entry != nil {
			p := entry.Plan
			req.Hint = &shardrpc.PlanHint{
				Generation: entry.Generation,
				Steps:      shardrpc.StepsFromPlan(&p),
				Expected:   entry.Expected,
			}
		}
	}
	if err := b.e.shardLim.Acquire(ctx); err != nil {
		fail(err)
		return
	}
	stream, err := b.client.Execute(ctx, x.remote.Endpoint, x.remote.Doc, req)
	b.e.shardLim.Release()
	if err != nil {
		fail(err)
		return
	}
	defer stream.Close()
	emitted := 0
	for {
		m, err := stream.Next()
		if err != nil {
			// A canceled context surfaces as a transport read error; report
			// the cancellation itself so the gather treats it like a local
			// shard's early termination.
			if cerr := ctx.Err(); cerr != nil {
				st.done <- shardDone{err: cerr, rec: rec,
					stats: Stats{Rows: emitted, Elapsed: sw.Elapsed(), Truncated: true}}
				return
			}
			fail(err)
			return
		}
		if m.Done != nil {
			b.finish(x, m.Done, st, rec, sw, emitted)
			return
		}
		it := shardItem{item: *m.Item}
		if m.Key != nil {
			it.key = m.Key.ToPlan()
		}
		select {
		case st.items <- it:
			emitted++
		case <-ctx.Done():
			// Window filled or caller canceled: stop reading; the deferred
			// body close aborts the remote execution.
			st.done <- shardDone{err: ctx.Err(), rec: rec,
				stats: Stats{Rows: emitted, Elapsed: sw.Elapsed(), Truncated: true}}
			return
		}
	}
}

// finish turns the stream's done report into the gather's shardDone and
// refreshes the hint store with the replay payload the server returned.
func (b *httpBackend) finish(x *shardExec, d *shardrpc.Done, st *shardStream,
	rec *metrics.Recorder, sw metrics.Stopwatch, emitted int) {
	done := shardDone{rec: rec, gen: d.Generation}
	if d.Stats != nil {
		done.stats = statsFromWire(*d.Stats)
	}
	// Elapsed is coordinator-observed: what this query actually spent on the
	// shard, network included (the shard-side compute time is close but not
	// what the gather waited for).
	done.stats.Elapsed = sw.Elapsed()
	done.stats.Rows = emitted
	if d.Agg != nil {
		done.agg = d.Agg.State()
		done.stats.Rows = 1
	}
	if d.Error != "" {
		done.err = fmt.Errorf("rox: shard %q at %s: %s", x.shard, x.remote.Endpoint, d.Error)
		done.stats.Truncated = true
	} else if x.baseFP != "" && len(d.Plan) > 0 {
		b.hints.Install(&plancache.Entry{
			Fingerprint: x.hintKey(),
			Generation:  d.Generation,
			Plan:        shardrpc.ToPlan(d.Plan),
			Expected:    d.Expected,
		})
	}
	st.done <- done
}

// backendFor picks the execution backend for one registered shard.
func (e *Engine) backendFor(sh *plan.Shard) ShardBackend {
	if sh.Remote != nil {
		return e.remote
	}
	return e.local
}

// ShardFailurePolicy selects how a collection query treats a failing shard;
// see WithShardRetry.
type ShardFailurePolicy int

const (
	// ShardFailFast fails the whole query on the first shard error — the
	// default, and the only correct choice when results must cover the full
	// collection.
	ShardFailFast ShardFailurePolicy = iota
	// ShardRetryThenPartial retries a failed shard once (only if none of its
	// items entered the merge yet — a mid-stream restart could duplicate
	// rows) and, if it fails again, completes the query without that shard:
	// Stats.Truncated is set and the shard's ShardStats carries the error.
	ShardRetryThenPartial
)

// WithShardRetry sets the engine's shard failure policy for collection
// queries (default ShardFailFast). ShardRetryThenPartial trades completeness
// for availability — the natural choice when shards are remote and a replica
// restart should degrade a search result, not fail it.
func WithShardRetry(p ShardFailurePolicy) Option {
	return func(e *Engine) { e.shardRetry = p }
}

// runShardGuarded wraps a backend run with the ShardRetryThenPartial policy:
// forward the inner stream, restart it once if it failed before contributing
// any item, and convert a final failure into a partial completion. The
// fail-fast default dispatches backends directly and never pays for this
// indirection.
func (e *Engine) runShardGuarded(ctx context.Context, be ShardBackend, x *shardExec, st *shardStream) {
	defer close(st.items)
	var last shardDone
	for attempt := 0; attempt < 2; attempt++ {
		inner := newShardStream(st.name)
		go be.run(ctx, x, inner)
		forwarded := false
		for it := range inner.items {
			select {
			case st.items <- it:
				forwarded = true
			case <-ctx.Done():
				// The gather is gone; unwind the inner producer and pass its
				// report through.
				for range inner.items {
				}
				st.done <- <-inner.done
				return
			}
		}
		last = <-inner.done
		if last.err == nil || ctx.Err() != nil ||
			errors.Is(last.err, context.Canceled) || errors.Is(last.err, context.DeadlineExceeded) {
			// Success, or a cancellation (the gather's own early termination,
			// never worth retrying).
			st.done <- last
			return
		}
		if forwarded {
			break // items already merged: a restart could duplicate them
		}
	}
	// Retry exhausted: complete without this shard. The gather records the
	// error in the shard's stats and truncates instead of failing the query.
	last.partial = true
	last.stats.Truncated = true
	st.done <- last
}

// Endpoint names one remote shard server for LoadCollectionRemote.
type Endpoint struct {
	// URL is the server's base URL, e.g. "http://10.0.0.7:8080".
	URL string
	// Shards optionally names the remote documents to register as shards, in
	// slice order. Empty discovers the server's full inventory (GET
	// /v1/shards) and registers it in the server's (name-sorted) order.
	Shards []string
}

// LoadCollectionRemote registers remote shards of the named collection: each
// endpoint's documents become shards served over HTTP by a roxserve in
// shard-server role, interleaving freely with local shards registered through
// LoadCollectionSource (the gather cannot tell them apart).
// Endpoints without an explicit shard list are asked for their inventory
// using ctx. Like every Load*, the registration is one copy-on-write catalog
// swap; shard names must be unique across the collection's endpoints, a
// duplicate name replaces the earlier registration.
func (e *Engine) LoadCollectionRemote(ctx context.Context, coll string, endpoints []Endpoint) error {
	var remotes []plan.Remote
	for _, ep := range endpoints {
		if strings.TrimSpace(ep.URL) == "" {
			return fmt.Errorf("rox: LoadCollectionRemote: empty endpoint URL")
		}
		names := ep.Shards
		if len(names) == 0 {
			infos, err := e.remote.client.Shards(ctx, ep.URL)
			if err != nil {
				return fmt.Errorf("rox: discovering shards at %s: %w", ep.URL, err)
			}
			for _, in := range infos {
				names = append(names, in.Name)
			}
		}
		if len(names) == 0 {
			return fmt.Errorf("rox: shard server %s serves no documents", ep.URL)
		}
		for _, n := range names {
			remotes = append(remotes, plan.Remote{Endpoint: ep.URL, Doc: n})
		}
	}
	e.mu.Lock()
	cat := e.cat.Clone()
	for _, r := range remotes {
		cat.AddCollectionShardRemote(coll, r)
	}
	e.cat = cat
	e.mu.Unlock()
	return nil
}

// WithShardHTTPClient replaces the HTTP client the engine's remote shard
// backend uses (default: a fresh http.Client with transport defaults and no
// overall timeout — execute responses stream for as long as queries run).
func WithShardHTTPClient(hc *http.Client) Option {
	return func(e *Engine) { e.remoteHTTP = hc }
}

// statsFromWire decodes a shard server's stats report.
func statsFromWire(ws shardrpc.Stats) Stats {
	return Stats{
		Rows:                   ws.Rows,
		Scanned:                ws.Scanned,
		Truncated:              ws.Truncated,
		Elapsed:                time.Duration(ws.ElapsedNS),
		ExecTuples:             ws.ExecTuples,
		SampleTuples:           ws.SampleTuples,
		CumulativeIntermediate: ws.CumulativeIntermediate,
		Plan:                   ws.Plan,
		CacheHit:               ws.CacheHit,
		Reoptimized:            ws.Reoptimized,
	}
}

// statsToWire encodes one shard's stats for the wire.
func statsToWire(s Stats) shardrpc.Stats {
	return shardrpc.Stats{
		Rows:                   s.Rows,
		Scanned:                s.Scanned,
		Truncated:              s.Truncated,
		ElapsedNS:              int64(s.Elapsed),
		ExecTuples:             s.ExecTuples,
		SampleTuples:           s.SampleTuples,
		CumulativeIntermediate: s.CumulativeIntermediate,
		Plan:                   s.Plan,
		CacheHit:               s.CacheHit,
		Reoptimized:            s.Reoptimized,
	}
}

// ---- Server half: the engine as a shardrpc.Executor ----

// ExecuteShard implements shardrpc.Executor: serve one shard execution
// against this engine's catalog. The request's fingerprint and plan hint
// plug into this engine's own plan cache — a hint installs as a cache entry
// at the hint's generation, so the regular lookup classifies it (exact
// generation → replay without verification; older → replay-and-verify with
// drift re-optimization), exactly the machinery local shards use. Intended
// for cmd/roxserve's shard-server role; library callers use collection
// queries, not this.
func (e *Engine) ExecuteShard(ctx context.Context, shard string, req *shardrpc.ExecRequest) (shardrpc.ShardRun, error) {
	if req.Collection == "" {
		return nil, &shardrpc.StatusError{Status: http.StatusBadRequest,
			Err: errors.New("rox: execute request names no collection")}
	}
	comp, err := xquery.CompileString(req.Query, xquery.CompileOptions{})
	if err != nil {
		return nil, &shardrpc.StatusError{Status: http.StatusBadRequest, Err: err}
	}
	if !slices.Contains(comp.Collections, req.Collection) {
		return nil, &shardrpc.StatusError{Status: http.StatusBadRequest,
			Err: fmt.Errorf("rox: query does not read collection %q", req.Collection)}
	}
	if req.ShardLimit < 0 {
		return nil, &shardrpc.StatusError{Status: http.StatusBadRequest,
			Err: fmt.Errorf("rox: negative shard limit %d", req.ShardLimit)}
	}
	if req.ShardLimit > 0 && comp.Tail.Agg != nil {
		return nil, &shardrpc.StatusError{Status: http.StatusBadRequest,
			Err: errors.New("rox: shard limit cannot apply to an aggregate return")}
	}
	cat := e.catalog()
	if _, err := cat.Index(shard); err != nil {
		return nil, &shardrpc.StatusError{Status: http.StatusNotFound, Err: translateErr(err)}
	}
	// The coordinator's window always replaces any limit clause of the query
	// text: a programmatic window overrides the text on the coordinator, so
	// the text's own clause is not authoritative here.
	var window *plan.LimitSpec
	if req.ShardLimit > 0 {
		window = &plan.LimitSpec{Count: req.ShardLimit}
	}
	comp = comp.WithTailLimit(window)
	gen := cat.DocGeneration(shard)
	// A coordinator without caching sends no key; planKey then keys locally so
	// this server still replays across such requests.
	fp := e.planKey(comp, req.Fingerprint)
	if fp != "" && req.Hint != nil && len(req.Hint.Steps) > 0 {
		// Seed the cache with the coordinator's replay payload; Install keeps
		// an existing entry from a newer generation, so a hint can only add
		// knowledge, never roll it back.
		e.cache.Install(&plancache.Entry{
			Fingerprint: fp + "|shard:" + shard,
			Generation:  req.Hint.Generation,
			Plan:        shardrpc.ToPlan(req.Hint.Steps),
			Expected:    req.Hint.Expected,
		})
	}
	// The run is the execution cursor itself, pulled by the handler's own
	// goroutine. It opens on the first Next, so a failure past this point
	// travels in-band in the done report.
	return e.shardCursor(ctx, &shardExec{
		coll:      req.Collection,
		shard:     shard,
		gen:       gen,
		cat:       cat,
		comp:      comp,
		baseFP:    fp,
		interrupt: ctx.Err,
	}), nil
}

// Done implements shardrpc.ShardRun: the wire form of the cursor's done
// report — stats, generation stamp, fold state, and the executed plan's
// replay payload for the coordinator's next hint.
func (c *cursor) Done() shardrpc.Done {
	d := c.done(c.row)
	out := shardrpc.Done{Generation: d.gen}
	if d.err != nil {
		out.Error = d.err.Error()
	}
	ws := statsToWire(d.stats)
	out.Stats = &ws
	if d.agg != nil {
		out.Agg = shardrpc.AggFromState(d.agg)
	}
	if d.ranPlan != nil {
		out.Plan = shardrpc.StepsFromPlan(d.ranPlan)
		out.Expected = d.edgeRows
	}
	return out
}

// ShardInventory implements shardrpc.Executor: every document this engine
// holds, with its own generation stamp, sorted by name.
func (e *Engine) ShardInventory() []shardrpc.ShardInfo {
	cat := e.catalog()
	names := cat.Names()
	out := make([]shardrpc.ShardInfo, len(names))
	for i, name := range names {
		out[i] = shardrpc.ShardInfo{Name: name, Generation: cat.DocGeneration(name)}
	}
	return out
}
