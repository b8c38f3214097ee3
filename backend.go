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
	"repro/internal/shardrpc"
	"repro/internal/xquery"
)

// This file is the shard-execution side of the scatter-gather: what one shard
// execution is (shardExec), the two sources the gather pulls — the execution
// cursor bound to a local shard, and remoteShard over a remote shard's
// shardrpc response stream — and the engine's server half (ExecuteShard) that
// lets a roxserve in shard-server role serve the remote side. The gather in
// shard.go pulls both through shardSource and never learns where the items
// came from.

// shardExec is one shard's execution order: everything a source needs to run
// the statement on one shard, for either transport.
type shardExec struct {
	coll  string // collection name in the compiled graph
	shard string // shard document name
	// gen is the generation stamp cached plans validate against: the shard's
	// registration stamp locally, the document's own stamp on the shard
	// server that serves it. A remote shard's plans never leave that server.
	gen    uint64
	remote *plan.Remote  // non-nil for http shards: where the data lives
	cat    *plan.Catalog // catalog snapshot the query runs against (local)
	// stmt is the statement the shard runs: a local shard runs its memoized
	// rebind, a remote one ships its text (compilation is deterministic, so
	// the server rebuilds the identical graph) instead of a serialized graph.
	stmt *Prepared
	// window is the shard's tail window, replacing the statement's own limit
	// clause; shardLimit is its count for the wire (0 = none).
	window     *plan.LimitSpec
	shardLimit int
	baseFP     string // base plan-cache key; "" = caching disabled
}

// bound is the graph a shard cursor runs: the statement rebound to the shard
// document, with the shard's window on top when it is not the statement's
// own.
func (x *shardExec) bound() *xquery.Compiled {
	c := x.stmt.forShard(x.shard)
	if c.Tail.Limit != x.window {
		c = c.WithTailLimit(x.window)
	}
	return c
}

// shardCursor binds the execution cursor to one shard: the compiled graph
// rebound to the shard document, a per-shard environment (own recorder and
// seeded random stream) over the query's catalog snapshot, and the shard's
// own cache key and generation stamp — so a reload of this shard invalidates
// exactly this shard's cached plans and no others.
func (e *Engine) shardCursor(ctx context.Context, x *shardExec) *cursor {
	env := plan.NewQueryEnv(x.cat, metrics.NewRecorder(), e.seed)
	env.Interrupt = ctx.Err
	fp := ""
	if x.baseFP != "" {
		// The rebound graph's own fingerprint would differ per shard too, but
		// deriving the key from the base avoids re-hashing the graph on every
		// shard of every query (Prepared computes baseFP once, ever).
		fp = x.baseFP + "|shard:" + x.shard
	}
	c := e.newCursor(ctx, env, x.bound(), fp, x.gen)
	c.shard = true
	return c
}

// item is the gather's view of a local shard's current item: the cursor's
// own render buffer, uncopied.
func (c *cursor) item() []byte { return c.buf }

// done is a shard cursor's end-of-stream report.
func (c *cursor) done() shardDone {
	return shardDone{stats: c.report(), rec: c.env.Rec, agg: c.agg, err: c.err}
}

// remoteShard is a remote shard as a pull source: a thin adapter over its
// shardrpc response stream, keeping the current item and key — views of the
// stream's buffers, valid until the next Next, as a local cursor's item is of
// its own — the done line once it arrived, and the error that ended the
// stream.
type remoteShard struct {
	x      *shardExec
	ctx    context.Context
	sw     metrics.Stopwatch // coordinator-observed: slot wait and wire included
	stream *shardrpc.Stream  // nil once the stream ended, or if it never opened
	cur    []byte
	key    plan.Key
	rows   int
	fin    *shardrpc.Done
	err    error
}

// openRemote establishes one remote shard execution. It holds a fan-out
// slot around request establishment only: the remote join work is bounded
// by the server's own limiter, and a coordinator slot held while the gather
// is busy with other shards would starve an ordered merge exactly like a
// local shard holding its slot past its join. Cancellation — caller gone, or
// a window filled before the stream's rest could be read out
// (scatterRows.readOut) — closes the response body, which aborts the remote
// execution mid-stream.
func (e *Engine) openRemote(ctx context.Context, x *shardExec) (*remoteShard, error) {
	r := &remoteShard{x: x, ctx: ctx, sw: metrics.Start()}
	req := &shardrpc.ExecRequest{
		Collection:  x.coll,
		Query:       x.stmt.text,
		ShardLimit:  x.shardLimit,
		Fingerprint: x.baseFP,
	}
	if r.err = e.shardLim.Acquire(ctx); r.err == nil {
		r.stream, r.err = e.shardClient.Execute(ctx, x.remote.Endpoint, x.remote.Doc, req)
		e.shardLim.Release()
	}
	if r.err != nil {
		r.err = fmt.Errorf("rox: shard %q at %s: %w", x.shard, x.remote.Endpoint, r.err)
	}
	return r, r.err
}

// Next reads the stream's next line: an item, or the done line (or a
// transport failure) that ends it.
func (r *remoteShard) Next() bool {
	if r.stream == nil {
		return false
	}
	ok, err := r.stream.Next()
	switch {
	case err != nil:
		// A canceled context surfaces as a transport read error; report the
		// cancellation itself, as a local shard does.
		if r.err = r.ctx.Err(); r.err == nil {
			r.err = fmt.Errorf("rox: shard %q at %s: %w", r.x.shard, r.x.remote.Endpoint, err)
		}
	case !ok:
		r.finish(r.stream.Done())
	default:
		r.cur = r.stream.Item()
		k, _ := r.stream.Key()
		r.key = k.ToPlan()
		r.rows++
		return true
	}
	r.Close()
	return false
}

// finish takes the done line: a shard-side failure becomes the stream's
// error.
func (r *remoteShard) finish(d *shardrpc.Done) {
	r.fin = d
	if d.Error != "" {
		r.err = fmt.Errorf("rox: shard %q at %s: %s", r.x.shard, r.x.remote.Endpoint, d.Error)
	}
}

func (r *remoteShard) item() []byte { return r.cur }

// Key returns the current item's order-by merge key; ok is false when the
// query does not sort.
func (r *remoteShard) Key() (plan.Key, bool) { return r.key, r.x.stmt.comp.Tail.Order != nil }

// done reports the done line's stats with the coordinator-observed elapsed
// time — what this query actually spent on the shard, network included. A
// stream the gather stopped pulling before its done line is canceled.
func (r *remoteShard) done() shardDone {
	d := shardDone{err: r.err}
	if f := r.fin; f != nil {
		if f.Stats != nil {
			d.stats = statsFromWire(*f.Stats)
		}
		if f.Agg != nil {
			d.agg = f.Agg.State()
		}
	} else if d.err == nil {
		d.err = r.ctx.Err()
	}
	d.stats.Elapsed = r.sw.Elapsed()
	d.stats.Rows = r.rows
	if d.agg != nil {
		d.stats.Rows = 1
	}
	d.stats.Truncated = d.stats.Truncated || d.err != nil
	return d
}

// readOut reads the rest of a stream the gather stopped pulling, at most
// limit bytes, unparsed: a response read to its end lets Close return the
// connection to the transport's idle pool. The done line it may pass over is
// not taken, so done reports the stream as canceled, as if it were aborted.
func (r *remoteShard) readOut(limit int) {
	if r.stream != nil {
		r.stream.Finish(limit)
	}
}

// Close releases the response; before the response's end that aborts the
// remote execution and costs the connection (see scatterRows.readOut).
func (r *remoteShard) Close() {
	if r.stream != nil {
		r.stream.Close()
		r.stream, r.cur = nil, nil
	}
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
			infos, err := e.shardClient.Shards(ctx, ep.URL)
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
	e.publish(func(cat *plan.Catalog) {
		for _, r := range remotes {
			cat.AddCollectionShardRemote(coll, r)
		}
	})
	return nil
}

// WithShardHTTPClient replaces the HTTP client the engine talks to remote
// shard servers with (default: a fresh http.Client with transport defaults
// and no overall timeout — execute responses stream for as long as queries
// run). Its transport's keep-alive connections are reused only by responses
// read to their end: the gather finishes every stream that ended or that a
// pushed-down window bounds, and aborts — closing the connection — only
// streams with an unbounded rest, a failed scatter, or a canceled caller.
// http.DefaultTransport, the default, keeps two idle connections per host,
// so a server answering more concurrent shard requests than that still sees
// new connections.
func WithShardHTTPClient(hc *http.Client) Option {
	return func(e *Engine) { e.shardClient = shardrpc.NewClient(hc) }
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

// Wire is the stats' one JSON form, recursively over the per-shard
// breakdown: the stats of a buffered /v1/query body, of an NDJSON stream's
// terminal line and of a shard server's done report.
func (s Stats) Wire() shardrpc.Stats {
	out := shardrpc.Stats{
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
	for _, sh := range s.Shards {
		out.Shards = append(out.Shards, shardrpc.ShardStats{Shard: sh.Shard, Stats: sh.Stats.Wire()})
	}
	return out
}

// ---- Server half: the engine as a shardrpc.Executor ----

// ExecuteShard implements shardrpc.Executor: serve one shard execution
// against this engine's catalog. The request's fingerprint keys this
// engine's own plan cache, which only this engine's runs write: a plan is
// valid for the data it was sampled on, and generation stamps count this
// process's loads (the "Distributed scatter-gather" section of DESIGN.md).
// The lookup, replay-and-verify and drift re-optimization are exactly the
// machinery local shards use. Intended
// for cmd/roxserve's shard-server role; library callers use collection
// queries, not this.
func (e *Engine) ExecuteShard(ctx context.Context, shard string, req *shardrpc.ExecRequest) (shardrpc.ShardRun, error) {
	if req.Collection == "" {
		return nil, &shardrpc.StatusError{Status: http.StatusBadRequest,
			Err: errors.New("rox: execute request names no collection")}
	}
	// The statement cache compiles each text once for every coordinator that
	// sends it.
	stmt, err := e.statement(req.Query)
	if err != nil {
		return nil, &shardrpc.StatusError{Status: http.StatusBadRequest, Err: err}
	}
	comp := stmt.comp
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
	gen := cat.DocGeneration(shard)
	fp := ""
	if e.cache != nil {
		if fp = req.Fingerprint; fp == "" {
			// A coordinator without caching sends no key: key locally, so
			// this server still replays across such requests.
			fp = cacheKey(comp.WithTailLimit(window))
		}
	}
	// The run is the execution cursor itself, pulled by the handler's own
	// goroutine. It opens on the first Next, so a failure past this point
	// travels in-band in the done report.
	return e.shardCursor(ctx, &shardExec{
		coll:   req.Collection,
		shard:  shard,
		gen:    gen,
		cat:    cat,
		stmt:   stmt,
		window: window,
		baseFP: fp,
	}), nil
}

// Done implements shardrpc.ShardRun: the wire form of the cursor's done
// report — stats and fold state.
func (c *cursor) Done() shardrpc.Done {
	var out shardrpc.Done
	if c.err != nil {
		out.Error = c.err.Error()
	}
	ws := c.report().Wire()
	out.Stats = &ws
	if c.agg != nil {
		out.Agg = shardrpc.AggFromState(c.agg)
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
