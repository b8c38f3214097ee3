package rox

// This file is the streaming half of the public API: the Request that
// Engine.Execute and Pool.Execute take, the Rows cursor they return, and the
// one execution cursor every query path pulls its items from (the
// scatter-gather merge in shard.go is the only other row source). Items are
// serialized (and, for collection queries, merged across shards) one Next at
// a time — which is what lets a `limit 10` query stop after ten items instead
// of materializing the full result first. See the "Streaming execution and
// limit pushdown" section of DESIGN.md.

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync"

	"repro/internal/classical"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/table"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// Request describes one evaluation for Engine.Execute or Pool.Execute: what
// to run — query text or a prepared statement, exactly one of the two — plus
// the execution knobs. The zero value of everything else is the default ROX
// path. A malformed Request fails Execute with ErrInvalidRequest.
type Request struct {
	// Query is the XQuery text. An engine with a plan cache compiles a text
	// once and keeps the statement for the next Execute of the same text;
	// without one every Execute compiles.
	Query string
	// Prepared is a statement compiled once by Prepare on the same engine;
	// it replaces Query. Both run the same pipeline and share one plan-cache
	// entry per query shape.
	Prepared *Prepared
	// Static evaluates with the classical compile-time baseline instead of
	// the ROX run-time optimizer. Static evaluation does not support
	// collection() queries.
	Static bool
	// Limit, when positive, caps the number of returned items; Offset skips
	// that many items first. A non-zero Limit or Offset overrides any
	// `limit ... offset ...` clause in the query text itself — the
	// programmatic window wins, which is what a paginating caller wants; an
	// aggregate return, which yields one item, takes no window. Negative
	// values are an error; both zero means "no window beyond the query's
	// own".
	Limit int
	// Offset is the number of result items skipped before the first
	// returned item.
	Offset int
}

// requestWindow validates a programmatic limit/offset pair and turns it into
// a tail window; (0, 0) means none (nil spec).
func requestWindow(limit, offset int) (*plan.LimitSpec, error) {
	if limit < 0 {
		return nil, fmt.Errorf("%w: negative limit %d", ErrInvalidRequest, limit)
	}
	if offset < 0 {
		return nil, fmt.Errorf("%w: negative offset %d", ErrInvalidRequest, offset)
	}
	if limit == 0 && offset == 0 {
		return nil, nil
	}
	return &plan.LimitSpec{Count: limit, Offset: offset}, nil
}

// Rows is a streaming query result cursor, in the style of database/sql:
//
//	rows, err := eng.Execute(ctx, rox.Request{Query: q})
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		use(rows.Item())
//	}
//	if err := rows.Err(); err != nil { ... }
//
// or, with the Go 1.23 iterator adapter:
//
//	for item, err := range rows.All() { ... }
//
// Items are produced incrementally: serialization — and for collection
// queries the scatter-gather shard merge — happens one Next at a time, and
// closing the cursor early cancels whatever shard work is still running. A
// Rows must not be used from multiple goroutines concurrently. An abandoned
// cursor that is garbage-collected without Close releases its resources (and
// its Pool admission slot) via a runtime cleanup, but relying on that trades
// promptness for convenience — Close deterministically.
type Rows struct {
	c *rowsCore
}

// rowsCore is the shared cursor state. It is split from Rows so the leak
// cleanup registered on the Rows handle can reference it (runtime.AddCleanup
// forbids the cleanup argument to be the handle itself).
type rowsCore struct {
	src   rowSource
	err   error
	stats Stats

	// The current item as its source produced it — a view of a buffer the
	// source reuses, valid until the next Next — and, once Item asked for it,
	// the string Item made of it (isStr).
	raw   []byte
	str   string
	isStr bool

	mu     sync.Mutex
	done   bool
	hooks  []func(st Stats, err error)
	unhook func() // stops the leak cleanup once finished
}

// rowSource produces the cursor's items. Implementations are single-consumer
// and are driven only through rowsCore.
type rowSource interface {
	// next returns the next item; ok = false ends the stream, with err as
	// the terminal error (nil for normal exhaustion). The item is a view of a
	// buffer the source reuses, valid until the following next.
	next() (item []byte, ok bool, err error)
	// finalize folds end-of-stream statistics into st and releases any
	// resources (shard sources, context). Called exactly once, after the
	// stream ended or the cursor was closed; st.Rows already holds the
	// number of items handed out, and Scanned, Truncated and ElapsedNS are the
	// source's to stamp.
	finalize(st *Stats)
}

// newRows wraps a source into a cursor. stats carries the execution-phase
// statistics known up front (plan, cache outcome, tuple costs); the cursor
// counts Rows as the stream progresses and the source stamps the rest when it
// ends. The returned cursor self-closes if it becomes unreachable without
// Close, so an abandoned cursor cannot leak shard streams or pool slots.
func newRows(stats Stats, src rowSource) *Rows {
	c := &rowsCore{src: src, stats: stats}
	r := &Rows{c: c}
	cleanup := runtime.AddCleanup(r, func(c *rowsCore) { c.finish(nil) }, c)
	c.unhook = func() { cleanup.Stop() }
	return r
}

// Next advances to the next item, returning false when the stream ends —
// either exhausted, failed (see Err) or closed. The first Next triggers the
// first serialization (and, on the scatter path, the first shard merge).
func (r *Rows) Next() bool {
	// KeepAlive pins the handle for the duration of the call: without it the
	// collector may see the handle dead after `r.c` is loaded and run the
	// leak cleanup's finish concurrently with the in-flight src.next.
	defer runtime.KeepAlive(r)
	c := r.c
	if c.done {
		return false
	}
	raw, ok, err := c.src.next()
	if !ok {
		c.finish(err)
		return false
	}
	c.raw, c.isStr = raw, false
	c.stats.Rows++
	return true
}

// Item returns the item Next advanced to: the serialized XML of one result
// (or the single rendered value of an aggregate query). The string is the
// caller's to keep; it is made on the first call, so a consumer that only
// forwards the bytes (see ItemBytes) never pays for it.
func (r *Rows) Item() string {
	defer runtime.KeepAlive(r) // see Next
	c := r.c
	if !c.isStr {
		c.str, c.isStr = string(c.raw), true
	}
	return c.str
}

// ItemBytes returns the item Next advanced to as a view of the cursor's own
// buffer: valid only until the next call of Next or Close, and not to be
// modified — the contract of bufio.Scanner.Bytes. It is the allocation-free
// way to stream a result out; use Item for anything that outlives the row.
func (r *Rows) ItemBytes() []byte {
	defer runtime.KeepAlive(r) // see Next
	return r.c.raw
}

// Err returns the terminal stream error: nil after normal exhaustion or
// Close, the context's error when the evaluation was canceled mid-stream,
// or the evaluation failure that ended the stream.
func (r *Rows) Err() error {
	defer runtime.KeepAlive(r) // see Next
	return r.c.err
}

// Close ends the stream early: remaining shard work is canceled, resources
// are released, and Stats is finalized with what was actually done. Close is
// idempotent and safe after exhaustion; it returns Err.
func (r *Rows) Close() error {
	defer runtime.KeepAlive(r) // see Next
	r.c.finish(nil)
	return r.c.err
}

// Stats reports the evaluation statistics gathered so far. The counters are
// final once the stream ended (Next returned false or Close was called);
// before that, Rows counts the items handed out and the scatter-gather
// rollups (Shards, Scanned) are not yet populated.
func (r *Rows) Stats() Stats {
	defer runtime.KeepAlive(r) // see Next
	return r.c.stats
}

// All returns a single-use iterator over the remaining items, closing the
// cursor when the loop ends. A mid-stream failure yields one final
// ("", err) pair — callers that range over All must check the error value.
func (r *Rows) All() iter.Seq2[string, error] {
	return func(yield func(string, error) bool) {
		defer r.Close()
		for r.Next() {
			if !yield(r.Item(), nil) {
				return
			}
		}
		if err := r.Err(); err != nil {
			yield("", err)
		}
	}
}

// Collect drains the cursor into a materialized Result — every remaining
// item plus the final statistics — and closes it. A stream that failed or was
// canceled returns its error and no Result.
func (r *Rows) Collect() (*Result, error) {
	defer r.Close()
	items := []string{}
	for r.Next() {
		items = append(items, r.Item())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &Result{Items: items, Stats: r.Stats()}, nil
}

// onFinish registers a hook run exactly once when the stream ends (normal
// exhaustion, failure, Close, or the leak cleanup). Hooks receive the
// query's final Stats and the terminal error; Pool uses this to release its
// admission slot and add the query's cost to its totals.
func (c *rowsCore) onFinish(h func(st Stats, err error)) {
	c.mu.Lock()
	if !c.done {
		c.hooks = append(c.hooks, h)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	h(c.stats, c.err)
}

// finish ends the stream once: records the terminal error, finalizes the
// source (which cancels and drains outstanding shard work), stamps the
// remaining statistics and runs the finish hooks.
func (c *rowsCore) finish(err error) {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return
	}
	c.done = true
	c.mu.Unlock()
	if err != nil {
		c.err = err
	}
	c.src.finalize(&c.stats)
	c.raw = nil // the source's buffer went with it
	c.mu.Lock()
	hooks := c.hooks
	c.hooks = nil
	unhook := c.unhook
	c.unhook = nil
	c.mu.Unlock()
	if unhook != nil {
		unhook()
	}
	for _, h := range hooks {
		h(c.stats, c.err)
	}
}

// cursor is the engine's one execution path: a pull cursor over one bound
// Join Graph on one catalog snapshot — which is all an executor needs to
// know, whether the graph came from doc(), from one local shard of a
// collection(), or off the shard wire. It owns, exactly once each, the plan
// choice (open), the recorder-delta Stats of the join phase, the aggregate
// fold, the per-row rendering with its order key (advance, Item), and the
// end-of-stream report (report, done). Three drivers pull it and add nothing of their own,
// and none of them needs a goroutine or a channel to do it:
//
//   - a non-collection or static query opens it inside Execute and hands it
//     to Rows as the row source (next, finalize);
//   - the scatter-gather opens it as a local shard's source (openShard) and
//     pulls it straight into the merge (Next, Item, Key, Before, done, Close);
//   - Engine.ExecuteShard returns it as the shardrpc.ShardRun the shard
//     server's handler streams from (Next, Item, Key, Before, Done, Close).
//
// The latter two are shard cursors: they open holding an engine-wide fan-out
// slot for exactly the join — the gather ahead of its first pull, the
// handler on the first Next — and an aggregate tail reports its fold state
// for the gather to merge instead of rendering it as an item.
type cursor struct {
	e    *Engine
	ctx  context.Context
	env  *plan.Env
	comp *xquery.Compiled
	// fp keys the graph in the plan cache ("" = no cache for this execution:
	// the engine runs without one, or the plan is static); gen is the stamp
	// entries validate against, the catalog's GraphGeneration of the graph —
	// so only a reload of a document the graph reads, the shard's own or a
	// joined doc(), makes a cached plan stale.
	fp     string
	gen    uint64
	static bool // plan with the classical compile-time baseline, not ROX
	shard  bool // one shard of a scatter; see above
	sw     metrics.Stopwatch

	// The finished join, set by open: the windowed final relation, the
	// order-by keys when the tail sorts, the pre-window cardinality, the rows
	// before a bounded window's start and the aggregate fold.
	opened  bool
	rel     *table.Relation
	keys    []plan.Key
	scanned int
	before  int
	agg     *plan.AggState
	stats   Stats // join-phase statistics; report adds the stream's

	row      int    // rows handed out so far
	buf      []byte // the row Item rendered last; reused row to row, dropped at Close
	rendered bool   // buf holds row row-1
	err      error  // what ended the cursor early: open's failure or ctx's error
}

// newCursor binds one execution; the stopwatch starts here so a shard's
// ElapsedNS covers its wait for a fan-out slot.
func (e *Engine) newCursor(ctx context.Context, env *plan.Env, comp *xquery.Compiled, fp string) *cursor {
	c := &cursor{e: e, ctx: ctx, env: env, comp: comp, fp: fp, sw: metrics.Start()}
	if fp != "" {
		c.gen = env.Catalog().GraphGeneration(comp.Graph)
	}
	return c
}

// open runs the join: choose a plan, execute it, fold an aggregate tail.
//
//   - Static: the classical baseline's plan, straight through.
//   - Cache hit at generation gen: replay the cached plan with zero sampling
//     work. No document the graph reads was reloaded since, so the data
//     cannot have drifted — serve without verifying.
//   - Hit from an older generation (a document the graph reads was reloaded
//     since discovery):
//     replay anyway — replay is correct regardless of data changes, only the
//     cost can suffer — while comparing observed per-edge cardinalities
//     against the discovering run's. Within the drift ratio the entry is
//     revalidated for gen; beyond it the entry is dropped and the query
//     re-optimized on the spot by a full ROX run, which both answers this
//     query and discovers the plan that fits the data now.
//   - Miss, or a cached plan that does not fit the freshly compiled graph
//     (a fingerprint collision; the entry is invalidated): run ROX and
//     install the discovered plan.
//
// Serialization stays with Item, so a replay that ends up drift-rejected
// never pays it.
func (c *cursor) open() error {
	e, env, comp := c.e, c.env, c.comp
	// The recorder baselines are taken before the cache lookup so that on the
	// drift path — replay first, then a full re-optimization — the Stats
	// cover everything this request actually did, not just the final run.
	startExec := env.Rec.CostOf(metrics.PhaseExecute)
	startSample := env.Rec.CostOf(metrics.PhaseSample)
	var (
		rel          *table.Relation
		run          *plan.RunStats
		ran          *plan.Plan // non-nil once a sampling-free plan is chosen
		cfg          plan.RunConfig
		outcome      plancache.Outcome
		abandoned    int64 // drift path: the rejected replay's intermediates
		hit, reoptim bool
		err          error
	)
	switch {
	case c.static:
		// Plan-time statistics are the optimizer's work, not query execution;
		// charge them to a scratch recorder — and keep them off the clock — as
		// the baseline prescribes.
		ran, err = classical.StaticPlan(env.WithScratchRecorder(), comp.Graph)
		c.sw = metrics.Start()
	case c.fp != "":
		var entry *plancache.Entry
		if entry, outcome = e.cache.Lookup(c.fp, c.gen); outcome != plancache.Miss {
			cached := entry.Plan
			ran, cfg.Expected = &cached, entry.Expected
			cfg.EagerProject = e.opts.EagerProject
		}
	}
	if ran != nil {
		rel, run, err = plan.RunWithConfig(env, comp.Graph, ran, comp.Tail, cfg)
		switch {
		case c.static || (err != nil && env.CheckInterrupt() != nil):
			// The baseline has no fallback, and a canceled replay propagates.
		case err != nil:
			e.cache.Invalidate(c.fp)
			ran, err = nil, nil
		case outcome == plancache.Hit:
			hit = true
		default: // StaleGeneration: verify the successful replay
			if _, _, _, drifted := plancache.Drift(cfg.Expected, run.EdgeRows, e.driftRatio); drifted {
				e.cache.MarkDrift(c.fp, c.gen)
				abandoned = run.CumulativeIntermediate
				reoptim, ran = true, nil
			} else {
				// The replay's own observations become the entry's: observed
				// on the current data, they are the better drift baseline.
				e.cache.Revalidate(c.fp, c.gen, run.EdgeRows)
				hit = true
			}
		}
	}
	if ran == nil && err == nil {
		var res *core.Result
		if rel, res, err = core.Run(env, comp.Graph, comp.Tail, e.opts); err == nil {
			// Install before any serialization: the discovered plan is valid
			// even when the tail's data later fails it (e.g. a non-numeric
			// aggregate value), so a repeatedly-failing query replays cheaply
			// instead of re-running the full sampling loop on every retry. It
			// also means a cursor canceled mid-stream leaves the plan
			// installed — the join work that discovered it is already done.
			if c.fp != "" {
				e.cache.Install(&plancache.Entry{
					Fingerprint: c.fp,
					Generation:  c.gen,
					Plan:        res.Plan,
					Expected:    res.EdgeRows,
				})
			}
			ran, run = &res.Plan, &res.RunStats
			run.CumulativeIntermediate += abandoned
		}
	}
	// Recorder deltas, not the run's own cost report: on the drift path the
	// request also paid for the abandoned replay, so every cost field covers
	// it. A failed open reports its costs and nothing else.
	c.stats = Stats{
		ExecTuples:   env.Rec.CostOf(metrics.PhaseExecute).Sub(startExec).Tuples,
		SampleTuples: env.Rec.CostOf(metrics.PhaseSample).Sub(startSample).Tuples,
	}
	if err == nil && comp.Tail.Agg != nil {
		// The fold consumes the whole relation and can fail the query, so it
		// belongs to the join phase, not the stream.
		if c.agg, err = plan.FoldAggIn(env.Catalog(), rel, comp.Tail.Agg); err != nil {
			err = fmt.Errorf("rox: %s: %w", comp.Return.String(), err)
		}
	}
	if err != nil {
		c.err = translateErr(err)
		return c.err
	}
	c.opened = true
	c.rel, c.keys, c.scanned, c.before = rel, run.Keys, run.Scanned, run.Before
	c.stats.CumulativeIntermediate = run.CumulativeIntermediate
	c.stats.Plan = ran.String()
	c.stats.CacheHit = hit
	c.stats.Reoptimized = reoptim
	return nil
}

// advance moves to the next row, false once the rows are out or ctx ended
// the stream (err). The join has fully materialized (that is ROX's execution
// model), but a row is serialized only when Item asks for it, so a window,
// an early Close or a gather skipping its global offset never renders rows
// it does not return. An aggregate's stream is its one rendered item —
// avg/min/max over an empty sequence render XQuery's empty sequence as an
// empty item — and, for a shard, nothing: the fold state travels in the done
// report.
func (c *cursor) advance() bool {
	n := c.rel.NumRows() // 0 before open and after Close
	if c.agg != nil {
		n = 1
		if c.shard {
			n = 0
		}
	}
	if c.err != nil || c.row >= n {
		return false
	}
	if c.err = c.ctx.Err(); c.err != nil {
		return false
	}
	c.row, c.rendered = c.row+1, false
	return true
}

// report closes the books on the stream: every row advance moved to went out
// to the driver. Scanned is the pre-window cardinality; the stream is
// truncated when it never opened or when fewer items went out than it held —
// the scanned rows, or an aggregate's one.
func (c *cursor) report() Stats {
	st := c.stats
	want, delivered := c.scanned, c.row
	if c.agg != nil {
		want = 1
		if c.shard {
			delivered = 1 // the shard's single partial-aggregate item
		}
	}
	st.Rows, st.Scanned = delivered, c.scanned
	st.Truncated = !c.opened || delivered < want
	st.ElapsedNS = c.sw.Elapsed()
	return st
}

// next and finalize make the cursor the row source of a non-collection
// query's Rows.
func (c *cursor) next() ([]byte, bool, error) {
	if !c.advance() {
		return nil, false, c.err
	}
	return c.Item(), true, nil
}

func (c *cursor) finalize(st *Stats) {
	*st = c.report()
	c.Close()
}

// openShard runs a shard cursor's join holding an engine-wide fan-out slot
// and releases it before any item goes out: the join work the limiter bounds
// is done, and an ordered gather needs every shard's head before it can merge
// — a shard still holding its slot while its consumer is busy elsewhere
// could starve the shards the merge is waiting for. A failure ends the item
// sequence; it travels in the done report.
func (c *cursor) openShard() error {
	if c.err = c.e.shardLim.Acquire(c.ctx); c.err != nil {
		return c.err
	}
	defer c.e.shardLim.Release()
	return c.open()
}

// Next, Item, Key, Before and Close are the pull face of a shard cursor — the
// shardrpc.ShardRun a shard server streams from, and the local half of the
// gather's shardSource. A cursor the gather did not open opens on its first
// Next.
func (c *cursor) Next() bool {
	if !c.opened && c.err == nil && c.openShard() != nil {
		return false
	}
	return c.advance()
}

// Item returns the serialized item Next advanced to, valid until the next
// Next: rendered on the first call for the row.
func (c *cursor) Item() []byte {
	if !c.rendered {
		if c.agg != nil {
			item, _ := c.agg.Render(c.comp.Tail.Agg.Kind)
			c.buf = append(c.buf[:0], item...)
		} else {
			if c.buf == nil {
				// One allocation where growing from empty would take five
				// for an 80-byte item, eight for a kilobyte.
				c.buf = make([]byte, 0, renderBufSize)
			}
			c.buf = appendItem(c.buf[:0], c.comp, c.rel, c.row-1)
		}
		c.rendered = true
	}
	return c.buf
}

// Key returns the current item's order-by merge key; ok is false when the
// query does not sort.
func (c *cursor) Key() (plan.Key, bool) {
	if c.comp.Tail.Order == nil {
		return plan.Key{}, false
	}
	return c.keys[c.row-1], true
}

// Before returns how many of the shard's rows sort before its window's
// bound; ok is false when the window has none. A gather bounds only remote
// shards, so a local shard cursor reports (0, false): it streams from its
// first row.
func (c *cursor) Before() (int, bool) {
	l := c.comp.Tail.Limit
	return c.before, l != nil && l.From != nil
}

// Close releases the materialized join and the item buffer.
func (c *cursor) Close() { c.rel, c.keys, c.buf = nil, nil, nil }

// renderBufSize is the capacity a cursor's render buffer starts with.
const renderBufSize = 512

// appendItem serializes one result row onto dst: the return expression's
// variables, optionally wrapped in the constructor element.
func appendItem(dst []byte, comp *xquery.Compiled, rel *table.Relation, row int) []byte {
	ret := comp.Return
	if ret.Elem != "" {
		dst = append(append(append(dst, '<'), ret.Elem...), '>')
	}
	for _, v := range ret.Vars {
		vertex := comp.Vars[v]
		dst = xmltree.AppendSerialize(dst, rel.Doc(vertex), rel.Column(vertex)[row])
	}
	if ret.Elem != "" {
		dst = append(append(append(dst, "</"...), ret.Elem...), '>')
	}
	return dst
}
