// Package rox is a from-scratch Go reproduction of "ROX: Run-time
// Optimization of XQueries" (Abdel Kader, Boncz, Manegold, van Keulen,
// SIGMOD 2009): an XQuery engine whose optimizer executes, materializes
// partial results, and uses cut-off sampling over the live intermediates to
// decide — at run time — the order of XPath steps and equi-joins of a query.
//
// The Engine is the high-level entry point:
//
//	eng := rox.NewEngine()
//	eng.LoadSource(rox.FromXML("people.xml", "<people>…</people>"))
//	rows, err := eng.Execute(ctx, rox.Request{Query: `for $p in doc("people.xml")//person return $p`})
//	res, err := rows.Collect()
//	for _, item := range res.Items { fmt.Println(item) }
//
// A Request runs through the ROX run-time optimizer; Request.Static runs the
// classical compile-time baseline of the paper's evaluation for comparison.
// The building blocks (shredded storage, indices, staircase joins, Join
// Graphs, the optimizer, dataset generators, experiment drivers) live under
// internal/ and are documented in DESIGN.md.
//
// One Engine serves any number of concurrent queries over its loaded
// documents: the corpus lives in an immutable shared catalog and every call
// gets its own per-query evaluation state. Execute is the one entry point —
// it returns a Rows cursor that serializes items incrementally and pushes
// limit/offset windows down into the execution (Rows.Collect drains a cursor
// into a materialized Result). Plans the optimizer discovers are cached by
// canonical Join Graph fingerprint, so repeated queries replay with zero
// sampling work until the data drifts (Prepare compiles once for that hot
// path; Request.Prepared runs the statement). Corpora larger than one
// shredded tree load as sharded collections (LoadCollectionSource) and are
// queried with collection("name") — scatter-gather execution that runs the
// full ROX optimizer independently per shard and streams the merged result
// through the cursor, stopping early (and canceling leftover shard work) once
// a limit window fills. See Pool for a bounded-concurrency front end and
// cmd/roxserve for an HTTP server built on it.
package rox

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/shardrpc"
	"repro/internal/xquery"
)

// Engine evaluates XQueries over a set of loaded documents.
//
// Concurrency contract: concurrent Execute, Prepare, Explain, XPath and
// XPathCount calls are safe — the loaded corpus (documents + indices) is an
// immutable plan.Catalog shared by all in-flight queries, and each call
// creates its own per-query state (cost recorder and seeded random stream).
// Load* calls and ingest commits swap in a copy-on-write catalog through one
// publish, so they may run while queries are in flight: each query sees the
// catalog as of its start. For reproducibility, a fixed WithSeed seed yields
// the same plan and results on every call, sequential or concurrent.
type Engine struct {
	mu   sync.RWMutex  // guards cat; written only by publish
	cat  *plan.Catalog // immutable once published; replaced, never mutated
	opts core.Options
	seed int64

	// cache holds the plans previous ROX runs discovered, keyed by the
	// canonical Join Graph fingerprint and validated against the newest
	// stamp among the documents the graph reads (Catalog.GraphGeneration);
	// nil when disabled (WithPlanCache(0)). See Execute for the
	// compile → lookup → execute pipeline.
	cache      *plancache.Cache
	driftRatio float64
	// stmts maps query text to its compiled statement (statement.go), so a
	// repeated text compiles once — here and on a shard server alike. It has
	// the plan cache's capacity and is nil when the plan cache is.
	stmts *statementCache

	// shardLim bounds the engine-wide scatter-gather fan-out: every in-flight
	// collection query's shard evaluations contend on this one limiter, so
	// concurrent scatters (e.g. from a Pool's workers) cannot multiply into
	// workers × shards goroutines. It is the same primitive Pool uses for
	// query admission (internal/conc).
	shardLim     *conc.Limiter
	shardWorkers int

	// shardClient talks to remote shard servers (see backend.go); a remote
	// shard's plan lives in its server's own plan cache, never in this one.
	// shardRetry is the failure policy WithShardRetry selects.
	shardClient *shardrpc.Client
	shardRetry  ShardFailurePolicy

	// ing is the engine's shared live-ingest handle, created lazily by
	// Engine.Ingest (see ingest.go).
	ingOnce sync.Once
	ing     *Ingester
}

// DefaultPlanCacheSize is the plan-cache LRU bound of NewEngine.
const DefaultPlanCacheSize = 256

// DefaultDriftRatio is the cardinality drift factor beyond which a cached
// plan is considered stale: a replayed edge whose observed intermediate
// cardinality exceeds (or undershoots) the discovering run's observation by
// more than this ratio triggers re-optimization.
const DefaultDriftRatio = plancache.DefaultDriftRatio

// Option configures an Engine.
type Option func(*Engine)

// WithSampleSize sets the optimizer's sample size τ (default 100; values
// <= 0 keep the default).
func WithSampleSize(tau int) Option {
	return func(e *Engine) {
		if tau > 0 {
			e.opts.Tau = tau
		}
	}
}

// WithSeed fixes the random source of the sampling optimizer, making runs
// reproducible (default 1).
func WithSeed(seed int64) Option {
	return func(e *Engine) { e.seed = seed }
}

// WithOptimizerOptions replaces the full optimizer configuration (ablation
// switches included); see core.Options.
func WithOptimizerOptions(o core.Options) Option {
	return func(e *Engine) { e.opts = o }
}

// WithPlanCache bounds the engine's plan cache to the given number of
// entries; capacity <= 0 disables caching entirely (every query runs the
// full ROX sampling loop, the pre-cache behavior). The default is
// DefaultPlanCacheSize.
func WithPlanCache(capacity int) Option {
	return func(e *Engine) {
		if capacity <= 0 {
			e.cache = nil
			return
		}
		e.cache = plancache.New(capacity)
	}
}

// WithDriftRatio sets the cardinality factor beyond which a replayed cached
// plan counts as drifted and is re-optimized (default DefaultDriftRatio;
// values <= 1 fall back to the default).
func WithDriftRatio(r float64) Option {
	return func(e *Engine) {
		if r > 1 {
			e.driftRatio = r
		}
	}
}

// WithShardWorkers bounds how many shard evaluations of collection queries
// may run at once across the whole engine (default GOMAXPROCS). The bound is
// engine-wide, not per query: concurrent collection queries share it, which
// keeps the scatter-gather fan-out additive with (not multiplicative in) a
// Pool's worker count.
func WithShardWorkers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.shardWorkers = n
		}
	}
}

// NewEngine returns an empty engine with plan caching enabled.
func NewEngine(options ...Option) *Engine {
	e := &Engine{
		opts:       core.DefaultOptions(),
		seed:       1,
		cat:        plan.NewCatalog(),
		cache:      plancache.New(DefaultPlanCacheSize),
		driftRatio: DefaultDriftRatio,
	}
	for _, o := range options {
		o(e)
	}
	if e.cache != nil {
		e.stmts = newStatementCache(e.cache.Capacity())
	}
	if e.shardWorkers <= 0 {
		e.shardWorkers = runtime.GOMAXPROCS(0)
	}
	e.shardLim = conc.NewLimiter(e.shardWorkers)
	if e.shardClient == nil {
		e.shardClient = shardrpc.NewClient(nil)
	}
	return e
}

// catalog returns the current catalog snapshot. Queries run against the
// snapshot; a concurrent load publishes a new catalog without disturbing
// them.
func (e *Engine) catalog() *plan.Catalog {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cat
}

// newQueryEnv builds the per-query evaluation state over the current
// catalog snapshot.
func (e *Engine) newQueryEnv() *plan.Env {
	return plan.NewQueryEnv(e.catalog(), metrics.NewRecorder(), e.seed)
}

// publish is the one writer of the engine's catalog: it clones the current
// snapshot, lets register add to the clone, swaps the clone in and returns
// its generation — one copy-on-write swap, so a query sees the catalog
// before the call or after it, never a part. Do the expensive work (parsing,
// index building, mapping) before calling; register runs under the lock.
func (e *Engine) publish(register func(*plan.Catalog)) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	cat := e.cat.Clone()
	register(cat)
	e.cat = cat
	return cat.Generation()
}

// LoadFile shreds and indexes an XML file under the given name (the path's
// base name if name is empty).
//
// Deprecated: use LoadSource(FromFile(name, path)).
func (e *Engine) LoadFile(name, path string) error { return e.LoadSource(FromFile(name, path)) }

// LoadPacked maps a .roxd container under its stored document name.
//
// Deprecated: use LoadSource(FromPacked(path)).
func (e *Engine) LoadPacked(path string) error { return e.LoadSource(FromPacked(path)) }

// Documents returns the names of the currently loaded documents, sorted
// (collection shards included — every shard is also a document).
func (e *Engine) Documents() []string {
	return e.catalog().Names()
}

// Collections returns the names of the registered collections, sorted.
func (e *Engine) Collections() []string {
	return e.catalog().Collections()
}

// CollectionShards returns the shard document names of the named collection
// in registration (result) order.
func (e *Engine) CollectionShards(coll string) ([]string, error) {
	col, err := e.catalog().Collection(coll)
	if err != nil {
		return nil, translateErr(err)
	}
	return col.ShardNames(), nil
}

// Stats reports how a query evaluation spent its work. It is also the stats
// object every wire carries, so a new member is one field; see shardrpc.Stats.
type Stats = shardrpc.Stats

// ShardStats is one shard's share of a scatter-gather evaluation.
type ShardStats = shardrpc.ShardStats

// Result is a materialized query result: the serialized XML of every
// returned item, in query order, plus evaluation statistics. Aggregate
// queries (count, sum, avg, min, max) always carry exactly one item —
// avg/min/max over an empty sequence render as an empty item, XQuery's empty
// sequence. Rows.Collect produces a Result by draining a cursor; callers that
// want items incrementally iterate the cursor instead.
type Result struct {
	Items []string
	Stats Stats
}

// Execute evaluates a Request and returns a streaming Rows cursor: the join
// work (compile → plan-cache lookup → ROX optimize or replay) happens before
// Execute returns, but items are serialized — and, for collection queries,
// scatter-gathered across shards — incrementally as the cursor advances.
// Closing the cursor early cancels outstanding shard work; ctx cancels both
// the evaluation and the stream. Safe to call from any number of goroutines
// (each call gets its own cursor). Rows.Collect drains a cursor into a
// materialized Result. A malformed Request fails with ErrInvalidRequest.
func (e *Engine) Execute(ctx context.Context, req Request) (*Rows, error) {
	stmt, comp, fp, err := e.compile(req)
	if err != nil {
		return nil, err
	}
	// Route: a collection query scatters over its shards; anything else opens
	// the one execution cursor (rows.go) over the graph against the current
	// catalog snapshot and hands it to Rows as its row source — inline, so
	// the join has finished (and any evaluation error is returned) before
	// Execute returns.
	collection := len(comp.Collections) > 0
	switch {
	case req.Static && collection:
		return nil, fmt.Errorf("%w: query reads collection %q", ErrStaticCollection, comp.Collections[0])
	case req.Static:
		fp = "" // the baseline plans from statistics, never from the cache
	default:
		fp = e.planKey(comp, fp)
	}
	if collection {
		return e.executeCollection(ctx, e.catalog(), stmt, comp, fp)
	}
	env := e.newQueryEnv()
	env.Interrupt = ctx.Err
	c := e.newCursor(ctx, env, comp, fp)
	c.static = req.Static
	if err := c.open(); err != nil {
		return nil, err
	}
	return newRows(c.stats, c), nil
}

// compile settles what one Request runs: the statement — the Prepared one,
// or the statement cache's for Query (statement.go) — its compiled graph with
// the programmatic window applied when there is one, and a precomputed
// plan-cache key ("" = derive it; see planKey). The statement goes along for
// a collection query: remote shards ship its text instead of a serialized
// graph, local ones run its memoized rebinds. Every malformed Request fails
// here, wrapped in ErrInvalidRequest.
func (e *Engine) compile(req Request) (stmt *Prepared, comp *xquery.Compiled, fp string, err error) {
	switch stmt = req.Prepared; {
	case stmt != nil && req.Query != "":
		return nil, nil, "", fmt.Errorf("%w: set Query or Prepared, not both", ErrInvalidRequest)
	case stmt != nil && stmt.eng != e:
		return nil, nil, "", fmt.Errorf("%w: prepared statement belongs to a different engine", ErrInvalidRequest)
	case stmt != nil:
	case req.Query == "":
		return nil, nil, "", fmt.Errorf("%w: no query: set Query or Prepared", ErrInvalidRequest)
	default:
		if stmt, err = e.statement(req.Query); err != nil {
			return nil, nil, "", fmt.Errorf("%w: %w", ErrInvalidRequest, err)
		}
	}
	window, err := requestWindow(req.Limit, req.Offset)
	if err != nil {
		return nil, nil, "", err
	}
	if window == nil {
		return stmt, stmt.comp, stmt.fp, nil
	}
	if comp, err = overrideWindow(stmt.comp, window); err != nil {
		return nil, nil, "", err
	}
	return stmt, comp, "", nil // the window is part of the cache key: derive it
}

// overrideWindow applies a programmatic limit/offset window to a compiled
// query, replacing any limit clause of the query text.
func overrideWindow(comp *xquery.Compiled, window *plan.LimitSpec) (*xquery.Compiled, error) {
	if comp.Tail.Agg != nil {
		return nil, fmt.Errorf("%w: limit/offset cannot apply to an aggregate return (%s yields one item)", ErrInvalidRequest, comp.Return.String())
	}
	return comp.WithTailLimit(window), nil
}

// planKey settles the plan-cache key of one execution, in the one place
// every execution passes through: "" when the engine runs without a plan
// cache (which is what tells every layer below — cursor, remote shards, the
// shard wire — that there is nothing to look up, install or send), otherwise
// the precomputed key when the caller has one, otherwise cacheKey(comp).
func (e *Engine) planKey(comp *xquery.Compiled, precomputed string) string {
	switch {
	case e.cache == nil:
		return ""
	case precomputed != "":
		return precomputed
	}
	return cacheKey(comp)
}

// cacheKey derives the plan-cache key of a compiled query: the canonical
// Join Graph fingerprint extended with the tail's vertex lists and its
// order-by/aggregate/limit specs. The plan is a property of the graph alone
// — joingraph.Fingerprint is invariant under every tail spec, so plans
// transfer between tail variants — but replay verification compares
// projection-sensitive intermediate cardinalities (EagerProject reduces by
// the tail's required columns), so two queries sharing a graph while
// differing in order/aggregate/projection must key separately or their
// expectations would thrash each other's entries. The limit window cannot
// shift join-phase cardinalities (it applies strictly after them), but it is
// keyed all the same — conservatively, so each window's entry carries its
// own replay observations and a window change is a clean miss rather than a
// shared entry accumulating mixed history. The cost is one extra cold run
// per distinct window of a paginated query; after that every page replays.
func cacheKey(comp *xquery.Compiled) string {
	return fmt.Sprintf("%s|t:%v:%v:%v|o:%s|a:%s|l:%s", comp.Graph.Fingerprint(),
		comp.Tail.Project, comp.Tail.Sort, comp.Tail.Final,
		comp.Tail.Order, comp.Tail.Agg, comp.Tail.Limit)
}

// Explain compiles a query and returns the Join Graph rendering — what the
// run-time optimizer receives.
func (e *Engine) Explain(q string) (string, error) {
	comp, err := xquery.CompileString(q, xquery.CompileOptions{})
	if err != nil {
		return "", err
	}
	return comp.Graph.String(), nil
}

// XPath evaluates an absolute path, such as //person[@id='p2']/name, over
// one loaded document and returns the serialized result nodes in document
// order without duplicates. It executes the query
// for $n in doc(docName)path return $n through the optimizer and the plan
// cache like any other. The path is parsed on its own (xquery.ParsePath), so
// it cannot carry a clause into the query; one that does not parse or
// compile fails with ErrInvalidRequest.
//
// Value comparisons follow the compiler's rule (the "Join Graph" section of
// DESIGN.md): = and != compare strings, the range operators compare
// numbers and need a numeric literal, and an element compares through its
// text() children. A separate path evaluator answered three classes of paths
// differently before: //a[b = 1] compared numbers, so a b of "1.0" matched;
// //a[b < 'c'] compared strings, where it is now an error; and //a[b = '1']
// compared b's whole string value, so a b holding "1<c>2</c>" did not match.
func (e *Engine) XPath(docName, path string) ([]string, error) {
	res, err := e.xpath(docName, path, "")
	if err != nil {
		return nil, err
	}
	return res.Items, nil
}

// XPathCount returns the number of nodes XPath returns for the same path:
// it executes count($n) over the same for clause.
func (e *Engine) XPathCount(docName, path string) (int, error) {
	res, err := e.xpath(docName, path, "count")
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(res.Items[0])
}

// xpath executes for $n in doc(docName)path return $n, or agg($n).
//
//roxvet:ctxroot XPath and XPathCount take no ctx; a path runs over one loaded document, with no shards to cancel.
func (e *Engine) xpath(docName, path, agg string) (*Result, error) {
	steps, err := xquery.ParsePath(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	q := &xquery.Query{
		Fors:   []xquery.ForClause{{Var: "n", Path: xquery.PathExpr{Doc: docName, Steps: steps}}},
		Return: xquery.ReturnClause{Vars: []string{"n"}, Agg: agg},
	}
	comp, err := xquery.Compile(q, xquery.CompileOptions{})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	stmt := &Prepared{eng: e, comp: comp, text: q.String(), fp: cacheKey(comp)}
	rows, err := e.Execute(context.Background(), Request{Prepared: stmt})
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// Prepared is a compiled query bound to an Engine: Prepare pays the lexing,
// parsing and Join Graph Isolation cost once, and every Execute of a
// Request{Prepared: p} goes straight to the plan-cache lookup — with a
// Request window overriding the text's limit clause, so one statement serves
// every page of a paginated result. The compiled graph is immutable after
// compilation, so a Prepared is safe for concurrent use by any number of
// goroutines — one Prepared per distinct query text, executed by every
// request, is the server hot path, and the shape an engine with a plan cache
// gives Request{Query} by itself (its statement cache).
type Prepared struct {
	eng  *Engine
	comp *xquery.Compiled
	text string
	fp   string

	// shards memoizes comp rebound to each shard document the statement ran
	// on, by shard name (forShard, statement.go); starts, what its windows'
	// last runs showed, oldest first: where an ordered window over remote
	// shards started, how many shards a plain window reached (windowStart,
	// shard.go).
	mu     sync.Mutex
	shards map[string]*xquery.Compiled
	starts []windowStart
}

// Prepare compiles an XQuery once for repeated execution on this engine. The
// statement evaluates over whatever corpus the engine holds at each Execute
// (documents loaded after Prepare are visible).
func (e *Engine) Prepare(q string) (*Prepared, error) {
	comp, err := xquery.CompileString(q, xquery.CompileOptions{})
	if err != nil {
		return nil, err
	}
	return &Prepared{eng: e, comp: comp, text: q, fp: cacheKey(comp)}, nil
}

// Text returns the query text the statement was prepared from.
func (p *Prepared) Text() string { return p.text }

// Fingerprint returns the statement's plan-cache key: the canonical Join
// Graph fingerprint extended with the tail (paired at each execution with
// the newest registration stamp among the documents the graph reads).
func (p *Prepared) Fingerprint() string { return p.fp }

// Explain returns the compiled Join Graph rendering.
func (p *Prepared) Explain() string { return p.comp.Graph.String() }

// CacheStats is a point-in-time view of the engine's plan cache.
type CacheStats struct {
	// Enabled is false when the engine runs with WithPlanCache(0); all other
	// fields are then zero.
	Enabled bool
	// Size and Capacity are the current and maximum entry counts of the LRU.
	Size, Capacity int
	// Counters breaks down lookups and invalidations; see
	// metrics.CacheSnapshot.
	Counters metrics.CacheSnapshot
}

// CacheStats reports the plan cache's size and event counters. Safe to call
// concurrently with queries.
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return CacheStats{
		Enabled:  true,
		Size:     e.cache.Len(),
		Capacity: e.cache.Capacity(),
		Counters: e.cache.Counters().Snapshot(),
	}
}

// Version is the library version. The roxserve HTTP surface is versioned
// separately: every endpoint lives under /v1/ (see cmd/roxserve and the
// "Shard-server wire contract" section of DESIGN.md).
const Version = "1.1.0"

// ErrNoSuchDocument is the sentinel for queries addressing a document that
// was never loaded; match it with errors.Is. The concrete error carries the
// document name — retrieve it with errors.As:
//
//	var nse *NoSuchDocumentError
//	if errors.As(err, &nse) { log.Println(nse.Name) }
var ErrNoSuchDocument = errors.New("rox: no such document")

// ErrInvalidRequest is the sentinel every malformed Request wraps — both or
// neither of Query and Prepared set, query text that does not compile, a
// statement prepared on another engine, a negative Limit or Offset, a window
// on an aggregate return (the text's limit clause or the Request's). It is
// the caller's mistake, not the engine's; match it with errors.Is.
var ErrInvalidRequest = errors.New("rox: invalid request")

// NoSuchDocumentError reports which document a failing query referred to.
// It matches ErrNoSuchDocument under errors.Is.
type NoSuchDocumentError struct {
	Name string
}

// Error renders the failure with the document name.
func (e *NoSuchDocumentError) Error() string {
	return fmt.Sprintf("rox: document %q not loaded", e.Name)
}

// Is makes errors.Is(err, ErrNoSuchDocument) match.
func (e *NoSuchDocumentError) Is(target error) bool { return target == ErrNoSuchDocument }

// ErrNoSuchCollection is the sentinel for collection() queries addressing a
// collection that was never registered; match it with errors.Is, retrieve the
// name with errors.As on NoSuchCollectionError.
var ErrNoSuchCollection = errors.New("rox: no such collection")

// ErrStaticCollection is returned for Request.Static collection() queries:
// the classical compile-time baseline evaluates single documents only —
// per-shard adaptivity is exactly what the static plan cannot express.
var ErrStaticCollection = errors.New("rox: static baseline does not support collection()")

// ErrNonNumericAggregate is the sentinel for sum/avg/min/max queries whose
// aggregate path reached a value that does not atomize to a finite number —
// a query-vs-data mistake, not an engine fault. Match it with errors.Is; the
// wrapped message carries the offending value and its node position.
var ErrNonNumericAggregate = plan.ErrNonNumeric

// NoSuchCollectionError reports which collection a failing query referred to.
// It matches ErrNoSuchCollection under errors.Is.
type NoSuchCollectionError struct {
	Name string
}

// Error renders the failure with the collection name.
func (e *NoSuchCollectionError) Error() string {
	return fmt.Sprintf("rox: collection %q not loaded", e.Name)
}

// Is makes errors.Is(err, ErrNoSuchCollection) match.
func (e *NoSuchCollectionError) Is(target error) bool { return target == ErrNoSuchCollection }

// translateErr maps internal execution errors onto the package's typed
// errors — the catalog's unknown-document failure onto NoSuchDocumentError
// (so doc("missing.xml") in a query matches ErrNoSuchDocument just like the
// XPath entry points) and unknown collections onto NoSuchCollectionError.
func translateErr(err error) error {
	var ude *plan.UnknownDocumentError
	if errors.As(err, &ude) {
		return &NoSuchDocumentError{Name: ude.Name}
	}
	var uce *plan.UnknownCollectionError
	if errors.As(err, &uce) {
		return &NoSuchCollectionError{Name: uce.Name}
	}
	return err
}
