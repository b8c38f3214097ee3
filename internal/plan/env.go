// Package plan provides the execution layer under both the static planner
// baselines and the ROX run-time optimizer: the immutable document/index
// Catalog, the per-query Env (recorder + sampling random stream over a shared
// catalog), vertex-table materialization via index lookups, pairwise edge
// execution, the component-relation bookkeeping that materializes
// intermediate results, static Plan objects (an ordered list of edge
// executions) and the tail (project → distinct → sort → key-order → limit
// window → aggregate/project) that restores XQuery semantics — order-by keys,
// limit/offset windows and partial-aggregate fold states included
// (tailkey.go).
package plan

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/index"
	"repro/internal/joingraph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/table"
	"repro/internal/xmltree"
)

// Env is the per-query run-time environment: a view of an immutable shared
// Catalog (documents + indices) plus the mutable per-evaluation state — the
// cost recorder, the random source driving the sampling optimizer, and an
// optional cancellation hook.
//
// The split makes the concurrency contract explicit: the Catalog half is
// read-only at query time and may back any number of simultaneous
// evaluations, while an Env must be owned by exactly one evaluation (the
// recorder and random stream are stateful). Create a fresh Env per query via
// NewQueryEnv; it is cheap: a few pointers and a *rand.Rand whose generator
// state is only created by its first draw, so a replay, which never samples,
// never pays for it.
type Env struct {
	cat *Catalog

	// Rec receives the cost of every operator invocation.
	Rec *metrics.Recorder
	// Rand drives all sampling; seed it for reproducible runs.
	Rand *rand.Rand
	// Interrupt, when non-nil, is polled between operator executions and
	// optimizer rounds; a non-nil return aborts the evaluation with that
	// error. Context-based cancellation plugs in here (see rox.Execute).
	Interrupt func() error
}

// NewQueryEnv returns a per-query Env over a shared catalog with the given
// recorder and a deterministic random source. This is the entry point for
// concurrent evaluation: one catalog, one Env per in-flight query.
func NewQueryEnv(cat *Catalog, rec *metrics.Recorder, seed int64) *Env {
	if cat == nil {
		cat = NewCatalog()
	}
	if rec == nil {
		rec = metrics.NewRecorder()
	}
	return &Env{
		cat:  cat,
		Rec:  rec,
		Rand: rand.New(&lazySource{seed: seed}),
	}
}

// lazySource is rand.NewSource(seed) created on the first draw: the same
// stream, draw for draw, without the generator's ≈ 5 KB of state for an Env
// that never samples.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) get() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64   { return s.get().Int63() }
func (s *lazySource) Uint64() uint64 { return s.get().Uint64() }

// Seed restarts the stream at seed; it stays lazy until the next draw.
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

// NewEnv returns an Env over its own private (initially empty) catalog, with
// the given recorder and a deterministic random source. This is the
// single-owner convenience constructor used by tests, benchmarks and the
// CLI tools; engines serving concurrent queries build a Catalog once and use
// NewQueryEnv instead.
func NewEnv(rec *metrics.Recorder, seed int64) *Env {
	return NewQueryEnv(NewCatalog(), rec, seed)
}

// Catalog returns the shared catalog backing this environment.
func (env *Env) Catalog() *Catalog { return env.cat }

// CheckInterrupt polls the cancellation hook; it returns nil when no hook is
// installed. Operators and optimizer loops call it between units of work.
func (env *Env) CheckInterrupt() error {
	if env.Interrupt != nil {
		return env.Interrupt()
	}
	return nil
}

// WithScratchRecorder returns a copy of env charging to a fresh recorder,
// sharing the catalog, random stream and cancellation hook. Optimizer
// statistics modules use it to do exploratory work without polluting the
// query's cost accounting.
func (env *Env) WithScratchRecorder() *Env {
	out := *env
	out.Rec = metrics.NewRecorder()
	return &out
}

// AddDocument registers a document in the backing catalog and builds its
// indices. Only valid while the catalog has a single owner (loading phase);
// see the Catalog doc comment.
func (env *Env) AddDocument(d *xmltree.Document) {
	env.cat.AddDocument(d)
}

// AddIndexed registers a document with a pre-built index in the backing
// catalog (lets callers share index builds across many Envs). Single-owner
// only, like AddDocument.
func (env *Env) AddIndexed(ix *index.Index) {
	env.cat.AddIndexed(ix)
}

// Doc returns the registered document with the given name.
func (env *Env) Doc(name string) (*xmltree.Document, error) {
	return env.cat.Doc(name)
}

// Index returns the index of the named document.
func (env *Env) Index(name string) (*index.Index, error) {
	return env.cat.Index(name)
}

// VertexNodes returns the conceptual node set of vertex v straight from the
// indices, without copying and charging only the index-lookup cost. Only a
// node() vertex merges two extents (elements and texts) into a new slice,
// and a != predicate or a value test on @* filters one. The
// slice is read-only (owned by the index). The ROX optimizer uses this as
// the inner side of sampled operators; actual materialization goes through
// VertexTable.
func (env *Env) VertexNodes(v *joingraph.Vertex) ([]xmltree.NodeID, *xmltree.Document, error) {
	ix, err := env.Index(v.Doc)
	if err != nil {
		return nil, nil, err
	}
	d := ix.Doc()
	var nodes []xmltree.NodeID
	switch v.Kind {
	case joingraph.VRoot:
		nodes = []xmltree.NodeID{d.Root()}
	case joingraph.VElem:
		if v.QName == "" {
			nodes = ix.AllElements()
		} else {
			nodes = ix.Elements(v.QName)
		}
	case joingraph.VNode:
		nodes = slices.Concat(ix.AllElements(), ix.Texts())
		slices.Sort(nodes)
	case joingraph.VText:
		switch v.Pred.Kind {
		case joingraph.PredEqString:
			nodes = ix.TextEq(v.Pred.Str)
		case joingraph.PredRange:
			nodes = ix.TextRange(v.Pred.Op, v.Pred.Num)
		default:
			nodes = env.filterValue(d, ix.Texts(), v.Pred)
		}
	case joingraph.VAttr:
		switch {
		case v.QName == "":
			nodes = env.filterValue(d, ix.AllAttributes(), v.Pred)
		case v.Pred.Kind == joingraph.PredEqString:
			nodes = ix.AttrEq(v.QName, v.Pred.Str)
		default:
			nodes = env.filterValue(d, ix.AttributesByName(v.QName), v.Pred)
		}
	default:
		return nil, nil, fmt.Errorf("plan: vertex %s has unknown kind", v.Label())
	}
	env.Rec.ChargeTuples(1) // index lookup
	return nodes, d, nil
}

// filterValue keeps the nodes whose own value satisfies p; without a
// predicate it returns nodes itself.
func (env *Env) filterValue(d *xmltree.Document, nodes []xmltree.NodeID, p joingraph.Pred) []xmltree.NodeID {
	switch p.Kind {
	case joingraph.PredEqString:
		return ops.Select(env.Rec, nodes, func(n xmltree.NodeID) bool { return d.Value(n) == p.Str })
	case joingraph.PredNeString:
		return ops.Select(env.Rec, nodes, func(n xmltree.NodeID) bool { return d.Value(n) != p.Str })
	case joingraph.PredRange:
		return ops.Select(env.Rec, nodes, func(n xmltree.NodeID) bool {
			f, ok := d.NumberValue(n)
			return ok && p.Op.Compare(f, p.Num)
		})
	default:
		return nodes
	}
}

// VertexTable materializes T(v), the table of all nodes satisfying vertex v,
// through an index lookup (Algorithm 1 lines 8–12, generalized to attribute
// and range-predicate vertices). The result is duplicate-free and in
// document order, and it is a view: its Nodes are the index extent itself,
// shared with every other query, which tables being read-only makes safe.
// The materialization is still charged per tuple, as the cost model has it.
func (env *Env) VertexTable(v *joingraph.Vertex) (*table.Table, error) {
	nodes, d, err := env.VertexNodes(v)
	if err != nil {
		return nil, err
	}
	env.Rec.ChargeTuples(len(nodes))
	return table.NewTable(d, nodes), nil
}

// probeFor returns the value-index probe of a text/attr vertex, used as the
// inner side of an index join: the nodes of v's document and kind (and
// attribute name) whose own value equals the argument, in document order.
// It ignores v's predicate; the joins restrict the hits to the inner table
// where that table is not the whole predicate-free extent.
func (env *Env) probeFor(v *joingraph.Vertex) (func(string) []xmltree.NodeID, error) {
	ix, err := env.Index(v.Doc)
	if err != nil {
		return nil, err
	}
	switch v.Kind {
	case joingraph.VText:
		return ops.TextProbe(ix), nil
	case joingraph.VAttr:
		return ops.AttrProbe(ix, v.QName), nil
	default:
		return nil, fmt.Errorf("plan: vertex %s is not probeable", v.Label())
	}
}
