// Package core implements ROX, the run-time XQuery optimizer of the paper:
// Algorithm 1 (the optimize/execute loop that materializes partial results
// and keeps per-vertex samples, cardinalities and edge weights up to date)
// and Algorithm 2 (chain sampling, the look-ahead that explores path
// segments branching off the cheapest edge until one is provably superior).
//
// ROX deliberately has no cost model: every decision derives from observed
// (sampled) cardinalities over the *current* intermediate data, which is what
// makes it robust against correlated data (Sec 3).
package core

import (
	"fmt"
	"math"

	"repro/internal/joingraph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/table"
)

// Options tune the optimizer. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	// Tau is the sample size τ (default 100, Sec 3: "we use, throughout the
	// algorithm, a default sample size of 100").
	Tau int
	// MaxRounds caps chain-sampling rounds per exploration as a safety
	// bound; the algorithm normally stops on its own conditions.
	MaxRounds int
	// BeamWidth bounds the number of candidate path segments kept per
	// chain-sampling round (cheapest first). The paper reports at most 15
	// concurrently explored segments on the DBLP query; in dense
	// join-equivalence graphs the unbounded walk set grows exponentially,
	// so the beam keeps exploration cost linear. 0 uses the default (16).
	BeamWidth int

	// Greedy disables chain sampling: always execute the minimum-weight
	// edge (ablation of the paper's look-ahead).
	Greedy bool
	// NoResample disables re-sampling of incident edges after an execution;
	// instead old weights are scaled by the endpoint's cardinality change,
	// which is exactly the independence assumption the paper argues against
	// (ablation).
	NoResample bool
	// FixedCutoff keeps the chain-sampling cut-off at τ instead of growing
	// it by τ per round (ablation of the front-bias mitigation, Algorithm 2
	// line 12).
	FixedCutoff bool
	// NoPathReorder executes a chosen path segment in sampled order instead
	// of re-optimizing the segment order by current weights (Sec 3.2 treats
	// the path "as a separate Join Graph" and re-optimizes it).
	NoPathReorder bool

	// The remaining options implement the paper's Sec 6 future-work
	// extensions.

	// TimeWeights multiplies every edge weight by the measured per-tuple
	// wall time of its sampled execution, so "deciding which path segment
	// to execute naturally takes into account many more characteristics of
	// operator execution" (Sec 6). Wall time is machine-dependent: plans
	// may vary across runs; results never do.
	TimeWeights bool
	// MaterializeLimit, when positive, runs the whole optimization loop
	// with edge executions cut off at roughly this many pairs — the "run
	// ROX with samples instead of the complete data" extension (Sec 6).
	// The discovered plan is then re-executed once on the full data. All
	// optimization work is charged as sampling cost.
	MaterializeLimit int
	// EagerProject pushes projection and Distinct between the joins
	// (Sec 6): after every execution, columns of vertices with no
	// remaining edges are dropped and the intermediate deduplicated.
	EagerProject bool

	// Trace records the run's decisions in Result.Trace (Table 2 data).
	// Without it the trace stays empty and the run allocates none of it;
	// the decisions are the same either way.
	Trace bool
}

// DefaultOptions returns the paper's configuration (τ = 100).
func DefaultOptions() Options {
	return Options{Tau: 100, MaxRounds: 64, BeamWidth: 16}
}

// Result reports what a ROX run did: the finished join's plan.RunStats (with
// MaterializeLimit set, those of the final full re-execution), the plan, the
// trace and the sampling/execution cost split.
type Result struct {
	plan.RunStats
	// Plan is the executed edge order; re-running it through plan.Run gives
	// the paper's "pure plan (excl. sampling)" measurement.
	Plan plan.Plan
	// Trace records every exploration and execution step (Table 2 data)
	// when Options.Trace is set; otherwise it is empty.
	Trace Trace
	// SampleCost and ExecCost split the run's work between optimizer
	// sampling and query execution (the basis of Figs 6–8).
	SampleCost, ExecCost metrics.Cost
}

// Optimizer carries the run-time state of Algorithm 1 for one Join Graph.
type Optimizer struct {
	env *plan.Env
	g   *joingraph.Graph
	opt Options

	runner   *plan.Runner
	incident [][]*joingraph.Edge // per vertex, g.EdgesOf(v) computed once

	weights  map[int]float64 // edge id → w(e); absent = unweighted
	cards    map[int]int     // vertex id → card(v)
	samples  map[int]sampleEntry
	concepts map[int]*table.Table // conceptual (index extent) tables

	joinUF  *joingraph.UnionFind
	implied map[int]bool // join edges skipped as transitively implied

	steps []plan.Step
	chain *chainScratch // the sampling's working memory, nil until the first sample
	trace *Trace        // nil unless Options.Trace

	// The loop's edge lists, reused from iteration to iteration: the
	// pending edges (remainingEdges) and the segment executing
	// (executePath).
	remaining, segment []int
}

type sampleEntry struct {
	basedOn *table.Table // the T(v) snapshot the sample was drawn from
	s       *table.Table
}

// New prepares an optimizer for graph g in environment env. The env must be
// owned by this evaluation (its recorder and random stream are mutated); the
// Catalog behind it may be shared with any number of concurrent evaluations.
func New(env *plan.Env, g *joingraph.Graph, opt Options) (*Optimizer, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opt.Tau <= 0 {
		return nil, fmt.Errorf("core: Tau must be positive, got %d", opt.Tau)
	}
	if opt.MaxRounds <= 0 {
		opt.MaxRounds = 64
	}
	if opt.BeamWidth <= 0 {
		opt.BeamWidth = 16
	}
	o := &Optimizer{
		env:      env,
		g:        g,
		opt:      opt,
		runner:   plan.NewRunner(env, g),
		incident: incidence(g),
		weights:  make(map[int]float64),
		cards:    make(map[int]int),
		samples:  make(map[int]sampleEntry),
		concepts: make(map[int]*table.Table),
		joinUF:   joingraph.NewUnionFind(len(g.Vertices)),
		implied:  make(map[int]bool),
	}
	if opt.Trace {
		o.trace = &Trace{}
	}
	return o, nil
}

// incidence returns every vertex's incident edges in edge-id order — what
// g.EdgesOf answers — from one backing array, so the optimizer's loops look
// them up without allocating.
func incidence(g *joingraph.Graph) [][]*joingraph.Edge {
	all := make([]*joingraph.Edge, 0, 2*len(g.Edges))
	out := make([][]*joingraph.Edge, len(g.Vertices))
	for v := range g.Vertices {
		start := len(all)
		for _, e := range g.Edges {
			if e.Touches(v) {
				all = append(all, e)
			}
		}
		out[v] = all[start:len(all):len(all)]
	}
	return out
}

// Run executes the full ROX loop (Algorithm 1) and applies the tail. It is
// the one-call entry point:
//
//	rel, res, err := core.Run(env, g, tail, core.DefaultOptions())
func Run(env *plan.Env, g *joingraph.Graph, tail *plan.Tail, opt Options) (*table.Relation, *Result, error) {
	o, err := New(env, g, opt)
	if err != nil {
		return nil, nil, err
	}
	return o.Execute(tail)
}

// Execute runs Algorithm 1 to completion and applies the tail.
//
// With MaterializeLimit set, the optimization loop runs on truncated
// intermediates (charged entirely as sampling work) and the discovered plan
// is re-executed once on the full data.
func (o *Optimizer) Execute(tail *plan.Tail) (*table.Relation, *Result, error) {
	defer o.recycleChain()
	rec := o.env.Rec
	startSample := rec.CostOf(metrics.PhaseSample)
	startExec := rec.CostOf(metrics.PhaseExecute)

	required := tail.Required(o.g)
	o.runner.SetTail(tail, required, o.opt.EagerProject)
	sampledSearch := o.opt.MaterializeLimit > 0
	if sampledSearch {
		o.runner.ExecLimit = o.opt.MaterializeLimit
		prev := rec.SetPhase(metrics.PhaseSample)
		defer rec.SetPhase(prev)
	}

	if err := o.phase1(); err != nil {
		return nil, nil, err
	}
	for {
		if err := o.env.CheckInterrupt(); err != nil {
			return nil, nil, err
		}
		remaining := o.remainingEdges()
		if len(remaining) == 0 {
			break
		}
		path, err := o.chainSample(remaining)
		if err != nil {
			return nil, nil, err
		}
		if err := o.executePath(path); err != nil {
			return nil, nil, err
		}
	}

	res := &Result{Plan: plan.Plan{Steps: o.steps}}
	if o.trace != nil {
		res.Trace = *o.trace
	}
	var out *table.Relation
	var err error
	if sampledSearch {
		// The loop ran on truncated intermediates; execute the found plan
		// once on the full data through the same replay path the plan cache
		// uses, so the recorded EdgeRows expectations and later replay
		// observations share one execution semantics.
		rec.SetPhase(metrics.PhaseExecute)
		var full *plan.RunStats
		if out, full, err = plan.RunWithConfig(o.env, o.g, &res.Plan, tail,
			plan.RunConfig{EagerProject: o.opt.EagerProject}); err == nil {
			res.RunStats = *full
		}
	} else {
		out, res.RunStats, err = o.runner.Finish(tail, required)
	}
	if err != nil {
		return nil, nil, err
	}
	res.SampleCost = rec.CostOf(metrics.PhaseSample).Sub(startSample)
	res.ExecCost = rec.CostOf(metrics.PhaseExecute).Sub(startExec)
	return out, res, nil
}

// phase1 implements Algorithm 1 lines 1–4: draw index samples for every
// index-selectable vertex and weigh every edge with at least one sampled
// endpoint.
func (o *Optimizer) phase1() error {
	prev := o.env.Rec.SetPhase(metrics.PhaseSample)
	defer o.env.Rec.SetPhase(prev)
	for _, v := range o.g.Vertices {
		if !o.canSample(v.ID) {
			continue
		}
		ct, err := o.conceptualTable(v.ID)
		if err != nil {
			return err
		}
		o.cards[v.ID] = ct.Len()
		s := ct.Sample(o.opt.Tau, o.env.Rand)
		o.samples[v.ID] = sampleEntry{basedOn: ct, s: s}
		o.env.Rec.ChargeTuples(s.Len())
	}
	for _, e := range o.g.Edges {
		if o.runner.Redundant(e.ID) {
			continue
		}
		if w, ok, err := o.estimateCard(e); err != nil {
			return err
		} else if ok {
			o.weights[e.ID] = w
			o.trace.addWeight(e.ID, w)
		}
	}
	return nil
}

// canSample reports whether S(v) can be drawn without executing anything:
// index-selectable vertices (elements, attributes, predicate texts), roots
// (trivial singleton), and anything already materialized.
func (o *Optimizer) canSample(v int) bool {
	if o.runner.Table(v) != nil {
		return true
	}
	vert := o.g.Vertices[v]
	return vert.Kind == joingraph.VRoot || vert.IndexSelectable()
}

// conceptualTable returns the full node set of an unmaterialized vertex as a
// read-only table over the index extent (no copy).
func (o *Optimizer) conceptualTable(v int) (*table.Table, error) {
	if t := o.runner.Table(v); t != nil {
		return t, nil
	}
	if t := o.concepts[v]; t != nil {
		return t, nil
	}
	nodes, doc, err := o.env.VertexNodes(o.g.Vertices[v])
	if err != nil {
		return nil, err
	}
	t := table.NewTable(doc, nodes)
	o.concepts[v] = t
	return t, nil
}

// currentSample returns S(v), re-drawing it if T(v) changed since the last
// sample (Algorithm 1 line 16 keeps S(v) in sync after executions).
func (o *Optimizer) currentSample(v int) (*table.Table, error) {
	base, err := o.conceptualTable(v)
	if err != nil {
		return nil, err
	}
	if e, ok := o.samples[v]; ok && e.basedOn == base {
		return e.s, nil
	}
	s := base.Sample(o.opt.Tau, o.env.Rand)
	o.samples[v] = sampleEntry{basedOn: base, s: s}
	o.env.Rec.ChargeTuples(s.Len())
	o.cards[v] = base.Len()
	return s, nil
}

// card returns card(v): the current table size when materialized, the index
// extent otherwise; ok is false for vertices whose extent is unknown.
func (o *Optimizer) card(v int) (int, bool) {
	if c := o.runner.Card(v); c >= 0 {
		return c, true
	}
	if c, ok := o.cards[v]; ok {
		return c, true
	}
	return 0, false
}

// estimateCard implements EstimateCard(e) of Sec 3: sample the edge from its
// smaller sampled endpoint against the other endpoint's current table and
// extrapolate linearly. ok is false when neither endpoint can provide a
// sample yet.
func (o *Optimizer) estimateCard(e *joingraph.Edge) (float64, bool, error) {
	prev := o.env.Rec.SetPhase(metrics.PhaseSample)
	defer o.env.Rec.SetPhase(prev)

	// Choose the sampled endpoint with the smallest cardinality as the
	// sampling side v; a sample from a smaller table represents the data
	// better (Sec 3).
	v := -1
	var vCard int
	for _, cand := range []int{e.From, e.To} {
		if !o.canSample(cand) {
			continue
		}
		c, ok := o.card(cand)
		if !ok {
			if ct, err := o.conceptualTable(cand); err == nil {
				c = ct.Len()
				o.cards[cand] = c
			} else {
				return 0, false, err
			}
		}
		if v < 0 || c < vCard {
			v, vCard = cand, c
		}
	}
	if v < 0 {
		return 0, false, nil
	}
	if vCard == 0 {
		return 0, true, nil
	}
	C, err := o.currentSample(v)
	if err != nil {
		return 0, false, err
	}
	if C.Len() == 0 {
		return 0, true, nil
	}
	other := e.Other(v)
	inner, err := o.innerFor(e, other)
	if err != nil {
		return 0, false, err
	}
	sw := metrics.Start()
	pairs := &o.chainScratch().pairs
	consumed, err := o.runner.PairsInto(pairs, e, v, C, inner, o.opt.Tau)
	if err != nil {
		return 0, false, err
	}
	est := ops.EstimateFull(pairs.Len(), consumed, C.Len())
	w := float64(vCard) / float64(C.Len()) * est
	if o.opt.TimeWeights {
		// Sec 6: fold the observed per-tuple execution time of the sampled
		// operator into the weight, so cheap operators (e.g. a suffix-scan
		// following step) rank below equally-sized expensive ones. The
		// factor is measured nanoseconds per processed tuple; all edges
		// are scaled the same way, keeping weights comparable.
		work := consumed + pairs.Len()
		if work > 0 {
			perTuple := float64(sw.Elapsed().Nanoseconds()) / float64(work)
			if perTuple < 1 {
				perTuple = 1
			}
			w *= perTuple
		}
	}
	return w, true, nil
}

// innerFor returns the inner-side table for sampling edge e towards vertex
// other: the materialized T(other) when available, the conceptual extent for
// steps, nil (= unrestricted index probe) for equi-joins.
func (o *Optimizer) innerFor(e *joingraph.Edge, other int) (*table.Table, error) {
	if t := o.runner.Table(other); t != nil {
		return t, nil
	}
	if e.Kind == joingraph.JoinEdge {
		return nil, nil
	}
	return o.conceptualTable(other)
}

// pending reports whether edge id is unexecuted, non-redundant and not
// implied; after remainingEdges, exactly the edges it lists.
func (o *Optimizer) pending(id int) bool {
	return !o.runner.Executed(id) && !o.runner.Redundant(id) && !o.implied[id]
}

// remainingEdges lists the pending edges, valid until the next call. Join
// edges whose endpoints are already connected through executed joins are
// first marked implied (value equality is transitive) and dropped.
func (o *Optimizer) remainingEdges() []int {
	out := o.remaining[:0]
	for _, e := range o.g.Edges {
		if !o.pending(e.ID) {
			continue
		}
		if e.Kind == joingraph.JoinEdge && o.joinUF.Find(e.From) == o.joinUF.Find(e.To) {
			o.implied[e.ID] = true
			o.trace.addImplied(e.ID)
			continue
		}
		out = append(out, e.ID)
	}
	o.remaining = out
	return out
}

// executePath executes the edges of the chosen path segment (Algorithm 1
// lines 7–19). Unless NoPathReorder is set, the segment is treated as a
// small Join Graph of its own: the cheapest remaining segment edge (by
// current weight) runs first, and weights refresh in between. It copies
// path first: the chain scratch holds it, and the segment shrinks as it
// runs.
func (o *Optimizer) executePath(path []int) error {
	o.segment = append(o.segment[:0], path...)
	remaining := o.segment
	for len(remaining) > 0 {
		pick := 0
		if !o.opt.NoPathReorder {
			best := math.Inf(1)
			for i, id := range remaining {
				w, ok := o.weights[id]
				if !ok {
					w = math.Inf(1)
				}
				if w < best {
					best, pick = w, i
				}
			}
		}
		id := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		if err := o.execEdge(id); err != nil {
			return err
		}
	}
	return nil
}

// execEdge fully executes one edge and refreshes the statistics of its
// endpoints and their incident edges (Algorithm 1 lines 13–19).
func (o *Optimizer) execEdge(id int) error {
	e := o.g.Edges[id]
	if o.runner.Executed(id) || o.implied[id] {
		return nil
	}
	if e.Kind == joingraph.JoinEdge && o.joinUF.Find(e.From) == o.joinUF.Find(e.To) {
		o.implied[id] = true
		o.trace.addImplied(id)
		return nil
	}

	sizeOf := func(v int) int {
		if c, ok := o.card(v); ok {
			return c
		}
		ct, err := o.conceptualTable(v)
		if err != nil {
			return 1 << 30
		}
		return ct.Len()
	}
	fromSize, toSize := sizeOf(e.From), sizeOf(e.To)
	reverse := toSize < fromSize
	// The paper's prototype tries every applicable join operator on a
	// sample; this picks by the observed sizes: nested-loop index lookup for
	// a small context side, a hash join otherwise.
	alg := ops.JoinHash
	if e.Kind == joingraph.JoinEdge {
		ctx, inner := fromSize, toSize
		if reverse {
			ctx, inner = toSize, fromSize
		}
		if ctx*4 < inner {
			alg = ops.JoinNLIndex
		}
	}

	oldCards := map[int]int{}
	for _, v := range []int{e.From, e.To} {
		if c, ok := o.card(v); ok {
			oldCards[v] = c
		}
	}

	// The edge's weight is the optimizer's estimate of its result size: its
	// pair buffer reserves that much instead of growing from empty. Time
	// weights are not cardinalities.
	if w, ok := o.weights[id]; ok && w >= 1 && !o.opt.TimeWeights {
		o.runner.Reserve(id, int(min(w, math.MaxInt32)))
	}
	rows, err := o.runner.ExecEdge(e, reverse, alg)
	if err != nil {
		return err
	}
	o.steps = append(o.steps, plan.Step{EdgeID: id, Reverse: reverse, Alg: alg})
	o.trace.addExec(id, reverse, alg, rows)
	if e.Kind == joingraph.JoinEdge {
		o.joinUF.Union(e.From, e.To)
	}
	delete(o.weights, id)

	// Lines 14–19: update tables (done inside the runner), samples and
	// cardinalities, then re-sample all unexecuted incident edges. The
	// re-sampling — rather than scaling old weights by the hit ratio — is
	// what lets ROX detect arbitrary correlations.
	prev := o.env.Rec.SetPhase(metrics.PhaseSample)
	defer o.env.Rec.SetPhase(prev)
	for _, v := range []int{e.From, e.To} {
		o.cards[v] = o.runner.Card(v)
		if _, err := o.currentSample(v); err != nil {
			return err
		}
	}
	reweighed := map[int]bool{}
	for _, v := range []int{e.From, e.To} {
		for _, e2 := range o.incident[v] {
			if o.runner.Executed(e2.ID) || o.runner.Redundant(e2.ID) || o.implied[e2.ID] || reweighed[e2.ID] {
				continue
			}
			reweighed[e2.ID] = true
			if o.opt.NoResample {
				// Ablation: independence assumption. Scale the old weight
				// by the endpoint's cardinality reduction.
				if old, ok := oldCards[v]; ok && old > 0 {
					if w, has := o.weights[e2.ID]; has {
						o.weights[e2.ID] = w * float64(o.cards[v]) / float64(old)
						continue
					}
				}
			}
			if w, ok, err := o.estimateCard(e2); err != nil {
				return err
			} else if ok {
				o.weights[e2.ID] = w
				o.trace.addWeight(e2.ID, w)
			}
		}
	}
	return nil
}
