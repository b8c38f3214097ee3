package core

import (
	"math"
	"slices"

	"repro/internal/conc"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/table"
	"repro/internal/xmltree"
)

// pathState is one candidate path segment during chain sampling, carrying
// the properties of Algorithm 2: StopVertex, the input sample I(p) for the
// next round, the accumulated cost estimate, and the scale factor sf. Its
// edges and input live in the run's chainScratch.
type pathState struct {
	edges []int       // edge ids in traversal order; never written once built
	stop  int         // StopVertex(p)
	input table.Table // I(p): the sampled tuples flowing through the path
	cost  float64     // estimated combined intermediate cardinality
	sf    float64     // join hit ratio of the last extension
}

// chainScratch is the sampling's working memory. An optimizer takes one from
// chainPool on its first sample (Optimizer.chainScratch), reuses it for every
// edge weighed and every round and exploration of chain sampling, and hands
// it back when Execute returns (recycleChain), so a run in steady state
// samples and builds its candidates without allocating. What is reused when:
//   - pairs is the buffer every sampled operator writes into, through
//     Runner.PairsInto (estimateCard and chainSample). It is read before the
//     next sample; chain sampling copies the tuples it keeps into inputs.
//   - paths and next are the two candidate lists, one read and one filled
//     per round. They hold the pathStates themselves: building a candidate
//     writes a slot, it allocates none.
//   - edges is an append-only arena of the candidates' edge lists, reset when
//     an exploration starts. A list is never written once built. The one
//     chainSample returns is read, and copied by executePath, before the next
//     exploration resets the arena; the trace copies the lists it keeps.
//   - inputs are two arenas for the inputs I(p), alternated by round and
//     reset when a round starts. A round reads only its paths' inputs, which
//     the round before wrote into the other arena (the first round reads the
//     source sample, which is the optimizer's). A path kept because it has no
//     extension keeps an input that a later round overwrites, but it is never
//     extended within the exploration — a path's extensions change only when
//     an edge executes — so that input is never read again.
//   - ext is the extension buffer (Optimizer.extensions).
type chainScratch struct {
	paths, next []pathState
	edges       []int
	inputs      [2][]xmltree.NodeID
	ext         []int
	pairs       ops.Pairs
}

// chainPool holds the chain scratch of finished runs weakly, as the plan
// package's scratchPool holds its merge scratch: a cold run reuses the one an
// earlier run handed back if the collector has not freed it yet.
var chainPool conc.Recycler[chainScratch]

// chainScratch returns the run's chain scratch, taken from chainPool on
// first use.
func (o *Optimizer) chainScratch() *chainScratch {
	if o.chain == nil {
		o.chain = chainPool.Get()
	}
	return o.chain
}

// recycleChain hands the run's chain scratch back to chainPool. The candidate
// slots are cleared first, so the free list keeps no document or sample of
// this run alive; the arenas and the pair buffer are the scratch's own.
func (o *Optimizer) recycleChain() {
	cs := o.chain
	if cs == nil {
		return
	}
	o.chain = nil
	clear(cs.paths[:cap(cs.paths)])
	clear(cs.next[:cap(cs.next)])
	cs.paths, cs.next = cs.paths[:0], cs.next[:0]
	chainPool.Put(cs)
}

// single returns the one-edge path [id] from the chain scratch's edge arena,
// which it resets: chainSample's answer when it explores nothing.
func (cs *chainScratch) single(id int) []int {
	cs.edges = append(cs.edges[:0], id)
	return cs.edges[:1:1]
}

// extensions lists p's extending edges — pending edges at p's stop vertex
// that p does not contain — in the chain scratch's buffer, valid until the
// next call.
func (o *Optimizer) extensions(p *pathState) []int {
	cs := o.chain
	cs.ext = cs.ext[:0]
	for _, e2 := range o.incident[p.stop] {
		if o.pending(e2.ID) && !slices.Contains(p.edges, e2.ID) {
			cs.ext = append(cs.ext, e2.ID)
		}
	}
	return cs.ext
}

// chainSample implements Algorithm 2. Given the unexecuted edge ids, it
// returns the path segment (ordered edge ids) to execute next. The segment
// lives in the chain scratch: it is valid until the next call.
func (o *Optimizer) chainSample(remaining []int) ([]int, error) {
	prev := o.env.Rec.SetPhase(metrics.PhaseSample)
	defer o.env.Rec.SetPhase(prev)

	// Line 1: the edge with the smallest weight. Unweighted edges are
	// weighed on demand so progress is always possible.
	minEdge := -1
	minW := math.Inf(1)
	for _, id := range remaining {
		w, ok := o.weights[id]
		if !ok {
			var err error
			w, ok, err = o.estimateCard(o.g.Edges[id])
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			o.weights[id] = w
		}
		if w < minW {
			minW, minEdge = w, id
		}
	}
	if minEdge < 0 {
		// No edge could be weighed (both endpoints unsampleable
		// everywhere): fall back to the first remaining edge.
		minEdge = remaining[0]
	}
	e := o.g.Edges[minEdge]
	cs := o.chainScratch()
	if o.opt.Greedy {
		return cs.single(minEdge), nil
	}

	// remaining lists exactly the pending edges, and nothing below executes
	// or implies one.
	branching := func(v int) int {
		n := 0
		for _, e2 := range o.incident[v] {
			if o.pending(e2.ID) {
				n++
			}
		}
		return n
	}
	// Lines 2–5: if neither endpoint branches, execute e directly.
	if branching(e.From) <= 1 && branching(e.To) <= 1 {
		return cs.single(minEdge), nil
	}
	// Line 3: source = endpoint with the smallest cardinality.
	source := e.From
	cf, okF := o.card(e.From)
	ct, okT := o.card(e.To)
	switch {
	case okF && okT:
		if ct < cf {
			source = e.To
		}
	case okT:
		source = e.To
	}
	if !o.canSample(source) {
		// The cheaper endpoint cannot provide a start sample (e.g. an
		// unmaterialized predicate-free text vertex); use the other.
		source = e.Other(source)
		if !o.canSample(source) {
			return cs.single(minEdge), nil
		}
	}

	srcCard, _ := o.card(source)
	startSample, err := o.currentSample(source)
	if err != nil {
		return nil, err
	}
	exploration := o.trace.newExploration(minEdge, source)

	// Lines 6–10.
	cs.edges = cs.edges[:0]
	cs.paths = append(cs.paths[:0], pathState{stop: source, input: *startSample, cost: 0, sf: 1})
	cutoff := o.opt.Tau

	// Lines 11–31: breadth-first extension rounds. Each round fills the
	// candidate list the round before last used, so two lists serve all
	// rounds.
	for round := 0; round < o.opt.MaxRounds; round++ {
		if err := o.env.CheckInterrupt(); err != nil {
			return nil, err
		}
		anyExt := false
		for i := range cs.paths {
			if len(o.extensions(&cs.paths[i])) > 0 {
				anyExt = true
				break
			}
		}
		if !anyExt {
			break
		}
		// Line 12: grow the cut-off to dilute the front bias that
		// accumulates over chained cut-off samples (Sec 3.1).
		if !o.opt.FixedCutoff {
			cutoff += o.opt.Tau
		}

		in := cs.inputs[round%2][:0]
		next := cs.next[:0]
		for i := range cs.paths {
			p := &cs.paths[i]
			exts := o.extensions(p)
			if len(exts) == 0 {
				next = append(next, *p) // keep unextendable paths (line 15)
				continue
			}
			for _, id := range exts {
				e2 := o.g.Edges[id]
				vPrime := e2.Other(p.stop)
				inner, err := o.innerFor(e2, vPrime)
				if err != nil {
					return nil, err
				}
				consumed, err := o.runner.PairsInto(&cs.pairs, e2, p.stop, &p.input, inner, cutoff)
				if err != nil {
					return nil, err
				}
				est := ops.EstimateFull(cs.pairs.Len(), consumed, p.input.Len())
				// The result tuples flowing on live in v'’s document.
				doc := p.input.Doc
				if inner != nil {
					doc = inner.Doc
				} else if ct, cerr := o.conceptualTable(vPrime); cerr == nil {
					doc = ct.Doc
				}
				// Only the result tuples outlive the next sample: they
				// become I(p), copied out of the pair buffer into this
				// round's input arena.
				e0, n0 := len(cs.edges), len(in)
				cs.edges = append(append(cs.edges, p.edges...), id)
				in = append(in, cs.pairs.S...)
				next = append(next, pathState{
					edges: cs.edges[e0:len(cs.edges):len(cs.edges)],
					stop:  vPrime,
					input: table.Table{Doc: doc, Nodes: in[n0:len(in):len(in)]},
					cost:  p.cost + est*float64(srcCard)/float64(o.opt.Tau),
					sf:    est / float64(o.opt.Tau),
				})
			}
		}
		cs.inputs[round%2] = in
		// Beam: keep the cheapest BeamWidth candidates. Without this the
		// walk set over dense join-equivalence graphs grows exponentially;
		// the paper's explorations stay below 15 concurrent segments.
		if len(next) > o.opt.BeamWidth {
			slices.SortStableFunc(next, byCost)
			next = next[:o.opt.BeamWidth]
		}
		cs.paths, cs.next = next, cs.paths
		exploration.addRound(cs.paths)

		// Lines 24–31: stopping condition — some pi is superior to every
		// other path even after pi's reduction is applied to them.
		if pi := superiorStrict(cs.paths); pi != nil {
			exploration.setChoice(pi.edges, "stopping-condition")
			return pi.edges, nil
		}
	}

	// Lines 32–39: all branches explored; pick the best candidate.
	if pi := superiorFinal(cs.paths); pi != nil {
		exploration.setChoice(pi.edges, "final-comparison")
		return pi.edges, nil
	}
	// The pairwise relation can be intransitive on noisy estimates; fall
	// back to the smallest plain cost.
	best := &cs.paths[0]
	for i := range cs.paths[1:] {
		if p := &cs.paths[1+i]; p.cost < best.cost {
			best = p
		}
	}
	if len(best.edges) == 0 {
		return cs.single(minEdge), nil
	}
	exploration.setChoice(best.edges, "min-cost-fallback")
	return best.edges, nil
}

// byCost orders candidate paths by cost for the beam through < alone, so
// equal costs (and NaN) compare equal and keep their order.
func byCost(a, b pathState) int {
	switch {
	case a.cost < b.cost:
		return -1
	case b.cost < a.cost:
		return 1
	}
	return 0
}

// superiorStrict returns the first path pi satisfying, against every other
// pj: cost(pi) + sf(pi)·cost(pj) ≤ cost(pj) — executing pi first provably
// cannot hurt (Algorithm 2 line 26).
func superiorStrict(paths []pathState) *pathState {
	for i := range paths {
		pi := &paths[i]
		if len(pi.edges) == 0 {
			continue
		}
		ok := true
		for j := range paths {
			pj := &paths[j]
			if i == j {
				continue
			}
			if pi.cost+pi.sf*pj.cost > pj.cost {
				ok = false
				break
			}
		}
		if ok {
			return pi
		}
	}
	return nil
}

// superiorFinal returns the first path pi with, for all pj:
// cost(pi) + sf(pi)·cost(pj) ≤ cost(pj) + sf(pj)·cost(pi)
// (Algorithm 2 line 34).
func superiorFinal(paths []pathState) *pathState {
	for i := range paths {
		pi := &paths[i]
		if len(pi.edges) == 0 {
			continue
		}
		ok := true
		for j := range paths {
			pj := &paths[j]
			if i == j {
				continue
			}
			if pi.cost+pi.sf*pj.cost > pj.cost+pj.sf*pi.cost {
				ok = false
				break
			}
		}
		if ok {
			return pi
		}
	}
	return nil
}
