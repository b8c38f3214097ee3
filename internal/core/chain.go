package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/table"
)

// pathState is one candidate path segment during chain sampling, carrying
// the properties of Algorithm 2: StopVertex, the input sample I(p) for the
// next round, the accumulated cost estimate, and the scale factor sf.
type pathState struct {
	edges []int       // edge ids in traversal order; never written once built
	stop  int         // StopVertex(p)
	input table.Table // I(p): the sampled tuples flowing through the path
	cost  float64     // estimated combined intermediate cardinality
	sf    float64     // join hit ratio of the last extension
}

// chainSample implements Algorithm 2. Given the unexecuted edge ids, it
// returns the path segment (ordered edge ids) to execute next.
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
	if o.opt.Greedy {
		return []int{minEdge}, nil
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
		return []int{minEdge}, nil
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
			return []int{minEdge}, nil
		}
	}

	srcCard, _ := o.card(source)
	startSample, err := o.currentSample(source)
	if err != nil {
		return nil, err
	}
	exploration := o.trace.newExploration(minEdge, source)

	// Lines 6–10.
	paths := []*pathState{{stop: source, input: *startSample, cost: 0, sf: 1}}
	cutoff := o.opt.Tau

	// extensions lists p's extending edges in one buffer, valid until the
	// next call.
	var extBuf []int
	extensions := func(p *pathState) []int {
		extBuf = extBuf[:0]
		for _, e2 := range o.incident[p.stop] {
			if o.pending(e2.ID) && !slices.Contains(p.edges, e2.ID) {
				extBuf = append(extBuf, e2.ID)
			}
		}
		return extBuf
	}

	// Lines 11–31: breadth-first extension rounds. Each round fills the
	// candidate list the round before last used (the trace copies what it
	// keeps), so two lists serve all rounds.
	var spare []*pathState
	for round := 0; round < o.opt.MaxRounds; round++ {
		anyExt := false
		for _, p := range paths {
			if len(extensions(p)) > 0 {
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

		next := spare[:0]
		for _, p := range paths {
			exts := extensions(p)
			if len(exts) == 0 {
				next = append(next, p) // keep unextendable paths (line 15)
				continue
			}
			for _, id := range exts {
				e2 := o.g.Edges[id]
				vPrime := e2.Other(p.stop)
				inner, err := o.innerFor(e2, vPrime)
				if err != nil {
					return nil, err
				}
				consumed, err := o.runner.PairsInto(&o.pairs, e2, p.stop, &p.input, inner, cutoff)
				if err != nil {
					return nil, err
				}
				est := ops.EstimateFull(o.pairs.Len(), consumed, p.input.Len())
				// The result tuples flowing on live in v'’s document.
				doc := p.input.Doc
				if inner != nil {
					doc = inner.Doc
				} else if ct, cerr := o.conceptualTable(vPrime); cerr == nil {
					doc = ct.Doc
				}
				edges := make([]int, len(p.edges)+1)
				copy(edges, p.edges)
				edges[len(p.edges)] = id
				// Only the result tuples outlive the next sample: they
				// become I(p), copied out of the optimizer's pair buffer.
				np := &pathState{
					edges: edges,
					stop:  vPrime,
					input: table.Table{Doc: doc, Nodes: slices.Clone(o.pairs.S)},
					cost:  p.cost + est*float64(srcCard)/float64(o.opt.Tau),
					sf:    est / float64(o.opt.Tau),
				}
				next = append(next, np)
			}
		}
		// Beam: keep the cheapest BeamWidth candidates. Without this the
		// walk set over dense join-equivalence graphs grows exponentially;
		// the paper's explorations stay below 15 concurrent segments.
		if len(next) > o.opt.BeamWidth {
			sort.SliceStable(next, func(i, j int) bool { return next[i].cost < next[j].cost })
			next = next[:o.opt.BeamWidth]
		}
		paths, spare = next, paths
		exploration.addRound(paths)

		// Lines 24–31: stopping condition — some pi is superior to every
		// other path even after pi's reduction is applied to them.
		if pi := superiorStrict(paths); pi != nil {
			exploration.setChoice(pi.edges, "stopping-condition")
			return pi.edges, nil
		}
	}

	// Lines 32–39: all branches explored; pick the best candidate.
	if pi := superiorFinal(paths); pi != nil {
		exploration.setChoice(pi.edges, "final-comparison")
		return pi.edges, nil
	}
	// The pairwise relation can be intransitive on noisy estimates; fall
	// back to the smallest plain cost.
	best := paths[0]
	for _, p := range paths[1:] {
		if p.cost < best.cost {
			best = p
		}
	}
	if len(best.edges) == 0 {
		return []int{minEdge}, nil
	}
	exploration.setChoice(best.edges, "min-cost-fallback")
	return best.edges, nil
}

// superiorStrict returns the first path pi satisfying, against every other
// pj: cost(pi) + sf(pi)·cost(pj) ≤ cost(pj) — executing pi first provably
// cannot hurt (Algorithm 2 line 26).
func superiorStrict(paths []*pathState) *pathState {
	for i, pi := range paths {
		if len(pi.edges) == 0 {
			continue
		}
		ok := true
		for j, pj := range paths {
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
func superiorFinal(paths []*pathState) *pathState {
	for i, pi := range paths {
		if len(pi.edges) == 0 {
			continue
		}
		ok := true
		for j, pj := range paths {
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
