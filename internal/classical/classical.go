// Package classical implements the paper's baseline: a compile-time
// optimizer "equipped with an accurate cardinality estimation module"
// (Sec 4.2). Within a single document its estimates are exact — granted here
// by evaluating operators in isolation against the base tables, which is
// what perfect per-document statistics would deliver. Across documents no
// statistics exist (the doc() targets are run-time parameters), so it falls
// back to the smallest-input-first heuristic, producing a linear join order
// that starts with the two smallest inputs.
//
// What it fundamentally cannot see — and what ROX exploits — is the
// correlation between operators: all estimates are made against *base*
// cardinalities, never against the intermediate data an earlier operator
// leaves behind.
package classical

import (
	"math"
	"sort"

	"repro/internal/joingraph"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/planenum"
)

// SmallestInputOrder returns the classical join order for a four-way query:
// sort the documents by their exact value-input cardinality (the author
// text() count after per-document steps) ascending, join the two smallest
// first, then attach the remaining documents by increasing size — a linear
// order (Sec 4.2).
func SmallestInputOrder(env *plan.Env, g *joingraph.Graph, fw *planenum.FourWay) (planenum.JoinOrder4, error) {
	cards, err := docInputCards(env, g, fw)
	if err != nil {
		return planenum.JoinOrder4{}, err
	}
	idx := []int{0, 1, 2, 3}
	sort.Slice(idx, func(i, j int) bool { return cards[idx[i]] < cards[idx[j]] })
	return planenum.JoinOrder4{
		First: [2]int{idx[0], idx[1]},
		Rest:  [2]int{idx[2], idx[3]},
	}, nil
}

// docInputCards computes, per document, the exact cardinality of the
// document's join input: its step chain evaluated in isolation (the
// "accurate per-document statistics" of the baseline). The work is charged
// to a scratch recorder — it models the optimizer's statistics module, not
// query execution.
func docInputCards(env *plan.Env, g *joingraph.Graph, fw *planenum.FourWay) ([]int, error) {
	// Statistics work happens under a scratch recorder, not query cost.
	scratchEnv := env.WithScratchRecorder()
	cards := make([]int, len(fw.Docs))
	for d := range fw.Docs {
		r := plan.NewRunner(scratchEnv, g)
		last := -1
		for _, id := range fw.Steps[d] {
			if _, err := r.ExecEdge(g.Edges[id], false, ops.JoinHash); err != nil {
				return nil, err
			}
			last = g.Edges[id].To
		}
		if last < 0 {
			// No steps: the input is the join vertex's base extent; find a
			// join edge touching this document.
			for k, id := range fw.Join {
				if k[0] == d || k[1] == d {
					e := g.Edges[id]
					v := e.From
					if g.Vertices[v].Doc != fw.Docs[d] {
						v = e.To
					}
					t, err := r.EnsureTable(v)
					if err != nil {
						return nil, err
					}
					cards[d] = t.Len()
					break
				}
			}
			continue
		}
		cards[d] = r.Card(last)
	}
	return cards, nil
}

// StaticPlan is the generic classical baseline for arbitrary Join Graphs
// (used on the single-document XMark queries): it orders all non-redundant
// edges by a static cardinality estimate computed against base tables —
// exact for operators inside one document, smallest-input for cross-document
// joins — and never revises the order at run time. Correlations between
// operators are invisible to it by construction.
func StaticPlan(env *plan.Env, g *joingraph.Graph) (*plan.Plan, error) {
	redundant := plan.RedundantEdges(g)
	type weighted struct {
		id  int
		est float64
	}
	var edges []weighted
	for _, e := range g.Edges {
		if redundant[e.ID] || e.Derived {
			continue
		}
		est, err := staticEstimate(env, g, e)
		if err != nil {
			return nil, err
		}
		edges = append(edges, weighted{e.ID, est})
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].est < edges[j].est })
	p := &plan.Plan{}
	for _, w := range edges {
		p.Steps = append(p.Steps, plan.Step{EdgeID: w.id, Alg: ops.JoinHash})
	}
	return p, nil
}

// staticEstimate returns the baseline's cardinality estimate of edge e:
// exact isolated evaluation for single-document operators, the
// smallest-input proxy for cross-document joins.
func staticEstimate(env *plan.Env, g *joingraph.Graph, e *joingraph.Edge) (float64, error) {
	from, to := g.Vertices[e.From], g.Vertices[e.To]
	if from.Doc == to.Doc {
		// Exact within one document: evaluate the operator on base tables
		// under a scratch recorder (statistics, not execution).
		r := plan.NewRunner(env.WithScratchRecorder(), g)
		ctxT, err := r.EnsureTable(e.From)
		if err != nil {
			return 0, err
		}
		innerT, err := r.EnsureTable(e.To)
		if err != nil {
			return 0, err
		}
		pairs, _, err := r.PairsFor(e, e.From, ctxT, innerT, 0)
		if err != nil {
			return 0, err
		}
		return float64(pairs.Len()), nil
	}
	// Cross-document join: no statistics — smallest-input-first.
	nodesF, _, err := env.VertexNodes(from)
	if err != nil {
		return 0, err
	}
	nodesT, _, err := env.VertexNodes(to)
	if err != nil {
		return 0, err
	}
	return math.Max(float64(len(nodesF)), float64(len(nodesT))), nil
}
