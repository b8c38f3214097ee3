// Package planenum is the reproduction of the paper's "small tool that
// enumerates all plans that ROX could potentially consider" (Sec 4.2). For
// the four-document DBLP query it enumerates the 18 equi-join orders of the
// Fig 5 legend (linear and bushy), builds the three canonical step
// placements SJ, JS and S_J for any join order, and counts the full physical
// search space (orders × placements × step directions × join algorithms).
package planenum

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/joingraph"
	"repro/internal/ops"
	"repro/internal/plan"
)

// FourWay is the analyzed structure of a DBLP-style four-document star
// query: per-document step chains plus pairwise equi-join edges.
type FourWay struct {
	// Docs are the document names in first-appearance (for-clause) order;
	// the paper numbers them 1–4 in this order.
	Docs []string
	// Steps[i] are the non-redundant step edge ids of document i, in
	// compilation order (outer step first).
	Steps [][]int
	// Join[[2]int{i,j}] (i<j) is a join edge id between documents i and j,
	// present for every pair when the join-equivalence closure was added.
	Join map[[2]int]int
}

// AnalyzeFourWay extracts the four-way structure from a compiled Join Graph.
// It fails when the graph does not touch exactly four documents or lacks a
// spanning set of join edges.
func AnalyzeFourWay(g *joingraph.Graph) (*FourWay, error) {
	var docs []string
	docIdx := map[string]int{}
	for _, v := range g.Vertices {
		if _, ok := docIdx[v.Doc]; !ok {
			docIdx[v.Doc] = len(docs)
			docs = append(docs, v.Doc)
		}
	}
	if len(docs) != 4 {
		return nil, fmt.Errorf("planenum: query touches %d documents, want 4", len(docs))
	}
	fw := &FourWay{Docs: docs, Steps: make([][]int, 4), Join: map[[2]int]int{}}
	redundant := plan.RedundantEdges(g)
	for _, e := range g.Edges {
		switch e.Kind {
		case joingraph.StepEdge:
			if redundant[e.ID] {
				continue
			}
			d := docIdx[g.Vertices[e.From].Doc]
			fw.Steps[d] = append(fw.Steps[d], e.ID)
		case joingraph.JoinEdge:
			a := docIdx[g.Vertices[e.From].Doc]
			b := docIdx[g.Vertices[e.To].Doc]
			if a == b {
				continue // same-document joins stay with the steps
			}
			if a > b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if _, dup := fw.Join[key]; !dup || !e.Derived {
				fw.Join[key] = e.ID
			}
		}
	}
	// A spanning join set is required; with the equivalence closure all six
	// pairs exist.
	for i := 0; i < 4; i++ {
		connected := false
		for k := range fw.Join {
			if k[0] == i || k[1] == i {
				connected = true
				break
			}
		}
		if !connected {
			return nil, fmt.Errorf("planenum: document %s has no cross-document join", docs[i])
		}
	}
	return fw, nil
}

// JoinOrder4 is one entry of the Fig 5 legend: the first joined pair, then
// either the remaining documents in sequence (linear) or the remaining pair
// joined separately and crossed at the end (bushy).
type JoinOrder4 struct {
	First [2]int // 0-based document indices joined first
	Rest  [2]int // the two remaining documents
	Bushy bool   // true: (First)-(Rest); false: (First)-Rest[0]-Rest[1]
}

// Canonical normalizes the order for comparison: the first pair ascending,
// and for bushy orders also the second pair (joins are symmetric). Linear
// continuations keep their sequence — it is semantic.
func (o JoinOrder4) Canonical() JoinOrder4 {
	if o.First[0] > o.First[1] {
		o.First[0], o.First[1] = o.First[1], o.First[0]
	}
	if o.Bushy && o.Rest[0] > o.Rest[1] {
		o.Rest[0], o.Rest[1] = o.Rest[1], o.Rest[0]
	}
	return o
}

// Label renders the order in the paper's notation with 1-based document
// numbers, e.g. "(2-1)-3-4" or "(2-1)-(3-4)".
func (o JoinOrder4) Label() string {
	if o.Bushy {
		return fmt.Sprintf("(%d-%d)-(%d-%d)", o.First[0]+1, o.First[1]+1, o.Rest[0]+1, o.Rest[1]+1)
	}
	return fmt.Sprintf("(%d-%d)-%d-%d", o.First[0]+1, o.First[1]+1, o.Rest[0]+1, o.Rest[1]+1)
}

// EnumerateJoinOrders4 returns the 18 join orders of the Fig 5 legend: for
// each of the 6 unordered first pairs, the two linear continuations and the
// bushy plan.
func EnumerateJoinOrders4() []JoinOrder4 {
	var out []JoinOrder4
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			var rest []int
			for d := 0; d < 4; d++ {
				if d != a && d != b {
					rest = append(rest, d)
				}
			}
			out = append(out,
				JoinOrder4{First: [2]int{a, b}, Rest: [2]int{rest[0], rest[1]}, Bushy: true},
				JoinOrder4{First: [2]int{a, b}, Rest: [2]int{rest[0], rest[1]}},
				JoinOrder4{First: [2]int{a, b}, Rest: [2]int{rest[1], rest[0]}},
			)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label() < out[j].Label() })
	return out
}

// joinSeq returns the three join edge ids realizing the order: the first
// pair, then (linear) each remaining document joined to the first pair's
// smaller index, or (bushy) the remaining pair joined and crossed.
func (fw *FourWay) joinSeq(o JoinOrder4) ([]int, error) {
	edge := func(a, b int) (int, error) {
		if a > b {
			a, b = b, a
		}
		id, ok := fw.Join[[2]int{a, b}]
		if !ok {
			return 0, fmt.Errorf("planenum: no join edge between documents %d and %d (add the join-equivalence closure)", a+1, b+1)
		}
		return id, nil
	}
	var seq []int
	j1, err := edge(o.First[0], o.First[1])
	if err != nil {
		return nil, err
	}
	seq = append(seq, j1)
	if o.Bushy {
		j2, err := edge(o.Rest[0], o.Rest[1])
		if err != nil {
			return nil, err
		}
		j3, err := edge(o.First[0], o.Rest[0])
		if err != nil {
			return nil, err
		}
		return append(seq, j2, j3), nil
	}
	j2, err := edge(o.First[0], o.Rest[0])
	if err != nil {
		return nil, err
	}
	j3, err := edge(o.First[0], o.Rest[1])
	if err != nil {
		return nil, err
	}
	return append(seq, j2, j3), nil
}

// Placement is a canonical step placement (Sec 4.2).
type Placement int

// The three canonical placements.
const (
	// SJ executes the steps of all four documents first, then the joins.
	SJ Placement = iota
	// JS executes the first document's steps, then all joins, then the
	// remaining documents' steps.
	JS
	// SJInterleaved (the paper's S_J) executes each document's steps right
	// after that document joins the intermediate result.
	SJInterleaved
)

// String returns the paper's name for the placement.
func (p Placement) String() string {
	switch p {
	case SJ:
		return "SJ"
	case JS:
		return "JS"
	case SJInterleaved:
		return "S_J"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Placements lists all canonical placements.
func Placements() []Placement { return []Placement{SJ, JS, SJInterleaved} }

// BuildPlan constructs the physical plan for a join order and step
// placement, using hash joins (the bulk execution algorithm).
func (fw *FourWay) BuildPlan(o JoinOrder4, p Placement) (*plan.Plan, error) {
	joins, err := fw.joinSeq(o)
	if err != nil {
		return nil, err
	}
	docSeq := []int{o.First[0], o.First[1], o.Rest[0], o.Rest[1]}
	steps := func(doc int) []plan.Step {
		var out []plan.Step
		for _, id := range fw.Steps[doc] {
			out = append(out, plan.Step{EdgeID: id})
		}
		return out
	}
	join := func(i int) plan.Step { return plan.Step{EdgeID: joins[i], Alg: ops.JoinHash} }

	var ps []plan.Step
	switch p {
	case SJ:
		for _, d := range docSeq {
			ps = append(ps, steps(d)...)
		}
		ps = append(ps, join(0), join(1), join(2))
	case JS:
		ps = append(ps, steps(docSeq[0])...)
		ps = append(ps, join(0), join(1), join(2))
		for _, d := range docSeq[1:] {
			ps = append(ps, steps(d)...)
		}
	case SJInterleaved:
		if o.Bushy {
			ps = append(ps, steps(docSeq[0])...)
			ps = append(ps, join(0))
			ps = append(ps, steps(docSeq[1])...)
			ps = append(ps, steps(docSeq[2])...)
			ps = append(ps, join(1))
			ps = append(ps, steps(docSeq[3])...)
			ps = append(ps, join(2))
		} else {
			ps = append(ps, steps(docSeq[0])...)
			ps = append(ps, join(0))
			ps = append(ps, steps(docSeq[1])...)
			ps = append(ps, join(1))
			ps = append(ps, steps(docSeq[2])...)
			ps = append(ps, join(2))
			ps = append(ps, steps(docSeq[3])...)
		}
	default:
		return nil, fmt.Errorf("planenum: unknown placement %d", int(p))
	}
	return &plan.Plan{Steps: ps}, nil
}

// DecodeOrder is BuildPlan's inverse: it recovers the legend entry of a
// plan from its cross-document join steps, in canonical form. g is the
// graph fw was analyzed from; it maps each join edge, derived ones
// included, to its two documents. ok is false unless the plan joins
// exactly three times across documents in one of the 18 legend shapes.
func (fw *FourWay) DecodeOrder(g *joingraph.Graph, p *plan.Plan) (JoinOrder4, bool) {
	docIdx := map[string]int{}
	for i, d := range fw.Docs {
		docIdx[d] = i
	}
	var joins [][2]int
	for _, st := range p.Steps {
		e := g.Edges[st.EdgeID]
		if e.Kind != joingraph.JoinEdge {
			continue
		}
		a, b := docIdx[g.Vertices[e.From].Doc], docIdx[g.Vertices[e.To].Doc]
		if a != b {
			joins = append(joins, [2]int{a, b})
		}
	}
	if len(joins) != 3 {
		return JoinOrder4{}, false
	}
	first := JoinOrder4{First: joins[0]}.Canonical().First
	in := map[int]bool{first[0]: true, first[1]: true}
	j2 := joins[1]
	switch {
	case !in[j2[0]] && !in[j2[1]]:
		// Bushy: the second join pairs the two remaining documents.
		return JoinOrder4{First: first, Rest: j2, Bushy: true}.Canonical(), true
	case in[j2[0]] != in[j2[1]]:
		third := j2[0]
		if in[third] {
			third = j2[1]
		}
		var last int
		for d := 0; d < 4; d++ {
			if !in[d] && d != third {
				last = d
			}
		}
		return JoinOrder4{First: first, Rest: [2]int{third, last}}, true
	default:
		return JoinOrder4{}, false
	}
}

// SearchSpace reports the size of the physical plan space the enumerator
// covers for a four-way query: join orders × step interleavings × step
// directions × join algorithms. The paper's tool reports 88880 plans for
// its setup; the exact number depends on which knobs are varied, so the
// breakdown is returned for transparency.
type SearchSpace struct {
	JoinOrders     int
	Interleavings  *big.Int // orderings of all steps relative to the joins
	StepDirections *big.Int // 2^steps
	JoinAlgorithms *big.Int // 3^joins
	Total          *big.Int
}

// CountSearchSpace computes the search-space size for the analyzed query.
func (fw *FourWay) CountSearchSpace() SearchSpace {
	totalSteps := 0
	counts := []int{3} // the three joins keep their relative order
	for _, s := range fw.Steps {
		totalSteps += len(s)
		counts = append(counts, len(s))
	}
	inter := multinomial(counts)
	dirs := new(big.Int).Exp(big.NewInt(2), big.NewInt(int64(totalSteps)), nil)
	algs := new(big.Int).Exp(big.NewInt(3), big.NewInt(3), nil)
	total := new(big.Int).Mul(big.NewInt(18), inter)
	total.Mul(total, dirs)
	total.Mul(total, algs)
	return SearchSpace{
		JoinOrders:     18,
		Interleavings:  inter,
		StepDirections: dirs,
		JoinAlgorithms: algs,
		Total:          total,
	}
}

// multinomial computes (Σn_i)! / Π n_i! — the number of interleavings of
// sequences with fixed internal order.
func multinomial(counts []int) *big.Int {
	n := 0
	for _, c := range counts {
		n += c
	}
	out := factorial(n)
	for _, c := range counts {
		out.Div(out, factorial(c))
	}
	return out
}

func factorial(n int) *big.Int {
	out := big.NewInt(1)
	for i := 2; i <= n; i++ {
		out.Mul(out, big.NewInt(int64(i)))
	}
	return out
}
