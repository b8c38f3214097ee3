// Package joingraph models the order-independent Join Graph of Sec 2.1: an
// edge-labeled graph whose vertices are relations of XML nodes (elements by
// qualified name, text or attribute nodes with optional value predicates,
// document roots) and whose edges are XPath step joins or relational
// equi-joins. A Join Graph plus a tail (project → distinct → sort → project)
// is the unit that the static compiler hands to the ROX run-time optimizer.
package joingraph

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/index"
	"repro/internal/ops"
)

// VertexKind classifies Join Graph vertices.
type VertexKind int

// Vertex kinds per Definition 1 of the paper.
const (
	// VRoot is the root node of a named document (the doc() anchor).
	VRoot VertexKind = iota
	// VElem is the set of element nodes with a qualified name, or of every
	// element for the * test (an empty name).
	VElem
	// VText is the set of text nodes, optionally value-restricted.
	VText
	// VAttr is the set of attribute nodes with a name, or of every
	// attribute for the @* test (an empty name), optionally
	// value-restricted.
	VAttr
	// VNode is the node() test: every element and text node.
	VNode
)

// String returns the kind name.
func (k VertexKind) String() string {
	switch k {
	case VRoot:
		return "root"
	case VElem:
		return "elem"
	case VText:
		return "text"
	case VAttr:
		return "attr"
	case VNode:
		return "node"
	default:
		return fmt.Sprintf("VertexKind(%d)", int(k))
	}
}

// PredKind classifies vertex value predicates.
type PredKind int

// Predicate kinds: none, string equality (index-selectable, Sec 2.2), a
// numeric range comparison, or string inequality (a filter, never an index
// lookup).
const (
	PredNone PredKind = iota
	PredEqString
	PredRange
	PredNeString
)

// Pred is a value predicate annotated on a text or attribute vertex.
type Pred struct {
	Kind PredKind
	Str  string        // compared value for PredEqString and PredNeString
	Op   index.RangeOp // comparison for PredRange
	Num  float64       // bound for PredRange
}

// NoPred is the absent predicate.
var NoPred = Pred{Kind: PredNone}

// EqPred returns a string-equality predicate.
func EqPred(v string) Pred { return Pred{Kind: PredEqString, Str: v} }

// NePred returns a string-inequality predicate.
func NePred(v string) Pred { return Pred{Kind: PredNeString, Str: v} }

// RangePred returns a numeric comparison predicate.
func RangePred(op index.RangeOp, bound float64) Pred {
	return Pred{Kind: PredRange, Op: op, Num: bound}
}

// String renders the predicate in step syntax.
func (p Pred) String() string {
	switch p.Kind {
	case PredEqString:
		return fmt.Sprintf("=%q", p.Str)
	case PredRange:
		return fmt.Sprintf("%s%g", p.Op, p.Num)
	case PredNeString:
		return fmt.Sprintf("!=%q", p.Str)
	default:
		return ""
	}
}

// Vertex is a Join Graph vertex. ID is its position in the graph's vertex
// slice; Doc names the document whose nodes it draws from.
type Vertex struct {
	ID    int
	Kind  VertexKind
	Doc   string // document name, resolved by the execution environment
	QName string // element or attribute name; "" for root/text/node vertices and for * and @*
	Pred  Pred   // value predicate for text/attr vertices
}

// Label renders the vertex for display and DOT output.
func (v *Vertex) Label() string {
	switch v.Kind {
	case VRoot:
		return "root(" + v.Doc + ")"
	case VElem:
		return cmp.Or(v.QName, "*")
	case VText:
		return "text()" + v.Pred.String()
	case VAttr:
		return "@" + cmp.Or(v.QName, "*") + v.Pred.String()
	case VNode:
		return "node()"
	default:
		return fmt.Sprintf("v%d", v.ID)
	}
}

// IndexSelectable reports whether Phase 1 of Algorithm 1 may initialize this
// vertex from an index: elements by name, text nodes with a string-equality
// predicate, attribute nodes by name. (Range-predicate text vertices are
// also selectable through the ordered value index; the paper restricts
// Phase 1 to equality, which the optimizer preserves — see core.) The *, @*
// and node() tests and != are not: their extents span every name or every
// value, so Phase 1 reaches them by a step, like a predicate-free text().
func (v *Vertex) IndexSelectable() bool {
	switch v.Kind {
	case VElem:
		return v.QName != ""
	case VAttr:
		return v.QName != "" && v.Pred.Kind != PredNeString
	case VText:
		return v.Pred.Kind == PredEqString || v.Pred.Kind == PredRange
	default:
		return false
	}
}

// EdgeKind distinguishes step joins from relational equi-joins.
type EdgeKind int

// Edge kinds per Definition 1.
const (
	// StepEdge is a structural (XPath step) join, evaluated by a staircase
	// join. From is the context side (the ◦ end in the paper's figures);
	// the axis reads From → To. The optimizer may execute it in reverse.
	StepEdge EdgeKind = iota
	// JoinEdge is a relational equi-join on node values (text/attr
	// vertices).
	JoinEdge
)

// Edge is a Join Graph edge.
type Edge struct {
	ID      int
	Kind    EdgeKind
	From    int      // context vertex id for steps; either side for joins
	To      int      // result vertex id for steps
	Axis    ops.Axis // step axis (StepEdge only), read From → To
	Derived bool     // true for join-equivalence edges added by closure
}

// Other returns the endpoint of e that is not v.
func (e *Edge) Other(v int) int {
	if e.From == v {
		return e.To
	}
	return e.From
}

// Touches reports whether v is an endpoint of e.
func (e *Edge) Touches(v int) bool { return e.From == v || e.To == v }

// Graph is a Join Graph. Build it with AddVertex/AddStep/AddJoin; it is then
// static — the run-time optimizer tracks execution state separately.
type Graph struct {
	Vertices []*Vertex
	Edges    []*Edge
}

// New returns an empty Join Graph.
func New() *Graph { return &Graph{} }

// AddVertex appends a vertex and returns its id.
func (g *Graph) AddVertex(kind VertexKind, doc, qname string, pred Pred) int {
	v := &Vertex{ID: len(g.Vertices), Kind: kind, Doc: doc, QName: qname, Pred: pred}
	g.Vertices = append(g.Vertices, v)
	return v.ID
}

// AddRoot adds a document-root vertex.
func (g *Graph) AddRoot(doc string) int { return g.AddVertex(VRoot, doc, "", NoPred) }

// AddElem adds an element vertex.
func (g *Graph) AddElem(doc, qname string) int { return g.AddVertex(VElem, doc, qname, NoPred) }

// AddText adds a text vertex with an optional predicate.
func (g *Graph) AddText(doc string, pred Pred) int { return g.AddVertex(VText, doc, "", pred) }

// AddAttr adds an attribute vertex with an optional predicate.
func (g *Graph) AddAttr(doc, qname string, pred Pred) int {
	return g.AddVertex(VAttr, doc, qname, pred)
}

// AddStep adds a step edge with the given axis from context vertex from to
// result vertex to, returning the edge id.
func (g *Graph) AddStep(from, to int, axis ops.Axis) int {
	e := &Edge{ID: len(g.Edges), Kind: StepEdge, From: from, To: to, Axis: axis}
	g.Edges = append(g.Edges, e)
	return e.ID
}

// AddJoin adds an equi-join edge between two (text or attribute) vertices.
func (g *Graph) AddJoin(a, b int) int {
	e := &Edge{ID: len(g.Edges), Kind: JoinEdge, From: a, To: b}
	g.Edges = append(g.Edges, e)
	return e.ID
}

// EdgesOf returns all edges incident to vertex v.
func (g *Graph) EdgesOf(v int) []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.Touches(v) {
			out = append(out, e)
		}
	}
	return out
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int {
	n := 0
	for _, e := range g.Edges {
		if e.Touches(v) {
			n++
		}
	}
	return n
}

// JoinEdges returns the equi-join edges (optionally including derived ones).
func (g *Graph) JoinEdges(includeDerived bool) []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.Kind == JoinEdge && (includeDerived || !e.Derived) {
			out = append(out, e)
		}
	}
	return out
}

// StepEdges returns the step edges.
func (g *Graph) StepEdges() []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.Kind == StepEdge {
			out = append(out, e)
		}
	}
	return out
}

// AddJoinEquivalences closes the equi-join edges under transitivity and adds
// the missing edges, marked Derived — the dotted edges of Fig 4, which give
// ROX the freedom to pick any join order within an equivalence class of
// value-equal vertices.
//
// It returns the number of edges added. When the closed graph would hold
// more than maxJoinEdges equi-join edges, it adds none and fails.
func (g *Graph) AddJoinEquivalences(maxJoinEdges int) (int, error) {
	uf := NewUnionFind(len(g.Vertices))
	existing := make(map[[2]int]bool)
	joined := make([]bool, len(g.Vertices)) // by vertex: an endpoint of a join edge
	joins := 0
	for _, e := range g.Edges {
		if e.Kind != JoinEdge {
			continue
		}
		joins++
		uf.Union(e.From, e.To)
		joined[e.From], joined[e.To] = true, true
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		existing[[2]int{a, b}] = true
	}
	// Group join-connected vertices by class and add missing pairs. Classes
	// are visited in ascending order of their union-find root so the derived
	// edges — and therefore edge IDs and the graph Fingerprint — are identical
	// on every compile of the same query.
	classes := make(map[int][]int)
	var roots []int
	for v := range g.Vertices {
		if !joined[v] {
			continue
		}
		r := uf.Find(v)
		if len(classes[r]) == 0 {
			roots = append(roots, r)
		}
		classes[r] = append(classes[r], v)
	}
	sort.Ints(roots)
	// A class of k vertices closes into k(k-1)/2 distinct pairs, some of
	// which the query joined already.
	closed := joins - len(existing)
	for _, root := range roots {
		k := len(classes[root])
		closed += k * (k - 1) / 2
	}
	if closed > maxJoinEdges {
		return 0, fmt.Errorf("joingraph: closing the join equivalences gives %d join edges, more than %d", closed, maxJoinEdges)
	}
	added := 0
	for _, root := range roots {
		members := classes[root]
		if len(members) < 3 {
			continue
		}
		sort.Ints(members)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				key := [2]int{members[i], members[j]}
				if existing[key] {
					continue
				}
				e := &Edge{ID: len(g.Edges), Kind: JoinEdge, From: members[i], To: members[j], Derived: true}
				g.Edges = append(g.Edges, e)
				existing[key] = true
				added++
			}
		}
	}
	return added, nil
}

// UnionFind is a disjoint-set forest over vertex indices: the transitive
// closure of equi-joins, here and wherever executed joins imply others.
type UnionFind struct{ parent []int }

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &UnionFind{parent: p}
}

// Find returns the root of x's set, halving the path on the way.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b under b's root.
func (u *UnionFind) Union(a, b int) { u.parent[u.Find(a)] = u.Find(b) }

// Validate checks structural sanity: endpoints exist and differ, join edges
// connect value-bearing vertices (text/attr), step edges do not start at a
// predicate-text vertex with an attribute axis, etc.
func (g *Graph) Validate() error {
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Vertices) || e.To < 0 || e.To >= len(g.Vertices) {
			return fmt.Errorf("edge %d: endpoint out of range", e.ID)
		}
		if e.From == e.To {
			return fmt.Errorf("edge %d: self loop on vertex %d", e.ID, e.From)
		}
		from, to := g.Vertices[e.From], g.Vertices[e.To]
		switch e.Kind {
		case JoinEdge:
			for _, v := range []*Vertex{from, to} {
				if v.Kind != VText && v.Kind != VAttr {
					return fmt.Errorf("edge %d: equi-join endpoint %s is not a value vertex", e.ID, v.Label())
				}
			}
		case StepEdge:
			if from.Doc != to.Doc {
				return fmt.Errorf("edge %d: step across documents %q and %q", e.ID, from.Doc, to.Doc)
			}
			if e.Axis == ops.AxisAttribute && to.Kind != VAttr {
				return fmt.Errorf("edge %d: attribute axis into non-attribute vertex %s", e.ID, to.Label())
			}
			if e.Axis != ops.AxisAttribute && e.Axis != ops.AxisSelf && to.Kind == VAttr {
				return fmt.Errorf("edge %d: axis %v cannot reach attribute vertex %s", e.ID, e.Axis, to.Label())
			}
		}
	}
	return nil
}

// Connected reports whether every vertex is reachable from vertex 0 through
// edges (Join Graphs handed to ROX are connected; isolated graphs are
// optimized separately, Sec 2.1).
func (g *Graph) Connected() bool {
	if len(g.Vertices) == 0 {
		return true
	}
	seen := make([]bool, len(g.Vertices))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.EdgesOf(v) {
			o := e.Other(v)
			if !seen[o] {
				seen[o] = true
				count++
				stack = append(stack, o)
			}
		}
	}
	return count == len(g.Vertices)
}

// String renders a compact multi-line description.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "JoinGraph{%d vertices, %d edges}\n", len(g.Vertices), len(g.Edges))
	for _, v := range g.Vertices {
		fmt.Fprintf(&sb, "  v%d: %s [%s]\n", v.ID, v.Label(), v.Doc)
	}
	for _, e := range g.Edges {
		switch e.Kind {
		case StepEdge:
			fmt.Fprintf(&sb, "  e%d: v%d ◦%s→ v%d\n", e.ID, e.From, e.Axis.Short(), e.To)
		case JoinEdge:
			tag := ""
			if e.Derived {
				tag = " (derived)"
			}
			fmt.Fprintf(&sb, "  e%d: v%d = v%d%s\n", e.ID, e.From, e.To, tag)
		}
	}
	return sb.String()
}

// Fingerprint returns a canonical content hash of the graph: every vertex
// (kind, document, qualified name, value predicate) and every edge (kind,
// endpoints, axis, derived flag) in ID order. Two compiles of the same query
// text produce identical graphs and therefore identical fingerprints, which
// is what makes the fingerprint usable as a plan-cache key; the document
// names are part of the hash, so the same structural shape over different
// documents keys separately.
//
// The fingerprint says nothing about document *contents* — pairing it with
// the registration stamps of the documents it reads
// (plan.Catalog.GraphGeneration) and drift detection on replay is the
// caller's job.
func (g *Graph) Fingerprint() string {
	h := sha256.New()
	// Free-form strings (document names, qualified names, predicate values)
	// are length-prefixed so field contents can never shift across delimiter
	// boundaries and make two different graphs serialize identically.
	str := func(s string) { fmt.Fprintf(h, "%d:%s", len(s), s) }
	fmt.Fprintf(h, "g:%d:%d;", len(g.Vertices), len(g.Edges))
	for _, v := range g.Vertices {
		fmt.Fprintf(h, "v:%d:", int(v.Kind))
		str(v.Doc)
		str(v.QName)
		switch v.Pred.Kind {
		case PredEqString:
			fmt.Fprint(h, "eq:")
			str(v.Pred.Str)
			fmt.Fprint(h, ";")
		case PredRange:
			fmt.Fprintf(h, "rng:%d:%g;", int(v.Pred.Op), v.Pred.Num)
		case PredNeString:
			fmt.Fprint(h, "ne:")
			str(v.Pred.Str)
			fmt.Fprint(h, ";")
		default:
			fmt.Fprint(h, "none;")
		}
	}
	for _, e := range g.Edges {
		fmt.Fprintf(h, "e:%d:%d:%d:%d:%t;", int(e.Kind), e.From, e.To, int(e.Axis), e.Derived)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CloneRebindDoc returns a deep copy of the graph with every vertex bound to
// document `from` rebound to document `to`. Vertex and edge IDs are preserved,
// so plans, tails and variable bindings compiled against the original graph
// apply to the clone unchanged. This is how a graph compiled once against a
// logical collection name is instantiated per shard: same structure, same
// predicates, shard document substituted.
func (g *Graph) CloneRebindDoc(from, to string) *Graph {
	out := &Graph{
		Vertices: make([]*Vertex, len(g.Vertices)),
		Edges:    make([]*Edge, len(g.Edges)),
	}
	for i, v := range g.Vertices {
		nv := *v
		if nv.Doc == from {
			nv.Doc = to
		}
		out.Vertices[i] = &nv
	}
	for i, e := range g.Edges {
		ne := *e
		out.Edges[i] = &ne
	}
	return out
}

// DOT renders the graph in Graphviz format for debugging and documentation.
func (g *Graph) DOT() string {
	var sb strings.Builder
	sb.WriteString("graph joingraph {\n  node [shape=box];\n")
	for _, v := range g.Vertices {
		fmt.Fprintf(&sb, "  v%d [label=%q];\n", v.ID, v.Label())
	}
	for _, e := range g.Edges {
		switch e.Kind {
		case StepEdge:
			fmt.Fprintf(&sb, "  v%d -- v%d [label=%q];\n", e.From, e.To, e.Axis.Short())
		case JoinEdge:
			style := ""
			if e.Derived {
				style = ", style=dotted"
			}
			fmt.Fprintf(&sb, "  v%d -- v%d [label=\"=\"%s];\n", e.From, e.To, style)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
