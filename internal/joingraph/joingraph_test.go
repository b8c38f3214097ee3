package joingraph

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/ops"
)

// figure1Graph builds the Join Graph of the paper's Fig 1 (query Q over
// auction.xml).
func figure1Graph() *Graph {
	g := New()
	root := g.AddRoot("auction.xml")
	oa := g.AddElem("auction.xml", "open_auction")
	reserve := g.AddElem("auction.xml", "reserve")
	bidder := g.AddElem("auction.xml", "bidder")
	personref := g.AddElem("auction.xml", "personref")
	person := g.AddElem("auction.xml", "person")
	education := g.AddElem("auction.xml", "education")
	aperson := g.AddAttr("auction.xml", "person", NoPred)
	aid := g.AddAttr("auction.xml", "id", NoPred)

	g.AddStep(root, oa, ops.AxisDesc)
	g.AddStep(oa, reserve, ops.AxisChild)
	g.AddStep(oa, bidder, ops.AxisChild)
	g.AddStep(bidder, personref, ops.AxisDesc)
	g.AddStep(personref, aperson, ops.AxisAttribute)
	g.AddStep(root, person, ops.AxisDesc)
	g.AddStep(person, education, ops.AxisDesc)
	g.AddStep(person, aid, ops.AxisAttribute)
	g.AddJoin(aperson, aid)
	return g
}

func TestFigure1GraphValid(t *testing.T) {
	g := figure1Graph()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !g.Connected() {
		t.Errorf("Fig 1 graph should be connected")
	}
	if len(g.Vertices) != 9 || len(g.Edges) != 9 {
		t.Errorf("got %d vertices, %d edges; want 9, 9", len(g.Vertices), len(g.Edges))
	}
	if got := len(g.JoinEdges(true)); got != 1 {
		t.Errorf("join edges = %d, want 1", got)
	}
	if got := len(g.StepEdges()); got != 8 {
		t.Errorf("step edges = %d, want 8", got)
	}
}

func TestEdgesOfAndDegree(t *testing.T) {
	g := figure1Graph()
	// open_auction (v1) touches: root step, reserve step, bidder step.
	if got := g.Degree(1); got != 3 {
		t.Errorf("Degree(open_auction) = %d, want 3", got)
	}
	for _, e := range g.EdgesOf(1) {
		if !e.Touches(1) {
			t.Errorf("EdgesOf returned edge %d not touching vertex 1", e.ID)
		}
	}
	e := g.Edges[0]
	if e.Other(e.From) != e.To || e.Other(e.To) != e.From {
		t.Errorf("Other is not symmetric")
	}
}

func TestJoinEquivalenceClosure(t *testing.T) {
	// Four text vertices joined in a chain, as in the DBLP query (Fig 4):
	// t1=t2, t1=t3, t1=t4 (star). Closure adds t2=t3, t2=t4, t3=t4.
	g := New()
	var ts []int
	for i := 0; i < 4; i++ {
		ts = append(ts, g.AddText("d", NoPred))
	}
	g.AddJoin(ts[0], ts[1])
	g.AddJoin(ts[0], ts[2])
	g.AddJoin(ts[0], ts[3])
	added := closeJoins(g)
	if added != 3 {
		t.Fatalf("closure added %d edges, want 3", added)
	}
	if got := len(g.JoinEdges(true)); got != 6 {
		t.Errorf("total join edges = %d, want 6 (complete K4)", got)
	}
	if got := len(g.JoinEdges(false)); got != 3 {
		t.Errorf("original join edges = %d, want 3", got)
	}
	for _, e := range g.JoinEdges(true) {
		if e.Derived && (e.From == ts[0] || e.To == ts[0]) {
			t.Errorf("derived edge %d touches the star center", e.ID)
		}
	}
	// Closure is idempotent.
	if again := closeJoins(g); again != 0 {
		t.Errorf("second closure added %d edges, want 0", again)
	}
}

func TestClosureTwoSeparateClasses(t *testing.T) {
	g := New()
	a1 := g.AddText("d", NoPred)
	a2 := g.AddText("d", NoPred)
	a3 := g.AddText("d", NoPred)
	b1 := g.AddAttr("d", "x", NoPred)
	b2 := g.AddAttr("d", "y", NoPred)
	g.AddJoin(a1, a2)
	g.AddJoin(a2, a3)
	g.AddJoin(b1, b2)
	added := closeJoins(g)
	if added != 1 { // only a1=a3; the b class has just 2 members
		t.Errorf("closure added %d, want 1", added)
	}
}

func TestValidateRejectsBadGraphs(t *testing.T) {
	g := New()
	e1 := g.AddElem("d", "a")
	e2 := g.AddElem("d", "b")
	g.AddJoin(e1, e2) // equi-join between element vertices: invalid
	if err := g.Validate(); err == nil {
		t.Errorf("join between element vertices should fail validation")
	}

	g2 := New()
	a := g2.AddElem("d1", "a")
	b := g2.AddElem("d2", "b")
	g2.AddStep(a, b, ops.AxisChild) // step across documents: invalid
	if err := g2.Validate(); err == nil {
		t.Errorf("cross-document step should fail validation")
	}

	g3 := New()
	x := g3.AddElem("d", "a")
	y := g3.AddElem("d", "b")
	g3.AddStep(x, y, ops.AxisAttribute) // attribute axis into element vertex
	if err := g3.Validate(); err == nil {
		t.Errorf("attribute axis into element vertex should fail validation")
	}

	g4 := New()
	p := g4.AddElem("d", "a")
	q := g4.AddAttr("d", "id", NoPred)
	g4.AddStep(p, q, ops.AxisChild) // child axis into attribute vertex
	if err := g4.Validate(); err == nil {
		t.Errorf("child axis into attribute vertex should fail validation")
	}
}

func TestConnected(t *testing.T) {
	g := New()
	a := g.AddElem("d", "a")
	b := g.AddElem("d", "b")
	g.AddElem("d", "island")
	g.AddStep(a, b, ops.AxisChild)
	if g.Connected() {
		t.Errorf("graph with island vertex reported connected")
	}
}

func TestPredicates(t *testing.T) {
	eq := EqPred("145")
	if eq.Kind != PredEqString || eq.Str != "145" {
		t.Errorf("EqPred = %+v", eq)
	}
	rp := RangePred(index.Lt, 145)
	if rp.Kind != PredRange || rp.Op != index.Lt || rp.Num != 145 {
		t.Errorf("RangePred = %+v", rp)
	}
	if got := rp.String(); got != "<145" {
		t.Errorf("RangePred.String = %q", got)
	}
	if NoPred.String() != "" {
		t.Errorf("NoPred.String = %q", NoPred.String())
	}
}

func TestIndexSelectable(t *testing.T) {
	g := New()
	root := g.AddRoot("d")
	elem := g.AddElem("d", "a")
	txtNone := g.AddText("d", NoPred)
	txtEq := g.AddText("d", EqPred("x"))
	txtRange := g.AddText("d", RangePred(index.Gt, 1))
	attr := g.AddAttr("d", "id", NoPred)
	want := map[int]bool{root: false, elem: true, txtNone: false, txtEq: true, txtRange: true, attr: true}
	for id, w := range want {
		if got := g.Vertices[id].IndexSelectable(); got != w {
			t.Errorf("IndexSelectable(%s) = %v, want %v", g.Vertices[id].Label(), got, w)
		}
	}
}

func TestRendering(t *testing.T) {
	g := figure1Graph()
	s := g.String()
	for _, want := range []string{"open_auction", "@person", "=", "◦"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	dot := g.DOT()
	for _, want := range []string{"graph joingraph", "v0 --", "label"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT() missing %q", want)
		}
	}
}

// --- Fingerprint ---

func fingerprintGraph() *Graph {
	g := New()
	r := g.AddRoot("a.xml")
	p := g.AddElem("a.xml", "person")
	n := g.AddElem("a.xml", "name")
	tx := g.AddText("a.xml", EqPred("ann"))
	g.AddStep(r, p, ops.AxisDesc)
	g.AddStep(p, n, ops.AxisChild)
	g.AddStep(n, tx, ops.AxisChild)
	return g
}

func TestFingerprintDeterministic(t *testing.T) {
	a, b := fingerprintGraph().Fingerprint(), fingerprintGraph().Fingerprint()
	if a == "" || a != b {
		t.Fatalf("fingerprints differ: %q vs %q", a, b)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fingerprintGraph().Fingerprint()

	doc := New()
	r := doc.AddRoot("b.xml") // same shape, different document
	p := doc.AddElem("b.xml", "person")
	n := doc.AddElem("b.xml", "name")
	tx := doc.AddText("b.xml", EqPred("ann"))
	doc.AddStep(r, p, ops.AxisDesc)
	doc.AddStep(p, n, ops.AxisChild)
	doc.AddStep(n, tx, ops.AxisChild)
	if doc.Fingerprint() == base {
		t.Error("different document name should change the fingerprint")
	}

	pred := fingerprintGraph()
	pred.Vertices[3].Pred = EqPred("bob") // same shape, different predicate
	if pred.Fingerprint() == base {
		t.Error("different predicate value should change the fingerprint")
	}

	axis := fingerprintGraph()
	axis.Edges[1].Axis = ops.AxisDesc // same shape, different axis
	if axis.Fingerprint() == base {
		t.Error("different axis should change the fingerprint")
	}
}

// TestAddJoinEquivalencesDeterministic: derived edges must be appended in the
// same order on every compile — edge IDs are plan-cache currency (a cached
// plan references edges by ID in a freshly compiled graph).
func TestAddJoinEquivalencesDeterministic(t *testing.T) {
	build := func() *Graph {
		g := New()
		// Two separate equivalence classes, each of size 3, so the class
		// iteration order matters.
		var a, b [3]int
		for i := range a {
			root := g.AddRoot("a.xml")
			e := g.AddElem("a.xml", "x")
			g.AddStep(root, e, ops.AxisDesc)
			a[i] = g.AddText("a.xml", NoPred)
			g.AddStep(e, a[i], ops.AxisChild)
			b[i] = g.AddText("a.xml", NoPred)
			g.AddStep(e, b[i], ops.AxisChild)
		}
		g.AddJoin(a[0], a[1])
		g.AddJoin(a[1], a[2])
		g.AddJoin(b[0], b[1])
		g.AddJoin(b[1], b[2])
		closeJoins(g)
		return g
	}
	want := build().Fingerprint()
	for i := 0; i < 20; i++ {
		if got := build().Fingerprint(); got != want {
			t.Fatalf("run %d: derived-edge order unstable: %q vs %q", i, got, want)
		}
	}
}

func TestCloneRebindDoc(t *testing.T) {
	g := New()
	r := g.AddRoot("coll")
	p := g.AddElem("coll", "person")
	tx := g.AddText("coll", EqPred("x"))
	other := g.AddElem("other.xml", "thing")
	g.AddStep(r, p, ops.AxisDesc)
	g.AddStep(p, tx, ops.AxisChild)
	g.AddStep(other, other2(g), ops.AxisChild)

	clone := g.CloneRebindDoc("coll", "shard-0.xml")
	if len(clone.Vertices) != len(g.Vertices) || len(clone.Edges) != len(g.Edges) {
		t.Fatalf("clone shape differs: %d/%d vertices, %d/%d edges",
			len(clone.Vertices), len(g.Vertices), len(clone.Edges), len(g.Edges))
	}
	for i, v := range clone.Vertices {
		if v.ID != g.Vertices[i].ID || v.Kind != g.Vertices[i].Kind || v.QName != g.Vertices[i].QName {
			t.Errorf("vertex %d changed identity: %+v vs %+v", i, v, g.Vertices[i])
		}
		want := g.Vertices[i].Doc
		if want == "coll" {
			want = "shard-0.xml"
		}
		if v.Doc != want {
			t.Errorf("vertex %d doc = %q, want %q", i, v.Doc, want)
		}
	}
	// Predicates survive the rebind.
	if clone.Vertices[tx].Pred.Kind != PredEqString || clone.Vertices[tx].Pred.Str != "x" {
		t.Errorf("text predicate lost: %+v", clone.Vertices[tx].Pred)
	}
	// The original is untouched (deep copy, not aliasing).
	clone.Vertices[p].QName = "mutated"
	if g.Vertices[p].QName != "person" {
		t.Error("mutating the clone changed the original graph")
	}
	for _, v := range g.Vertices {
		if v.Doc == "shard-0.xml" {
			t.Error("rebind leaked into the original graph")
		}
	}
	// Same structure must mean same edge IDs, so plans transfer verbatim.
	for i, e := range clone.Edges {
		o := g.Edges[i]
		if e.ID != o.ID || e.Kind != o.Kind || e.From != o.From || e.To != o.To || e.Axis != o.Axis {
			t.Errorf("edge %d changed: %+v vs %+v", i, e, o)
		}
	}
	// Fingerprints differ (the document name is part of the hash) — that is
	// what keys shard plans separately.
	if g.Fingerprint() == clone.Fingerprint() {
		t.Error("rebound graph kept the original fingerprint")
	}
}

// other2 adds a second vertex on the non-collection document so the rebind
// has something it must leave alone.
func other2(g *Graph) int { return g.AddText("other.xml", NoPred) }

// closeJoins closes g's join equivalences without a practical cap.
func closeJoins(g *Graph) int {
	added, err := g.AddJoinEquivalences(math.MaxInt)
	if err != nil {
		panic(err)
	}
	return added
}

// TestJoinEquivalencesCap: a class of k text vertices closes into k(k-1)/2
// join edges. At the cap the closure runs; one below it, the graph is left
// as it was and the error names both counts.
func TestJoinEquivalencesCap(t *testing.T) {
	build := func() *Graph {
		g := New()
		root := g.AddRoot("d.xml")
		var ts []int
		for i := 0; i < 5; i++ {
			ts = append(ts, g.AddText("d.xml", NoPred))
			g.AddStep(root, ts[i], ops.AxisDesc)
		}
		for i := 1; i < len(ts); i++ {
			g.AddJoin(ts[i-1], ts[i])
		}
		g.AddJoin(ts[0], ts[1]) // a repeated join is an edge of its own
		return g
	}
	const closed = 5*4/2 + 1
	g := build()
	if added, err := g.AddJoinEquivalences(closed); err != nil || added != closed-5 {
		t.Fatalf("at the cap: added %d, %v; want %d, nil", added, err, closed-5)
	}
	g = build()
	edges := len(g.Edges)
	_, err := g.AddJoinEquivalences(closed - 1)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(closed)) || len(g.Edges) != edges {
		t.Fatalf("over the cap: err = %v, %d edges (had %d)", err, len(g.Edges), edges)
	}
}
