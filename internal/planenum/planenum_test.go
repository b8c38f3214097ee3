package planenum

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// fourDocQuery compiles the DBLP template over four synthetic documents.
func fourDocQuery(t *testing.T, authorSets [][]string) (*plan.Env, *xquery.Compiled) {
	t.Helper()
	env := plan.NewEnv(metrics.NewRecorder(), 5)
	src := ""
	for i := range authorSets {
		name := fmt.Sprintf("D%d.xml", i+1)
		b := xmltree.NewBuilder(name)
		b.StartElem("journal")
		for _, a := range authorSets[i] {
			b.StartElem("article")
			b.StartElem("author")
			b.Text(a)
			b.EndElem()
			b.EndElem()
		}
		b.EndElem()
		env.AddDocument(b.MustBuild())
		if i == 0 {
			src = fmt.Sprintf("for $a1 in doc(%q)//author", name)
		} else {
			src += fmt.Sprintf(", $a%d in doc(%q)//author", i+1, name)
		}
	}
	src += " where $a1/text() = $a2/text() and $a1/text() = $a3/text() and $a1/text() = $a4/text() return $a1"
	comp, err := xquery.CompileString(src, xquery.CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return env, comp
}

var testSets = [][]string{
	{"ann", "bob", "cid", "dee", "eve"},
	{"ann", "bob", "cid", "fox"},
	{"ann", "bob", "gus"},
	{"ann", "hal"},
}

func TestEnumerateJoinOrders18(t *testing.T) {
	orders := EnumerateJoinOrders4()
	if len(orders) != 18 {
		t.Fatalf("enumerated %d join orders, want 18", len(orders))
	}
	labels := map[string]bool{}
	bushy := 0
	for _, o := range orders {
		l := o.Label()
		if labels[l] {
			t.Errorf("duplicate label %s", l)
		}
		labels[l] = true
		if o.Bushy {
			bushy++
		}
	}
	if bushy != 6 {
		t.Errorf("bushy orders = %d, want 6", bushy)
	}
	// Legend spot checks.
	for _, want := range []string{"(1-2)-3-4", "(1-2)-(3-4)", "(3-4)-1-2"} {
		if !labels[want] {
			t.Errorf("missing order %s (have %v)", want, labels)
		}
	}
}

func TestAnalyzeFourWay(t *testing.T) {
	_, comp := fourDocQuery(t, testSets)
	fw, err := AnalyzeFourWay(comp.Graph)
	if err != nil {
		t.Fatalf("AnalyzeFourWay: %v", err)
	}
	if len(fw.Docs) != 4 {
		t.Fatalf("docs = %v", fw.Docs)
	}
	if len(fw.Join) != 6 { // K4 closure
		t.Errorf("join pairs = %d, want 6", len(fw.Join))
	}
	for d, steps := range fw.Steps {
		if len(steps) != 1 { // author→text; root step is redundant
			t.Errorf("doc %d has %d non-redundant steps, want 1", d, len(steps))
		}
	}
}

func TestAnalyzeFourWayRejectsWrongArity(t *testing.T) {
	env := plan.NewEnv(metrics.NewRecorder(), 1)
	_ = env
	src := `for $a in doc("X.xml")//a, $b in doc("Y.xml")//b where $a/text() = $b/text() return $a`
	comp, err := xquery.CompileString(src, xquery.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeFourWay(comp.Graph); err == nil {
		t.Errorf("two-document query should be rejected")
	}
}

// TestAllOrdersAllPlacementsAgree is the global sanity check behind Fig 5:
// all 18 orders × 3 placements compute the same result.
func TestAllOrdersAllPlacementsAgree(t *testing.T) {
	wantRows := -1
	for _, o := range EnumerateJoinOrders4() {
		for _, p := range Placements() {
			env, comp := fourDocQuery(t, testSets)
			fw, err := AnalyzeFourWay(comp.Graph)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := fw.BuildPlan(o, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", o.Label(), p, err)
			}
			rel, _, err := plan.Run(env, comp.Graph, pl, comp.Tail)
			if err != nil {
				t.Fatalf("%s/%s: %v", o.Label(), p, err)
			}
			if wantRows < 0 {
				wantRows = rel.NumRows()
			} else if rel.NumRows() != wantRows {
				t.Fatalf("%s/%s: rows = %d, want %d", o.Label(), p, rel.NumRows(), wantRows)
			}
		}
	}
	// Exactly one author (ann) appears in all four documents.
	if wantRows != 1 {
		t.Errorf("result rows = %d, want 1", wantRows)
	}
}

// TestDecodeOrderRoundTrip: DecodeOrder inverts BuildPlan for every legend
// order and placement, and refuses a plan with fewer than three
// cross-document joins.
func TestDecodeOrderRoundTrip(t *testing.T) {
	_, comp := fourDocQuery(t, testSets)
	fw, err := AnalyzeFourWay(comp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range EnumerateJoinOrders4() {
		for _, p := range Placements() {
			pl, err := fw.BuildPlan(o, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", o.Label(), p, err)
			}
			got, ok := fw.DecodeOrder(comp.Graph, pl)
			if !ok || got != o.Canonical() {
				t.Errorf("%s/%s: decoded %s (ok=%v), want %s", o.Label(), p, got.Label(), ok, o.Canonical().Label())
			}
		}
	}
	pl, err := fw.BuildPlan(EnumerateJoinOrders4()[0], SJ)
	if err != nil {
		t.Fatal(err)
	}
	short := &plan.Plan{Steps: pl.Steps[:len(pl.Steps)-1]} // SJ ends with the last join
	if got, ok := fw.DecodeOrder(comp.Graph, short); ok {
		t.Errorf("two cross-document joins decoded to %s, want !ok", got.Label())
	}
	if got, ok := fw.DecodeOrder(comp.Graph, &plan.Plan{}); ok {
		t.Errorf("empty plan decoded to %s, want !ok", got.Label())
	}
}

// TestOrdersMatchROX checks ROX agrees with the enumerated plans.
func TestOrdersMatchROX(t *testing.T) {
	env, comp := fourDocQuery(t, testSets)
	rel, _, err := core.Run(env, comp.Graph, comp.Tail, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 {
		t.Errorf("ROX rows = %d, want 1", rel.NumRows())
	}
}

func TestJoinOrderIntermediateSizesDiffer(t *testing.T) {
	// Correlated data: docs 1,2 share many authors; doc 4 shares few.
	// Starting with (1-2) must produce larger cumulative intermediates
	// than starting with a doc-4 pair.
	shared := make([]string, 50)
	for i := range shared {
		shared[i] = fmt.Sprintf("s%d", i)
	}
	sets := [][]string{
		append(append([]string{}, shared...), "ann"),
		append(append([]string{}, shared...), "ann"),
		append(append([]string{}, shared...), "ann"),
		{"ann", "solo"},
	}
	var cumul = map[string]int64{}
	for _, label := range []string{"(1-2)-3-4", "(1-4)-2-3"} {
		for _, o := range EnumerateJoinOrders4() {
			if o.Label() != label {
				continue
			}
			env, comp := fourDocQuery(t, sets)
			fw, err := AnalyzeFourWay(comp.Graph)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := fw.BuildPlan(o, SJ)
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := plan.Run(env, comp.Graph, pl, comp.Tail)
			if err != nil {
				t.Fatal(err)
			}
			cumul[label] = stats.CumulativeIntermediate
		}
	}
	if cumul["(1-2)-3-4"] <= cumul["(1-4)-2-3"] {
		t.Errorf("correlated start should be more expensive: %v", cumul)
	}
}

func TestSearchSpaceCount(t *testing.T) {
	_, comp := fourDocQuery(t, testSets)
	fw, err := AnalyzeFourWay(comp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	ss := fw.CountSearchSpace()
	if ss.JoinOrders != 18 {
		t.Errorf("join orders = %d", ss.JoinOrders)
	}
	// 4 single-step docs + 3 joins: interleavings = 7!/(3!·1·1·1·1) = 840.
	if ss.Interleavings.Int64() != 840 {
		t.Errorf("interleavings = %s, want 840", ss.Interleavings)
	}
	if ss.StepDirections.Int64() != 16 { // 2^4
		t.Errorf("directions = %s, want 16", ss.StepDirections)
	}
	if ss.JoinAlgorithms.Int64() != 27 { // 3^3
		t.Errorf("algs = %s, want 27", ss.JoinAlgorithms)
	}
	want := int64(18) * 840 * 16 * 27
	if ss.Total.Int64() != want {
		t.Errorf("total = %s, want %d", ss.Total, want)
	}
}

func TestPlacementNames(t *testing.T) {
	if SJ.String() != "SJ" || JS.String() != "JS" || SJInterleaved.String() != "S_J" {
		t.Errorf("placement names wrong: %s %s %s", SJ, JS, SJInterleaved)
	}
	if len(Placements()) != 3 {
		t.Errorf("placements = %d", len(Placements()))
	}
}
