package classical

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/planenum"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

func fourDocs(t *testing.T, sizes []int, common string) (*plan.Env, *xquery.Compiled) {
	t.Helper()
	env := plan.NewEnv(metrics.NewRecorder(), 3)
	src := ""
	for i, n := range sizes {
		name := fmt.Sprintf("D%d.xml", i+1)
		b := xmltree.NewBuilder(name)
		b.StartElem("journal")
		for j := 0; j < n; j++ {
			b.StartElem("article")
			b.StartElem("author")
			b.Text(fmt.Sprintf("doc%d-a%d", i, j))
			b.EndElem()
			b.EndElem()
		}
		if common != "" {
			b.StartElem("article")
			b.StartElem("author")
			b.Text(common)
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
		t.Fatal(err)
	}
	return env, comp
}

func TestSmallestInputOrder(t *testing.T) {
	// Sizes 40, 10, 30, 5 (+1 common author) → order should start with the
	// two smallest documents: 4 (5+1 tags) and 2 (10+1), then 3, then 1.
	env, comp := fourDocs(t, []int{40, 10, 30, 5}, "ann")
	fw, err := planenum.AnalyzeFourWay(comp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	order, err := SmallestInputOrder(env, comp.Graph, fw)
	if err != nil {
		t.Fatal(err)
	}
	if order.Bushy {
		t.Errorf("classical order must be linear")
	}
	if order.First != [2]int{3, 1} {
		t.Errorf("first pair = %v, want docs 4 and 2 (indices 3,1)", order.First)
	}
	if order.Rest != [2]int{2, 0} {
		t.Errorf("rest = %v, want docs 3 then 1 (indices 2,0)", order.Rest)
	}
	if got := order.Label(); got != "(4-2)-3-1" {
		t.Errorf("label = %s, want (4-2)-3-1", got)
	}
}

func TestClassicalPlanExecutes(t *testing.T) {
	env, comp := fourDocs(t, []int{20, 10, 15, 5}, "ann")
	fw, err := planenum.AnalyzeFourWay(comp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	order, err := SmallestInputOrder(env, comp.Graph, fw)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range planenum.Placements() {
		env2, comp2 := fourDocs(t, []int{20, 10, 15, 5}, "ann")
		fw2, _ := planenum.AnalyzeFourWay(comp2.Graph)
		pl, err := fw2.BuildPlan(order, p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		rel, _, err := plan.Run(env2, comp2.Graph, pl, comp2.Tail)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if rel.NumRows() != 1 {
			t.Errorf("%v: rows = %d, want 1", p, rel.NumRows())
		}
	}
	_ = env
}

func TestStaticPlanGeneric(t *testing.T) {
	// Single-document query: static plan with exact per-edge estimates.
	env := plan.NewEnv(metrics.NewRecorder(), 2)
	b := xmltree.NewBuilder("s.xml")
	b.StartElem("r")
	for i := 0; i < 30; i++ {
		b.StartElem("x")
		b.Attr("id", fmt.Sprintf("%d", i))
		if i%3 == 0 {
			b.StartElem("y")
			b.Text("hit")
			b.EndElem()
		}
		b.EndElem()
	}
	b.EndElem()
	env.AddDocument(b.MustBuild())
	comp, err := xquery.CompileString(`for $x in doc("s.xml")//x[./y] return $x`, xquery.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := StaticPlan(env, comp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Covers(comp.Graph); err != nil {
		t.Fatalf("static plan incomplete: %v", err)
	}
	rel, _, err := plan.Run(env, comp.Graph, pl, comp.Tail)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 10 {
		t.Errorf("rows = %d, want 10", rel.NumRows())
	}
}

// TestClassicalBlindToCorrelation is the paper's core claim: on correlated
// data the classical order is much worse than ROX's.
func TestClassicalBlindToCorrelation(t *testing.T) {
	// Docs 1 and 2 are SMALL but perfectly correlated (identical authors);
	// docs 3,4 are bigger but nearly uncorrelated with everything.
	shared := make([]string, 30)
	for i := range shared {
		shared[i] = fmt.Sprintf("s%d", i)
	}
	mkEnv := func() (*plan.Env, *xquery.Compiled) {
		env := plan.NewEnv(metrics.NewRecorder(), 9)
		sets := [][]string{
			append(append([]string{}, shared...), "ann"), // 31 tags
			append(append([]string{}, shared...), "ann"), // 31 tags
			{"ann", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9",
				"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10",
				"d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9", "d10",
				"e1", "e2", "e3", "e4", "e5"}, // 35 tags
			{"ann", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9",
				"g1", "g2", "g3", "g4", "g5", "g6", "g7", "g8", "g9", "g10",
				"h1", "h2", "h3", "h4", "h5", "h6", "h7", "h8", "h9", "h10",
				"i1", "i2", "i3", "i4", "i5", "i6"}, // 36 tags
		}
		src := ""
		for i, set := range sets {
			name := fmt.Sprintf("D%d.xml", i+1)
			b := xmltree.NewBuilder(name)
			b.StartElem("journal")
			for _, a := range set {
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
			t.Fatal(err)
		}
		return env, comp
	}

	// Classical: smallest inputs are docs 1 and 2 → joins the correlated
	// pair first, producing ~31 join rows immediately.
	env, comp := mkEnv()
	fw, err := planenum.AnalyzeFourWay(comp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	order, err := SmallestInputOrder(env, comp.Graph, fw)
	if err != nil {
		t.Fatal(err)
	}
	if order.First != [2]int{0, 1} {
		t.Fatalf("expected classical to start with the correlated pair, got %v", order.First)
	}
	pl, err := fw.BuildPlan(order, planenum.SJ)
	if err != nil {
		t.Fatal(err)
	}
	env1, comp1 := mkEnv()
	fw1, _ := planenum.AnalyzeFourWay(comp1.Graph)
	pl, err = fw1.BuildPlan(order, planenum.SJ)
	if err != nil {
		t.Fatal(err)
	}
	_, classicalStats, err := plan.Run(env1, comp1.Graph, pl, comp1.Tail)
	if err != nil {
		t.Fatal(err)
	}

	// ROX.
	env2, comp2 := mkEnv()
	_, roxRes, err := core.Run(env2, comp2.Graph, comp2.Tail, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if roxRes.CumulativeIntermediate >= classicalStats.CumulativeIntermediate {
		t.Errorf("ROX intermediates (%d) not below classical (%d) on correlated data",
			roxRes.CumulativeIntermediate, classicalStats.CumulativeIntermediate)
	}
}
