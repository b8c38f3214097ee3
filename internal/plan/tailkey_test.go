package plan

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/table"
	"repro/internal/xmltree"
)

func keyDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString("k.xml", `<r>
		<a id="z"><b>10</b><b>2</b></a>
		<a id="y"><c><b>7.5</b></c></a>
		<a id="x"><b>abc</b></a>
		<a id="w"></a>
	</r>`)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// elems returns the <a> nodes of the key doc in document order.
func elems(d *xmltree.Document, name string) []xmltree.NodeID {
	var out []xmltree.NodeID
	for i := xmltree.NodeID(0); i < xmltree.NodeID(d.Len()); i++ {
		if d.Kind(i) == xmltree.KindElem && d.NodeName(i) == name {
			out = append(out, i)
		}
	}
	return out
}

// extractKey atomizes the order-by key of n, hopping and over the element
// postings of d's index, and fails the test unless the two agree.
func extractKey(t *testing.T, d *xmltree.Document, n xmltree.NodeID, path []KeyStep) Key {
	t.Helper()
	k := newPathWalker(d, nil, path).key(n)
	if ik := newPathWalker(d, index.New(d), path).key(n); ik != k {
		t.Errorf("key of node %d along %v: %+v over postings, %+v hopping", n, path, ik, k)
	}
	return k
}

func TestExtractKey(t *testing.T) {
	d := keyDoc(t)
	as := elems(d, "a")
	if len(as) != 4 {
		t.Fatalf("a nodes = %d", len(as))
	}
	child := []KeyStep{{Name: "b"}}
	desc := []KeyStep{{Desc: true, Name: "b"}}
	attr := []KeyStep{{Attr: true, Name: "id"}}

	// First match in document order, atomized numerically.
	if k := extractKey(t, d, as[0], child); !k.Present || !k.IsNum || k.Num != 10 {
		t.Errorf("a[0]/b key = %+v, want numeric 10", k)
	}
	// /b on a[1] misses (the b is nested); //b finds it.
	if k := extractKey(t, d, as[1], child); k.Present {
		t.Errorf("a[1]/b key = %+v, want absent", k)
	}
	if k := extractKey(t, d, as[1], desc); !k.IsNum || k.Num != 7.5 {
		t.Errorf("a[1]//b key = %+v, want numeric 7.5", k)
	}
	// Non-numeric values stay string keys.
	if k := extractKey(t, d, as[2], child); !k.Present || k.IsNum || k.Str != "abc" {
		t.Errorf("a[2]/b key = %+v, want string abc", k)
	}
	// Attribute steps.
	if k := extractKey(t, d, as[3], attr); !k.Present || k.Str != "w" {
		t.Errorf("a[3]/@id key = %+v, want string w", k)
	}
	// Empty path atomizes the node itself.
	if k := extractKey(t, d, as[0], nil); !k.Present || !k.IsNum || k.Num != 102 {
		t.Errorf("a[0] self key = %+v, want numeric 102 (concatenated text)", k)
	}
}

func TestKeyCompareTotalOrder(t *testing.T) {
	absent := Key{}
	n1 := Key{Present: true, IsNum: true, Num: 1, Str: "1"}
	n2 := Key{Present: true, IsNum: true, Num: 2, Str: "2"}
	sa := Key{Present: true, Str: "a"}
	sb := Key{Present: true, Str: "b"}
	order := []Key{absent, n1, n2, sa, sb}
	for i, a := range order {
		for j, b := range order {
			got := a.Compare(b)
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%+v, %+v) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestAggStateExactMergeIsGroupingInvariant is the algebra behind the shard
// equivalence contract: folding adversarial floating-point values in any
// shard grouping and merging the partial states must round to the exact same
// sum as one sequential fold.
func TestAggStateExactMergeIsGroupingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 2000)
	for i := range vals {
		// Mix tiny and huge magnitudes so naive summation would lose bits.
		vals[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(20)-10))
	}
	var whole AggState
	for _, v := range vals {
		whole.Add(v)
	}
	for _, shards := range []int{2, 3, 7, 16} {
		parts := make([]AggState, shards)
		for i, v := range vals {
			parts[i%shards].Add(v)
		}
		var merged AggState
		for i := range parts {
			merged.Merge(&parts[i])
		}
		if got, want := merged.Sum(), whole.Sum(); got != want {
			t.Errorf("%d-way merged sum = %g, sequential = %g (must be bit-identical)", shards, got, want)
		}
		if merged.Count != whole.Count || merged.Min != whole.Min || merged.Max != whole.Max {
			t.Errorf("%d-way merged state (n=%d min=%g max=%g) != whole (n=%d min=%g max=%g)",
				shards, merged.Count, merged.Min, merged.Max, whole.Count, whole.Min, whole.Max)
		}
	}
}

func TestAggStateRender(t *testing.T) {
	var s AggState
	for _, v := range []float64{10, 2.5, 30} {
		s.Add(v)
	}
	cases := []struct {
		kind AggKind
		want string
	}{
		{AggCount, "3"},
		{AggSum, "42.5"},
		{AggMin, "2.5"},
		{AggMax, "30"},
	}
	for _, c := range cases {
		got, ok := s.Render(c.kind)
		if !ok || got != c.want {
			t.Errorf("Render(%s) = %q ok=%v, want %q", c.kind, got, ok, c.want)
		}
	}
	// Empty avg/min/max are undefined (XQuery's empty sequence); count and
	// sum have identities.
	var empty AggState
	if got, ok := empty.Render(AggAvg); ok {
		t.Errorf("empty avg rendered %q, want undefined", got)
	}
	if got, ok := empty.Render(AggSum); !ok || got != "0" {
		t.Errorf("empty sum = %q ok=%v, want 0", got, ok)
	}
	if got, ok := empty.Render(AggCount); !ok || got != "0" {
		t.Errorf("empty count = %q ok=%v, want 0", got, ok)
	}
}

func TestFoldAggNonNumericFails(t *testing.T) {
	d := keyDoc(t)
	as := elems(d, "a")
	rel := table.FromTable(0, &table.Table{Doc: d, Nodes: as})
	if _, err := FoldAgg(rel, &AggSpec{Kind: AggSum, Vertex: 0, Path: []KeyStep{{Name: "b"}}}); err == nil {
		t.Fatal("sum over a non-numeric b survived")
	}
	// min over only the numeric-valued subtree works.
	st, err := FoldAgg(rel, &AggSpec{Kind: AggMin, Vertex: 0, Path: []KeyStep{{Name: "c"}, {Name: "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 1 || st.Min != 7.5 {
		t.Errorf("fold state = %+v", st)
	}
}

// TestMatchNodesNestedDescendantIsSet pins node-set semantics: a descendant
// step over nested same-name elements must not double-count the shared
// subtree (each reachable node contributes exactly once, in document order).
func TestMatchNodesNestedDescendantIsSet(t *testing.T) {
	d, err := xmltree.ParseString("n.xml", `<r><a><a><b>1</b></a><b>2</b></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	root := elems(d, "r")
	rel := table.FromTable(0, &table.Table{Doc: d, Nodes: root})
	path := []KeyStep{{Desc: true, Name: "a"}, {Desc: true, Name: "b"}}
	st, err := FoldAgg(rel, &AggSpec{Kind: AggSum, Vertex: 0, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	// //a yields both (nested) a elements; their overlapping subtree scans
	// reach <b>1</b> twice and <b>2</b> once — as a set that is {1, 2}.
	if st.Count != 2 || st.Sum() != 3 {
		t.Errorf("sum($r//a//b) state = count %d sum %g, want (2, 3)", st.Count, st.Sum())
	}
	if ms := newPathWalker(d, nil, path).matchNodes(root[0]); len(ms) != 2 || ms[0] >= ms[1] {
		t.Errorf("matchNodes = %v, want 2 distinct nodes in document order", ms)
	}
}

// TestFoldAggAllMatchesContribute pins XQuery sequence semantics: every node
// the aggregate path reaches contributes, not just the first.
func TestFoldAggAllMatchesContribute(t *testing.T) {
	d := keyDoc(t)
	as := elems(d, "a")
	rel := table.FromTable(0, &table.Table{Doc: d, Nodes: as[:1]}) // first <a> only
	st, err := FoldAgg(rel, &AggSpec{Kind: AggSum, Vertex: 0, Path: []KeyStep{{Name: "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 2 || st.Sum() != 12 {
		t.Errorf("state = count %d sum %g, want both <b> children (2, 12)", st.Count, st.Sum())
	}
}

func TestTailApplyOrdersByKey(t *testing.T) {
	d := keyDoc(t)
	as := elems(d, "a")
	rel := table.FromTable(0, &table.Table{Doc: d, Nodes: as})
	tail := &Tail{
		Project: []int{0},
		Final:   []int{0},
		Order:   &OrderSpec{Vertex: 0, Path: []KeyStep{{Desc: true, Name: "b"}}},
	}
	out := tail.Apply(rel)
	// Keys: a[0]→10, a[1]→7.5, a[2]→"abc", a[3]→absent.
	// Ascending: absent, 7.5, 10, "abc" → a[3], a[1], a[0], a[2].
	want := []xmltree.NodeID{as[3], as[1], as[0], as[2]}
	col := out.Column(0)
	for i, n := range want {
		if col[i] != n {
			t.Fatalf("row %d = node %d, want %d (full: %v)", i, col[i], n, col)
		}
	}
	// Descending reverses.
	tail.Order.Desc = true
	out = tail.Apply(rel)
	col = out.Column(0)
	for i, n := range want {
		if col[len(want)-1-i] != n {
			t.Fatalf("desc row %d = node %d, want %d", len(want)-1-i, col[len(want)-1-i], n)
		}
	}
}

func TestFormatNumber(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{1500, "1500"},
		{-3, "-3"},
		{0, "0"},
		{0.5, "0.5"},
		{21.833333333333332, "21.833333333333332"},
		{1e20, "1e+20"},
	}
	for _, c := range cases {
		if got := FormatNumber(c.v); got != c.want {
			t.Errorf("FormatNumber(%g) = %q, want %q", c.v, got, c.want)
		}
	}
}
