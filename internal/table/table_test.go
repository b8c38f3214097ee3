package table

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

func smallDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString("t.xml", "<r><a/><a/><a/><a/><a/><a/><a/><a/></r>")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

// TestDistinctSortsOneColumn pins the one-column tail distinct: an unsorted
// column with duplicates comes out as its ascending node set, the input
// column untouched, and a strictly ascending column is kept as a view.
func TestDistinctSortsOneColumn(t *testing.T) {
	d := smallDoc(t)
	in := []xmltree.NodeID{5, 3, 5, 1, 3, 9}
	r := FromColumns([]int{7}, []*xmltree.Document{d}, [][]xmltree.NodeID{slices.Clone(in)})
	got := r.Distinct()
	if want := []xmltree.NodeID{1, 3, 5, 9}; !slices.Equal(got.Column(7), want) || got.Doc(7) != d {
		t.Fatalf("Distinct = %v, want %v", got.Column(7), want)
	}
	if !slices.Equal(r.Column(7), in) {
		t.Errorf("Distinct rewrote its input column: %v", r.Column(7))
	}
	sorted := got.Distinct()
	if &sorted.Column(7)[0] != &got.Column(7)[0] {
		t.Errorf("Distinct copied an already distinct ascending column")
	}
}

// TestDistinctPacksTwoColumns checks the packed two-column distinct against
// a comparator sort and compact of the rows, large node ids included (the
// high half of the packed key), and that the input columns stay untouched.
func TestDistinctPacksTwoColumns(t *testing.T) {
	d := smallDoc(t)
	rng := rand.New(rand.NewSource(30))
	for n := 0; n < 200; n += 7 {
		in := [2][]xmltree.NodeID{make([]xmltree.NodeID, n), make([]xmltree.NodeID, n)}
		for i := range n {
			in[0][i], in[1][i] = xmltree.NodeID(rng.Intn(6)), xmltree.NodeID(rng.Intn(4))
			if rng.Intn(5) == 0 {
				in[rng.Intn(2)][i] = 1<<31 - 1 - xmltree.NodeID(rng.Intn(3))
			}
		}
		var want [][2]xmltree.NodeID
		for i := range n {
			want = append(want, [2]xmltree.NodeID{in[0][i], in[1][i]})
		}
		slices.SortFunc(want, func(a, b [2]xmltree.NodeID) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
		want = slices.Compact(want)
		r := FromColumns([]int{3, 8}, []*xmltree.Document{d, d}, [][]xmltree.NodeID{slices.Clone(in[0]), slices.Clone(in[1])})
		got := r.Distinct()
		if got.NumRows() != len(want) {
			t.Fatalf("n=%d: Distinct has %d rows, want %d", n, got.NumRows(), len(want))
		}
		for i, w := range want {
			if row := got.Row(i); row[0] != w[0] || row[1] != w[1] {
				t.Fatalf("n=%d: row %d = %v, want %v", n, i, row, w)
			}
		}
		if !slices.Equal(r.Column(3), in[0]) || !slices.Equal(r.Column(8), in[1]) {
			t.Fatalf("n=%d: Distinct rewrote its input columns", n)
		}
	}
}

// TestDistinctNodesReusesUnreducedTable walks the three ways T(v) is
// refreshed after a merge: a column that still holds every node of the
// previous table reuses that table's nodes, a strictly ascending column is viewed
// in place, and a reduced unsorted column is written at its exact size.
func TestDistinctNodesReusesUnreducedTable(t *testing.T) {
	d := smallDoc(t)
	prev := NewTable(d, []xmltree.NodeID{1, 3, 5, 9})
	rel := func(col ...xmltree.NodeID) *Relation {
		return FromColumns([]int{4}, []*xmltree.Document{d}, [][]xmltree.NodeID{col})
	}
	var words []uint64
	if got := rel(9, 1, 3, 3, 5, 1).DistinctNodes(4, prev, &words); got == prev || &got.Nodes[0] != &prev.Nodes[0] {
		t.Errorf("unreduced column: got %v, want a new table over the previous table's nodes", got.Nodes)
	}
	asc := rel(1, 5, 9)
	if got := asc.DistinctNodes(4, prev, &words); !slices.Equal(got.Nodes, asc.Column(4)) || &got.Nodes[0] != &asc.Column(4)[0] {
		t.Errorf("ascending column: got %v, want a view of the column", got.Nodes)
	}
	got := rel(9, 3, 9, 3).DistinctNodes(4, prev, &words)
	if !slices.Equal(got.Nodes, []xmltree.NodeID{3, 9}) || cap(got.Nodes) != 2 || got.Doc != d {
		t.Errorf("reduced column: got %v (cap %d), want [3 9] at its exact size", got.Nodes, cap(got.Nodes))
	}
	if got := rel(3, 1, 3).DistinctNodes(4, nil, nil); !slices.Equal(got.Nodes, []xmltree.NodeID{1, 3}) {
		t.Errorf("no previous table: got %v, want [1 3]", got.Nodes)
	}
}

func TestSampleProperties(t *testing.T) {
	// Property: a sample of size l has min(l, n) distinct tuples, all drawn
	// from the source, in document order.
	f := func(seed int64, l uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := make([]xmltree.NodeID, 50)
		for i := range nodes {
			nodes[i] = xmltree.NodeID(i * 2)
		}
		tb := &Table{Nodes: nodes}
		s := tb.Sample(int(l%60), rng)
		want := int(l % 60)
		if want > 50 {
			want = 50
		}
		if s.Len() != want {
			return false
		}
		if !slices.IsSorted(s.Nodes) {
			return false
		}
		seen := map[xmltree.NodeID]bool{}
		for _, n := range s.Nodes {
			if _, in := slices.BinarySearch(tb.Nodes, n); seen[n] || !in {
				return false
			}
			seen[n] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// floydMapSample is Sample as it was with Floyd's chosen indices in a map,
// then sorted: the oracle the map-free sampler must reproduce draw for draw.
func floydMapSample(t *Table, l int, rng *rand.Rand) []xmltree.NodeID {
	n := t.Len()
	chosen := make(map[int]struct{}, l)
	for j := n - l; j < n; j++ {
		k := rng.Intn(j + 1)
		if _, dup := chosen[k]; dup {
			k = j
		}
		chosen[k] = struct{}{}
	}
	idx := make([]int, 0, l)
	for k := range chosen {
		idx = append(idx, k)
	}
	slices.Sort(idx)
	nodes := make([]xmltree.NodeID, len(idx))
	for i, k := range idx {
		nodes[i] = t.Nodes[k]
	}
	return nodes
}

// TestSampleMatchesMapOracle draws samples of every size below n — l = n−1
// included — with several draws from one stream per seed, so that a sampler
// consuming the random stream differently would drift on a later draw.
func TestSampleMatchesMapOracle(t *testing.T) {
	for n := 1; n <= 40; n++ {
		tb := &Table{Nodes: make([]xmltree.NodeID, n)}
		for i := range tb.Nodes {
			tb.Nodes[i] = xmltree.NodeID(3*i + 1)
		}
		for l := 0; l < n; l++ {
			for seed := int64(0); seed < 6; seed++ {
				got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for draw := 0; draw < 3; draw++ {
					s, w := tb.Sample(l, got), floydMapSample(tb, l, want)
					if !slices.Equal(s.Nodes, w) {
						t.Fatalf("n %d l %d seed %d draw %d: Sample = %v, want %v", n, l, seed, draw, s.Nodes, w)
					}
				}
			}
		}
	}
}

func TestSampleWholeTableIsTheTable(t *testing.T) {
	tb := &Table{Nodes: []xmltree.NodeID{2, 4, 6}}
	for _, l := range []int{3, 10} {
		if s := tb.Sample(l, rand.New(rand.NewSource(1))); s != tb {
			t.Errorf("Sample(%d) of %d nodes copied the table", l, tb.Len())
		}
	}
}

func TestSampleUniformity(t *testing.T) {
	// With many draws of 1 from 10 elements, each should be hit roughly
	// uniformly (chi-square-ish loose bound).
	rng := rand.New(rand.NewSource(42))
	nodes := make([]xmltree.NodeID, 10)
	for i := range nodes {
		nodes[i] = xmltree.NodeID(i)
	}
	tb := &Table{Nodes: nodes}
	counts := make([]int, 10)
	const draws = 10000
	for i := 0; i < draws; i++ {
		s := tb.Sample(1, rng)
		counts[s.Nodes[0]]++
	}
	for i, c := range counts {
		if c < draws/10/2 || c > draws/10*2 {
			t.Errorf("element %d drawn %d times, expected ~%d", i, c, draws/10)
		}
	}
}

func TestRelationBasics(t *testing.T) {
	d := smallDoc(t)
	r := NewRelation([]int{10, 20}, []*xmltree.Document{d, d})
	r.AppendRow([]xmltree.NodeID{1, 2})
	r.AppendRow([]xmltree.NodeID{3, 4})
	r.AppendRow([]xmltree.NodeID{1, 2})
	if r.NumRows() != 3 || r.NumCols() != 2 {
		t.Fatalf("rows=%d cols=%d", r.NumRows(), r.NumCols())
	}
	if !r.HasColumn(10) || r.HasColumn(99) {
		t.Errorf("HasColumn wrong")
	}
	if got := r.Row(1); got[0] != 3 || got[1] != 4 {
		t.Errorf("Row(1) = %v", got)
	}

	dist := r.Distinct()
	if dist.NumRows() != 2 {
		t.Errorf("Distinct rows = %d, want 2", dist.NumRows())
	}

	tbl := r.DistinctNodes(10, nil, nil)
	if tbl.Len() != 2 || tbl.Nodes[0] != 1 || tbl.Nodes[1] != 3 {
		t.Errorf("DistinctNodes = %v", tbl.Nodes)
	}
}

func TestRelationProjectSort(t *testing.T) {
	d := smallDoc(t)
	r := NewRelation([]int{1, 2}, []*xmltree.Document{d, d})
	r.AppendRow([]xmltree.NodeID{5, 1})
	r.AppendRow([]xmltree.NodeID{3, 2})
	r.AppendRow([]xmltree.NodeID{5, 0})

	p := r.Project([]int{2})
	if p.NumCols() != 1 || p.NumRows() != 3 || p.Column(2)[0] != 1 {
		t.Errorf("Project = %v rows=%d", p.ColumnIDs(), p.NumRows())
	}

	r.SortBy([]int{1, 2})
	if c := r.Column(1); c[0] != 3 || c[1] != 5 || c[2] != 5 {
		t.Errorf("SortBy col1 = %v", c)
	}
	if c := r.Column(2); c[1] != 0 || c[2] != 1 {
		t.Errorf("SortBy col2 tie-break = %v", c)
	}

}

func TestFromColumnsAdopts(t *testing.T) {
	d := smallDoc(t)
	c1, c2 := []xmltree.NodeID{5, 3}, []xmltree.NodeID{1, 2}
	r := FromColumns([]int{1, 2}, []*xmltree.Document{d, d}, [][]xmltree.NodeID{c1, c2})
	if r.NumRows() != 2 || r.NumCols() != 2 || &r.Column(2)[0] != &c2[0] {
		t.Errorf("FromColumns did not adopt its columns: %s", r)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("FromColumns accepted 2 ids for 1 column")
		}
	}()
	FromColumns([]int{1, 2}, []*xmltree.Document{d, d}, [][]xmltree.NodeID{c1})
}

func TestFromTable(t *testing.T) {
	d := smallDoc(t)
	tb := NewTable(d, []xmltree.NodeID{4, 7})
	r := FromTable(3, tb)
	if r.NumRows() != 2 || r.NumCols() != 1 {
		t.Fatalf("FromTable shape wrong: %s", r)
	}
	if r.Doc(3) != d {
		t.Errorf("Doc not propagated")
	}
	// Mutating the relation column must not affect the source table.
	r.Column(3)[0] = 99
	if tb.Nodes[0] != 4 {
		t.Errorf("FromTable aliased the source slice")
	}
}

func TestDistinctRandomized(t *testing.T) {
	// Property: Distinct yields no duplicate rows and every original row is
	// represented.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := &xmltree.Document{}
		_ = d
		r := NewRelation([]int{1, 2}, []*xmltree.Document{nil, nil})
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			r.AppendRow([]xmltree.NodeID{xmltree.NodeID(rng.Intn(5)), xmltree.NodeID(rng.Intn(5))})
		}
		dist := r.Distinct()
		seen := map[[2]xmltree.NodeID]bool{}
		for i := 0; i < dist.NumRows(); i++ {
			k := [2]xmltree.NodeID{dist.Column(1)[i], dist.Column(2)[i]}
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		for i := 0; i < r.NumRows(); i++ {
			k := [2]xmltree.NodeID{r.Column(1)[i], r.Column(2)[i]}
			if !seen[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
