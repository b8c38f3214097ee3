package plan

import (
	"math"
	"testing"

	"repro/internal/table"
	"repro/internal/xmltree"
)

// TestLimitSpecWindow pins the window arithmetic, clamping included.
func TestLimitSpecWindow(t *testing.T) {
	cases := []struct {
		name   string
		spec   *LimitSpec
		n      int
		lo, hi int
	}{
		{"nil spec", nil, 10, 0, 10},
		{"plain limit", &LimitSpec{Count: 3}, 10, 0, 3},
		{"limit with offset", &LimitSpec{Count: 3, Offset: 4}, 10, 4, 7},
		{"offset only", &LimitSpec{Offset: 4}, 10, 4, 10},
		{"window past end", &LimitSpec{Count: 5, Offset: 8}, 10, 8, 10},
		{"offset past end", &LimitSpec{Count: 5, Offset: 20}, 10, 10, 10},
		{"empty relation", &LimitSpec{Count: 5, Offset: 2}, 0, 0, 0},
		{"negative offset clamps", &LimitSpec{Count: 2, Offset: -3}, 10, 0, 2},
		{"offset plus count overflows", &LimitSpec{Count: math.MaxInt, Offset: 1}, 10, 1, 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lo, hi := c.spec.Window(c.n)
			if lo != c.lo || hi != c.hi {
				t.Errorf("Window(%d) = [%d, %d), want [%d, %d)", c.n, lo, hi, c.lo, c.hi)
			}
		})
	}
	for _, c := range []struct {
		spec *LimitSpec
		end  int
	}{
		{&LimitSpec{Count: 3, Offset: 4}, 7},
		{&LimitSpec{Offset: 4}, -1},
		{&LimitSpec{Count: 2, Offset: -3}, 2},
		{&LimitSpec{Count: math.MaxInt, Offset: 1}, math.MaxInt},
	} {
		if got := c.spec.End(); got != c.end {
			t.Errorf("%+v End() = %d, want %d", *c.spec, got, c.end)
		}
	}
	if got := (&LimitSpec{Count: 3, Offset: 4}).String(); got != "limit 3 offset 4" {
		t.Errorf("String() = %q", got)
	}
	if got := (*LimitSpec)(nil).String(); got != "" {
		t.Errorf("nil String() = %q, want empty", got)
	}
}

// limitTestRelation builds a tiny one-column relation over a generated
// document with n value rows.
func limitTestRelation(t *testing.T, n int) (*table.Relation, *xmltree.Document) {
	t.Helper()
	xml := "<r>"
	for i := 0; i < n; i++ {
		xml += "<v/>"
	}
	xml += "</r>"
	d, err := xmltree.ParseString("d", xml)
	if err != nil {
		t.Fatal(err)
	}
	rel := table.NewRelation([]int{0}, []*xmltree.Document{d})
	for id := xmltree.NodeID(0); int(id) < d.Len(); id++ {
		if d.Kind(id) == xmltree.KindElem && d.NodeName(id) == "v" {
			rel.AppendRow([]xmltree.NodeID{id})
		}
	}
	return rel, d
}

// TestTailExecuteLimit: the window applies after every sort, reports the
// pre-window cardinality, and slices the order keys alongside the rows.
func TestTailExecuteLimit(t *testing.T) {
	rel, _ := limitTestRelation(t, 8)
	tail := &Tail{Project: []int{0}, Final: []int{0}, Limit: &LimitSpec{Count: 3, Offset: 2}}
	out, keys, scanned := tail.Execute(rel)
	if scanned != 8 {
		t.Errorf("scanned = %d, want 8", scanned)
	}
	if out.NumRows() != 3 {
		t.Errorf("windowed rows = %d, want 3", out.NumRows())
	}
	if keys != nil {
		t.Errorf("keys = %v for an unordered tail", keys)
	}
	// The window keeps rows [2, 5) of the sorted order: node ids ascend, so
	// the slice must too, starting at the third distinct row.
	full, _, _ := (&Tail{Project: []int{0}, Final: []int{0}}).Execute(rel)
	for i := 0; i < 3; i++ {
		if out.Column(0)[i] != full.Column(0)[i+2] {
			t.Errorf("windowed row %d = node %d, want node %d", i, out.Column(0)[i], full.Column(0)[i+2])
		}
	}
}

// TestTailExecuteLimitEmptyWindow: an offset beyond the result yields an
// empty relation but the full scanned count.
func TestTailExecuteLimitEmptyWindow(t *testing.T) {
	rel, _ := limitTestRelation(t, 4)
	tail := &Tail{Project: []int{0}, Final: []int{0}, Limit: &LimitSpec{Count: 2, Offset: 100}}
	out, _, scanned := tail.Execute(rel)
	if out.NumRows() != 0 || scanned != 4 {
		t.Errorf("rows = %d scanned = %d, want 0 and 4", out.NumRows(), scanned)
	}
}
