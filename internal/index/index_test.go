package index

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

const doc = `<auction>
  <item id="i1"><price>10</price></item>
  <item id="i2"><price>145</price></item>
  <item id="i3"><price>200</price><note>rare</note></item>
  <person ref="i1"><name>Alice</name></person>
  <person ref="i3"><name>Alice</name></person>
</auction>`

func build(t *testing.T) (*xmltree.Document, *Index) {
	t.Helper()
	d, err := xmltree.ParseString("a.xml", doc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d, New(d)
}

func TestElements(t *testing.T) {
	d, ix := build(t)
	items := ix.Elements("item")
	if len(items) != 3 {
		t.Fatalf("Elements(item) = %d, want 3", len(items))
	}
	if !sort.SliceIsSorted(items, func(i, j int) bool { return items[i] < items[j] }) {
		t.Errorf("element index not in document order")
	}
	for _, n := range items {
		if d.NodeName(n) != "item" || d.Kind(n) != xmltree.KindElem {
			t.Errorf("node %d is %v %q", n, d.Kind(n), d.NodeName(n))
		}
	}
	if got := ix.Elements("absent"); got != nil {
		t.Errorf("Elements(absent) = %v", got)
	}
	if n := len(ix.Elements("person")); n != 2 {
		t.Errorf("len(Elements(person)) = %d", n)
	}
}

func TestTextEq(t *testing.T) {
	d, ix := build(t)
	alice := ix.TextEq("Alice")
	if len(alice) != 2 {
		t.Fatalf("TextEq(Alice) = %d nodes, want 2", len(alice))
	}
	for _, n := range alice {
		if d.Kind(n) != xmltree.KindText || d.Value(n) != "Alice" {
			t.Errorf("node %d: %v %q", n, d.Kind(n), d.Value(n))
		}
	}
	if got := ix.TextEq("Bob"); got != nil {
		t.Errorf("TextEq(Bob) = %v", got)
	}
	if n := len(ix.TextEq("rare")); n != 1 {
		t.Errorf("len(TextEq(rare)) = %d", n)
	}
}

func TestAttrIndexes(t *testing.T) {
	d, ix := build(t)
	ids := ix.AttributesByName("id")
	if len(ids) != 3 {
		t.Fatalf("AttributesByName(id) = %d, want 3", len(ids))
	}
	refs := ix.AttrEq("ref", "i1")
	if len(refs) != 1 || d.Value(refs[0]) != "i1" {
		t.Fatalf("AttrEq(ref,i1) = %v", refs)
	}
	if got := ix.AttrEq("nosuch", "x"); got != nil {
		t.Errorf("AttrEq(nosuch) = %v", got)
	}
}

func TestTextRange(t *testing.T) {
	d, ix := build(t)
	check := func(op RangeOp, bound float64, wantVals []string) {
		t.Helper()
		got := ix.TextRange(op, bound)
		if len(got) != len(wantVals) {
			t.Fatalf("TextRange(%v,%v) = %d nodes, want %d", op, bound, len(got), len(wantVals))
		}
		for i, n := range got {
			if d.Value(n) != wantVals[i] {
				t.Errorf("TextRange(%v,%v)[%d] = %q, want %q", op, bound, i, d.Value(n), wantVals[i])
			}
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Errorf("TextRange result not in document order")
		}
	}
	check(Lt, 145, []string{"10"})
	check(Le, 145, []string{"10", "145"})
	check(Gt, 145, []string{"200"})
	check(Ge, 145, []string{"145", "200"})
	check(EqNum, 145, []string{"145"})
	check(Lt, 5, nil)
	check(Gt, 1000, nil)
}

// TestElementNames: exactly the document's element names have element
// postings — a name only attributes use ("id", "ref") has an empty run.
func TestElementNames(t *testing.T) {
	d, ix := build(t)
	var names []string
	for id := range d.QNames().Len() {
		if q := d.QNames().String(int32(id)); len(ix.Elements(q)) > 0 {
			names = append(names, q)
		}
	}
	sort.Strings(names)
	want := []string{"auction", "item", "name", "note", "person", "price"}
	if !slices.Equal(names, want) {
		t.Fatalf("names with element postings = %v, want %v", names, want)
	}
}

func TestRangeOpCompare(t *testing.T) {
	cases := []struct {
		op   RangeOp
		v, b float64
		want bool
	}{
		{Lt, 1, 2, true}, {Lt, 2, 2, false},
		{Le, 2, 2, true}, {Le, 3, 2, false},
		{Gt, 3, 2, true}, {Gt, 2, 2, false},
		{Ge, 2, 2, true}, {Ge, 1, 2, false},
		{EqNum, 2, 2, true}, {EqNum, 1, 2, false},
	}
	for _, c := range cases {
		if got := c.op.Compare(c.v, c.b); got != c.want {
			t.Errorf("%v.Compare(%v,%v) = %v, want %v", c.op, c.v, c.b, got, c.want)
		}
	}
}

// TestIndexConsistencyRandom checks, on random documents, that every index
// lookup agrees with a full scan of the node table.
func TestIndexConsistencyRandom(t *testing.T) {
	names := []string{"x", "y", "z"}
	vals := []string{"1", "2", "7", "foo"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := xmltree.NewBuilder("r.xml")
		b.StartElem("root")
		for i := 0; i < 30+rng.Intn(40); i++ {
			name := names[rng.Intn(len(names))]
			b.StartElem(name)
			if rng.Intn(2) == 0 {
				b.Attr("a", vals[rng.Intn(len(vals))])
			}
			b.Text(vals[rng.Intn(len(vals))])
			b.EndElem()
		}
		b.EndElem()
		d := b.MustBuild()
		ix := New(d)
		for _, name := range names {
			scan := 0
			for i := 0; i < d.Len(); i++ {
				n := xmltree.NodeID(i)
				if d.Kind(n) == xmltree.KindElem && d.NodeName(n) == name {
					scan++
				}
			}
			if scan != len(ix.Elements(name)) {
				return false
			}
		}
		for _, v := range vals {
			scan := 0
			for i := 0; i < d.Len(); i++ {
				n := xmltree.NodeID(i)
				if d.Kind(n) == xmltree.KindText && d.Value(n) == v {
					scan++
				}
			}
			if scan != len(ix.TextEq(v)) {
				return false
			}
		}
		// Range lookup vs scan for a random numeric bound.
		bound := float64(rng.Intn(8))
		scan := 0
		for i := 0; i < d.Len(); i++ {
			n := xmltree.NodeID(i)
			if d.Kind(n) != xmltree.KindText {
				continue
			}
			if fv, ok := d.NumberValue(n); ok && fv < bound {
				scan++
			}
		}
		return scan == len(ix.TextRange(Lt, bound))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
