package index

import (
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/xmltree"
)

const deltaBaseXML = `<site><person id="p1"><name>Alice</name><age>30</age></person>` +
	`<item key="k1"><price>9.5</price></item></site>`

var deltaFrags = []string{
	`<person id="p2"><name>Bob</name><age>41</age></person>`,
	`<person id="p3"><name>Alice</name></person><item key="k2"><price>30</price><note>new</note></item>`,
	`<order ref="p2"><total>9.5</total></order>`,
}

// deltaAndFull builds the same logical document twice: incrementally (base +
// appended fragments, indexed as a delta over baseIx) and at once (one parse
// of the concatenated text, fully indexed). Every accessor must agree.
func deltaAndFull(t *testing.T, baseIx *Index) (*Index, *Index) {
	t.Helper()
	app := xmltree.NewAppender(baseIx.Doc())
	text := deltaBaseXML
	for _, frag := range deltaFrags {
		if err := app.AppendXML("frag", frag); err != nil {
			t.Fatal(err)
		}
		text += frag
	}
	full, err := xmltree.ParseString("d.xml", text)
	if err != nil {
		t.Fatal(err)
	}
	return NewDelta(baseIx, app.Snapshot()), New(full)
}

func nodesEqual(t *testing.T, what string, got, want []xmltree.NodeID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, want %d (got %v, want %v)", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: node[%d] = %d, want %d (got %v, want %v)", what, i, got[i], want[i], got, want)
		}
	}
}

func checkDeltaAgainstFull(t *testing.T, delta, full *Index) {
	t.Helper()
	// Probe every name either side knows about, plus a miss.
	qnames := full.Doc().QNames()
	names := []string{"nosuch"}
	for id := range qnames.Len() {
		names = append(names, qnames.String(int32(id)))
	}
	for _, q := range names {
		nodesEqual(t, "Elements("+q+")", delta.Elements(q), full.Elements(q))
	}
	for _, q := range []string{"id", "key", "ref", "nosuch"} {
		nodesEqual(t, "AttributesByName("+q+")", delta.AttributesByName(q), full.AttributesByName(q))
	}
	for _, v := range []string{"Alice", "Bob", "new", "30", "9.5", "nosuch"} {
		nodesEqual(t, "TextEq("+v+")", delta.TextEq(v), full.TextEq(v))
	}
	for _, probe := range [][2]string{
		{"id", "p1"}, {"id", "p2"}, {"id", "p3"}, {"key", "k2"},
		{"ref", "p2"}, {"id", "nosuch"}, {"nosuch", "p1"},
	} {
		what := "AttrEq(" + probe[0] + "," + probe[1] + ")"
		nodesEqual(t, what, delta.AttrEq(probe[0], probe[1]), full.AttrEq(probe[0], probe[1]))
	}
	for _, op := range []RangeOp{Lt, Le, Gt, Ge, EqNum} {
		for _, bound := range []float64{9.5, 30, 40, 0, 100} {
			what := "TextRange(" + op.String() + ")"
			nodesEqual(t, what, delta.TextRange(op, bound), full.TextRange(op, bound))
		}
	}
	nodesEqual(t, "Texts", delta.Texts(), full.Texts())
	nodesEqual(t, "AllElements", delta.AllElements(), full.AllElements())
	nodesEqual(t, "AllAttributes", delta.AllAttributes(), full.AllAttributes())
}

func TestDeltaMatchesFullRebuild(t *testing.T) {
	base, err := xmltree.ParseString("d.xml", deltaBaseXML)
	if err != nil {
		t.Fatal(err)
	}
	delta, full := deltaAndFull(t, New(base))
	if delta.Base() == nil {
		t.Fatal("delta index has no base")
	}
	checkDeltaAgainstFull(t, delta, full)
}

// TestDeltaOverPackedBase overlays a delta on an index attached to a mapped
// packed container — the production shape after a compaction or cold load.
func TestDeltaOverPackedBase(t *testing.T) {
	base, err := xmltree.ParseString("d.xml", deltaBaseXML)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.roxd")
	if err := WritePackedFile(path, New(base)); err != nil {
		t.Fatal(err)
	}
	baseIx, err := OpenPackedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	delta, full := deltaAndFull(t, baseIx)
	checkDeltaAgainstFull(t, delta, full)
}

// TestDeltaEmpty overlays a delta with no appended nodes: every accessor must
// pass through to the base unchanged.
func TestDeltaEmpty(t *testing.T) {
	base, err := xmltree.ParseString("d.xml", deltaBaseXML)
	if err != nil {
		t.Fatal(err)
	}
	baseIx := New(base)
	delta := NewDelta(baseIx, base)
	nodesEqual(t, "Elements", delta.Elements("person"), baseIx.Elements("person"))
	nodesEqual(t, "Texts", delta.Texts(), baseIx.Texts())
	nodesEqual(t, "TextRange", delta.TextRange(Ge, 0), baseIx.TextRange(Ge, 0))
	nodesEqual(t, "AllElements", delta.AllElements(), baseIx.AllElements())
}

// TestDeltaCostIsAppendOnly: a commit's delta costs O(appended nodes), not
// O(value dictionary). The base holds 50 000 distinct text values, so one
// dense value table over the snapshot's dictionary would alone allocate
// 200 KB.
func TestDeltaCostIsAppendOnly(t *testing.T) {
	b := xmltree.NewBuilder("big.xml")
	b.StartElem("r")
	for i := range 50_000 {
		b.StartElem("v")
		b.Text(strconv.Itoa(i))
		b.EndElem()
	}
	b.EndElem()
	baseIx := New(b.MustBuild())
	app := xmltree.NewAppender(baseIx.Doc())
	if err := app.AppendXML("frag", `<v k="x">fresh</v><v>50000</v>`); err != nil {
		t.Fatal(err)
	}
	snap := app.Snapshot()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	delta := NewDelta(baseIx, snap)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Errorf("NewDelta allocated %d bytes for a two-element fragment, want < 64 KiB", alloc)
	}
	if got := delta.TextEq("fresh"); len(got) != 1 {
		t.Errorf("TextEq(fresh) = %v, want one node", got)
	}
	if got := delta.TextRange(Ge, 49_999); len(got) != 2 {
		t.Errorf("TextRange(>= 49999) = %v, want two nodes", got)
	}
}
