package xmltree

import (
	"bytes"
	"testing"
)

// docsEqual compares two documents cell by cell through the accessors,
// including resolved names and values (dictionary ids may legitimately
// coincide or not; the string content is what equivalence means).
func docsEqual(t *testing.T, got, want *Document) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len: got %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		n := NodeID(i)
		if got.Kind(n) != want.Kind(n) {
			t.Fatalf("node %d: kind %v, want %v", i, got.Kind(n), want.Kind(n))
		}
		if got.Size(n) != want.Size(n) {
			t.Fatalf("node %d: size %d, want %d", i, got.Size(n), want.Size(n))
		}
		if got.Level(n) != want.Level(n) {
			t.Fatalf("node %d: level %d, want %d", i, got.Level(n), want.Level(n))
		}
		if got.Parent(n) != want.Parent(n) {
			t.Fatalf("node %d: parent %d, want %d", i, got.Parent(n), want.Parent(n))
		}
		if got.NodeName(n) != want.NodeName(n) {
			t.Fatalf("node %d: name %q, want %q", i, got.NodeName(n), want.NodeName(n))
		}
		if got.Value(n) != want.Value(n) {
			t.Fatalf("node %d: value %q, want %q", i, got.Value(n), want.Value(n))
		}
		// Dictionary ids must match too: the equivalence proof of the ingest
		// path includes identical interning order.
		if got.NameID(n) != want.NameID(n) {
			t.Fatalf("node %d: name id %d, want %d", i, got.NameID(n), want.NameID(n))
		}
		if got.ValueID(n) != want.ValueID(n) {
			t.Fatalf("node %d: value id %d, want %d", i, got.ValueID(n), want.ValueID(n))
		}
	}
}

const overlayBase = `<site><person id="p1"><name>Alice</name><age>30</age></person></site>`

var overlayFrags = []string{
	`<person id="p2"><name>Bob</name><age>41</age></person>`,
	`<person id="p3"><name>Carol</name></person><person id="p4"><name>Dave</name><age>30</age></person>`,
	`<item key="k1">widget<sub>deep</sub></item>`,
}

// buildOverlay appends every fragment to the base, snapshotting after each
// append so intermediate snapshots exist, and returns the final snapshot.
func buildOverlay(t *testing.T) *Document {
	t.Helper()
	base, err := ParseString("s.xml", overlayBase)
	if err != nil {
		t.Fatal(err)
	}
	app := NewAppender(base)
	for _, frag := range overlayFrags {
		if err := app.AppendXML("frag", frag); err != nil {
			t.Fatal(err)
		}
	}
	return app.Snapshot()
}

// atOnce shreds the concatenation of base and all fragments in one parse —
// the reference the overlay must match cell for cell.
func atOnce(t *testing.T) *Document {
	t.Helper()
	text := overlayBase
	for _, frag := range overlayFrags {
		text += frag
	}
	d, err := ParseString("s.xml", text)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAppenderMatchesBulkShred(t *testing.T) {
	got, want := buildOverlay(t), atOnce(t)
	if !got.Segmented() {
		t.Fatal("snapshot with appended content is not segmented")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("overlay document invalid: %v", err)
	}
	docsEqual(t, got, want)
	if g, w := SerializeString(got, got.Root()), SerializeString(want, want.Root()); g != w {
		t.Fatalf("serialization differs:\n got %s\nwant %s", g, w)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	base, err := ParseString("s.xml", overlayBase)
	if err != nil {
		t.Fatal(err)
	}
	app := NewAppender(base)
	if err := app.AppendXML("f", overlayFrags[0]); err != nil {
		t.Fatal(err)
	}
	snap1 := app.Snapshot()
	len1, ser1 := snap1.Len(), SerializeString(snap1, 0)
	if err := app.AppendXML("f", overlayFrags[1]); err != nil {
		t.Fatal(err)
	}
	snap2 := app.Snapshot()
	if snap1.Len() != len1 || SerializeString(snap1, 0) != ser1 {
		t.Fatal("earlier snapshot changed after further appends")
	}
	if snap2.Len() <= len1 {
		t.Fatal("later snapshot did not grow")
	}
	if err := snap1.Validate(); err != nil {
		t.Fatalf("snap1 invalid: %v", err)
	}
	if err := snap2.Validate(); err != nil {
		t.Fatalf("snap2 invalid: %v", err)
	}
}

func TestAppenderResumeFromSnapshot(t *testing.T) {
	base, err := ParseString("s.xml", overlayBase)
	if err != nil {
		t.Fatal(err)
	}
	app := NewAppender(base)
	if err := app.AppendXML("f", overlayFrags[0]); err != nil {
		t.Fatal(err)
	}
	snap := app.Snapshot()

	// Resume from the snapshot with a fresh Appender, as an ingester would
	// after an external catalog swap handed it back its own published doc.
	resumed := NewAppender(snap)
	for _, frag := range overlayFrags[1:] {
		if err := resumed.AppendXML("f", frag); err != nil {
			t.Fatal(err)
		}
	}
	docsEqual(t, resumed.Snapshot(), atOnce(t))
}

func TestFlattenAndWriters(t *testing.T) {
	seg, want := buildOverlay(t), atOnce(t)
	flat := seg.Flatten()
	if flat.Segmented() {
		t.Fatal("Flatten returned a segmented document")
	}
	if err := flat.Validate(); err != nil {
		t.Fatalf("flattened document invalid: %v", err)
	}
	docsEqual(t, flat, want)

	// The container writer must persist the flattened form transparently.
	var buf bytes.Buffer
	if err := WritePacked(&buf, seg, nil); err != nil {
		t.Fatal(err)
	}
	p, err := DecodePacked(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	docsEqual(t, p.Doc(), want)
}

func TestEmptySnapshotIsBase(t *testing.T) {
	base, err := ParseString("s.xml", overlayBase)
	if err != nil {
		t.Fatal(err)
	}
	if snap := NewAppender(base).Snapshot(); snap != base {
		t.Fatal("empty appender snapshot is not the base document")
	}
}

func TestDeltaDict(t *testing.T) {
	base := NewDict()
	base.Intern("a")
	base.Intern("b")
	d := NewDeltaDict(base)
	if id := d.Intern("a"); id != 0 {
		t.Fatalf("base string re-interned with id %d", id)
	}
	if id := d.Intern("c"); id != 2 {
		t.Fatalf("new string id %d, want 2", id)
	}
	if id := d.Intern("c"); id != 2 {
		t.Fatalf("repeat intern id %d, want 2", id)
	}
	if d.Len() != 3 || base.Len() != 2 {
		t.Fatalf("lens: delta %d (want 3), base %d (want 2)", d.Len(), base.Len())
	}
	clone := d.Clone()
	d.Intern("d")
	if clone.Len() != 3 {
		t.Fatal("clone grew with its source")
	}
	if s := clone.String(2); s != "c" {
		t.Fatalf("clone.String(2) = %q", s)
	}
	if s := clone.String(0); s != "a" {
		t.Fatalf("clone.String(0) = %q", s)
	}
	flat := d.flatten()
	if flat.Len() != d.Len() {
		t.Fatalf("flatten len %d, want %d", flat.Len(), d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		if flat.String(int32(i)) != d.String(int32(i)) {
			t.Fatalf("flatten id %d: %q vs %q", i, flat.String(int32(i)), d.String(int32(i)))
		}
	}
}
