package xmltree_test

import (
	"bytes"
	"encoding/xml"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// oracleSerializer is the io.Writer serializer the append core replaced, kept
// verbatim as the reference: Children and Attributes materialized per node,
// every text and attribute value through xml.EscapeText.
type oracleSerializer struct {
	w   io.Writer
	d   *xmltree.Document
	err error
}

func (s *oracleSerializer) write(str string) {
	if s.err != nil {
		return
	}
	_, s.err = io.WriteString(s.w, str)
}

func (s *oracleSerializer) escape(str string) {
	if s.err != nil {
		return
	}
	var sb strings.Builder
	// EscapeText only fails on writer errors; strings.Builder cannot fail.
	_ = xml.EscapeText(&sb, []byte(str))
	s.write(sb.String())
}

func (s *oracleSerializer) node(n xmltree.NodeID) {
	if s.err != nil {
		return
	}
	d := s.d
	switch d.Kind(n) {
	case xmltree.KindDoc:
		for _, c := range d.Children(n) {
			s.node(c)
		}
	case xmltree.KindElem:
		s.write("<")
		s.write(d.NodeName(n))
		for _, a := range d.Attributes(n) {
			s.write(" ")
			s.write(d.NodeName(a))
			s.write(`="`)
			s.escape(d.Value(a))
			s.write(`"`)
		}
		children := d.Children(n)
		if len(children) == 0 {
			s.write("/>")
			return
		}
		s.write(">")
		for _, c := range children {
			s.node(c)
		}
		s.write("</")
		s.write(d.NodeName(n))
		s.write(">")
	case xmltree.KindText:
		s.escape(d.Value(n))
	case xmltree.KindAttr:
		s.write(d.NodeName(n))
		s.write(`="`)
		s.escape(d.Value(n))
		s.write(`"`)
	case xmltree.KindComment:
		s.write("<!--")
		s.write(d.Value(n))
		s.write("-->")
	case xmltree.KindPI:
		s.write("<?")
		s.write(d.NodeName(n))
		s.write(" ")
		s.write(d.Value(n))
		s.write("?>")
	}
}

func oracleSerialize(d *xmltree.Document, n xmltree.NodeID) string {
	var sb strings.Builder
	s := oracleSerializer{w: &sb, d: d}
	s.node(n)
	return sb.String()
}

// everyKindDoc holds every node kind and every character class the escaper
// treats specially: markup characters, both quotes, tab/newline/CR, a control
// byte, invalid UTF-8, U+FFFD itself, U+FFFE, and multi-byte runes.
func everyKindDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	b := xmltree.NewBuilder("kinds.xml")
	b.Comment(" before the root ")
	b.PI("xml-stylesheet", `href="a.css"`)
	b.StartElem("root")
	b.Attr("q", "say \"hi\"\n\tand 'bye'\r")
	b.Attr("amp", "a&b<c>d")
	b.StartElem("empty")
	b.EndElem()
	b.StartElem("onlyattr")
	b.Attr("k", "")
	b.EndElem()
	b.StartElem("text")
	b.Text("1 < 2 && 3 > 2; \"q\" 'a'\t\n\r")
	b.EndElem()
	b.StartElem("odd")
	b.Text("ctl\x01 bad\xff\xfe trunc\xe2\x82 repl\uFFFD nonchar\uFFFE wide\U0001F600 sep\u2028 \u00e9")
	b.Comment("a -- b & <c>")
	b.PI("target", "data & <more>")
	b.Text("")
	b.EndElem()
	b.EndElem()
	return b.MustBuild()
}

// checkAgainstOracle compares the append core with the oracle on every stride-th
// node of d (the root always), appending behind a prefix into one reused buffer
// the way the execution cursor does.
func checkAgainstOracle(t *testing.T, label string, d *xmltree.Document, stride int) {
	t.Helper()
	buf := []byte("prefix:")
	for i := 0; i < d.Len(); i += stride {
		n := xmltree.NodeID(i)
		want := oracleSerialize(d, n)
		buf = xmltree.AppendSerialize(buf[:len("prefix:")], d, n)
		if got := string(buf[len("prefix:"):]); got != want {
			t.Fatalf("%s node %d (%v):\n got %q\nwant %q", label, i, d.Kind(n), got, want)
		}
		if string(buf[:len("prefix:")]) != "prefix:" {
			t.Fatalf("%s node %d: AppendSerialize clobbered dst", label, i)
		}
	}
	want := oracleSerialize(d, d.Root())
	if got := xmltree.SerializeString(d, d.Root()); got != want {
		t.Fatalf("%s: SerializeString differs from the oracle", label)
	}
	// Serialize writes in chunks; the concatenation is the same text.
	var out bytes.Buffer
	if err := xmltree.Serialize(&out, d, d.Root()); err != nil {
		t.Fatalf("%s: Serialize: %v", label, err)
	}
	if out.String() != want {
		t.Fatalf("%s: Serialize differs from the oracle", label)
	}
}

func TestAppendSerializeMatchesOracle(t *testing.T) {
	kinds := everyKindDoc(t)
	checkAgainstOracle(t, "every kind", kinds, 1)

	xmark := datagen.XMark(datagen.DefaultXMarkConfig())
	checkAgainstOracle(t, "xmark", xmark, 7)

	venue, _ := datagen.VenueByName("VLDB")
	dblp := datagen.GenerateVenue(datagen.DefaultDBLPConfig(), venue)
	checkAgainstOracle(t, "dblp", dblp, 3)

	// The ingest shape: an immutable base extended by appended fragments.
	app := xmltree.NewAppender(kinds)
	for _, frag := range []string{
		`<person id="p1"><name>A &amp; B</name><!--c--></person>`,
		`<person id="p2" note="x&lt;y"/>`,
		`<?pi late?>`,
	} {
		if err := app.AppendXML("frag", frag); err != nil {
			t.Fatal(err)
		}
	}
	overlay := app.Snapshot()
	if !overlay.Segmented() {
		t.Fatal("snapshot with appended content is not segmented")
	}
	checkAgainstOracle(t, "overlay", overlay, 1)

	// A packed container, memory-mapped where the platform can.
	path := filepath.Join(t.TempDir(), "xmark.roxd")
	if err := xmltree.WritePackedFile(path, xmark, nil); err != nil {
		t.Fatal(err)
	}
	packed, err := xmltree.OpenPackedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, "packed", packed.Doc(), 11)
}

// failAfter fails every write once n bytes went through.
type failAfter struct{ n int }

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, errSink
	}
	return len(p), nil
}

// TestSerializeReportsWriteError: a failing sink ends the walk with its error,
// whether it fails on a chunk mid-document or on the final write.
func TestSerializeReportsWriteError(t *testing.T) {
	xmark := datagen.XMark(datagen.DefaultXMarkConfig())
	if err := xmltree.Serialize(&failAfter{n: 40 << 10}, xmark, xmark.Root()); !errors.Is(err, errSink) {
		t.Errorf("mid-document failure: err = %v, want %v", err, errSink)
	}
	small := everyKindDoc(t)
	if err := xmltree.Serialize(&failAfter{}, small, small.Root()); !errors.Is(err, errSink) {
		t.Errorf("final-write failure: err = %v, want %v", err, errSink)
	}
}
