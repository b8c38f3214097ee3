package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// buildPacked writes the indexed test document through the packed container
// and attaches its index sections — heap-built index and mapped index over
// the same corpus.
func buildPacked(t *testing.T) (*Index, *Index) {
	t.Helper()
	d, err := xmltree.ParseString("a.xml", doc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	heap := New(d)
	path := filepath.Join(t.TempDir(), "a.roxd")
	if err := WritePackedFile(path, heap); err != nil {
		t.Fatalf("WritePackedFile: %v", err)
	}
	p, err := xmltree.OpenPackedFile(path)
	if err != nil {
		t.Fatalf("OpenPackedFile: %v", err)
	}
	packed, err := FromPacked(p)
	if err != nil {
		t.Fatalf("FromPacked: %v", err)
	}
	if runtime.GOOS == "linux" && !packed.Doc().Mapped() {
		t.Errorf("packed document should be memory-mapped on linux")
	}
	return heap, packed
}

// eq compares a lookup between backings, treating nil and empty as equal is
// NOT allowed: the packed backing must reproduce the heap's nil-on-miss
// convention exactly.
func eq(t *testing.T, what string, heap, packed []xmltree.NodeID) {
	t.Helper()
	if !reflect.DeepEqual(heap, packed) {
		t.Errorf("%s: heap %v vs packed %v", what, heap, packed)
	}
}

func TestPackedEquivalence(t *testing.T) {
	heap, packed := buildPacked(t)

	for _, q := range []string{"item", "person", "price", "note", "name", "auction", "absent", "id", "ref"} {
		eq(t, "Elements("+q+")", heap.Elements(q), packed.Elements(q))
		eq(t, "AttributesByName("+q+")", heap.AttributesByName(q), packed.AttributesByName(q))
	}
	for _, v := range []string{"10", "145", "200", "rare", "Alice", "i1", "i3", "absent"} {
		eq(t, "TextEq("+v+")", heap.TextEq(v), packed.TextEq(v))
	}
	for _, c := range [][2]string{
		{"id", "i1"}, {"id", "i3"}, {"ref", "i1"}, {"ref", "i3"},
		{"id", "absent"}, {"absent", "i1"}, {"ref", "10"},
	} {
		eq(t, "AttrEq("+c[0]+","+c[1]+")", heap.AttrEq(c[0], c[1]), packed.AttrEq(c[0], c[1]))
	}
	for _, op := range []RangeOp{Lt, Le, Gt, Ge, EqNum} {
		for _, bound := range []float64{-5, 10, 144.5, 145, 200, 1e6} {
			what := "TextRange(" + op.String() + ")"
			eq(t, what, heap.TextRange(op, bound), packed.TextRange(op, bound))
		}
	}
	eq(t, "Texts", heap.Texts(), packed.Texts())
	eq(t, "AllElements", heap.AllElements(), packed.AllElements())
	eq(t, "AllAttributes", heap.AllAttributes(), packed.AllAttributes())
}

func TestPackSectionsRoundTrip(t *testing.T) {
	d, err := xmltree.ParseString("a.xml", doc)
	if err != nil {
		t.Fatal(err)
	}
	heap := New(d)
	secs := PackSections(heap)
	// Deterministic: a second pack produces identical bytes per section.
	again := PackSections(heap)
	if len(secs) != len(again) {
		t.Fatalf("section count varies: %d vs %d", len(secs), len(again))
	}
	for i := range secs {
		if secs[i].Name != again[i].Name || string(secs[i].Data) != string(again[i].Data) {
			t.Errorf("section %s not deterministic", secs[i].Name)
		}
	}
}

// TestPackedFormatGolden pins the container bytes New and PackSections
// write for a fixed generated document. Packed corpora and the compacted
// snapshots of ingest directories keep opening only while these bytes hold:
// a change to the constant is a format change.
func TestPackedFormatGolden(t *testing.T) {
	cfg := datagen.DefaultXMarkConfig()
	cfg.Persons, cfg.Items, cfg.OpenAuctions = 60, 50, 40
	d := datagen.XMark(cfg)
	var buf bytes.Buffer
	if err := xmltree.WritePacked(&buf, d, PackSections(New(d))); err != nil {
		t.Fatal(err)
	}
	const want = "82493c80b121e9623adc338dac5870e61c93cf26a3e453f9e8844e722cb4d582"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("packed container SHA-256 = %s, want %s (%d bytes)", got, want, buf.Len())
	}
}

func TestFromPackedMismatch(t *testing.T) {
	d, err := xmltree.ParseString("a.xml", doc)
	if err != nil {
		t.Fatal(err)
	}
	heap := New(d)

	// No index sections at all → ErrNoIndexSections.
	path := filepath.Join(t.TempDir(), "bare.roxd")
	if err := xmltree.WritePackedFile(path, d, nil); err != nil {
		t.Fatal(err)
	}
	p, err := xmltree.OpenPackedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromPacked(p); err != ErrNoIndexSections {
		t.Errorf("FromPacked without sections = %v, want ErrNoIndexSections", err)
	}
	// ...but OpenPackedFile degrades to the O(n) rebuild.
	ix, err := OpenPackedFile(path)
	if err != nil {
		t.Fatalf("OpenPackedFile fallback: %v", err)
	}
	if got, want := len(ix.Elements("item")), len(heap.Elements("item")); got != want {
		t.Errorf("fallback index has %d item elements, want %d", got, want)
	}

	// Sections from a different document revision → typed failure, not
	// silent wrong answers.
	other, err := xmltree.ParseString("b.xml", "<r><x a='1'>t</x><x>u</x><y/></r>")
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.roxd")
	if err := xmltree.WritePackedFile(bad, other, PackSections(heap)); err != nil {
		t.Fatal(err)
	}
	pb, err := xmltree.OpenPackedFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromPacked(pb); err == nil {
		t.Errorf("mismatched index sections accepted")
	}
}

// TestFromPackedCorruptSections: a corrupt or hostile container must fail at
// attach time with a typed error — never panic later inside query execution,
// where roxserve's on-request file mapping would make the crash remotely
// triggerable.
func TestFromPackedCorruptSections(t *testing.T) {
	d, err := xmltree.ParseString("a.xml", doc)
	if err != nil {
		t.Fatal(err)
	}
	heap := New(d)
	cases := []struct {
		name    string
		section string
		tamper  func(b []byte)
	}{
		{"posting node id out of range", secElemPst, func(b []byte) {
			binary.LittleEndian.PutUint32(b, 1<<30)
		}},
		{"negative posting node id", secTextPst, func(b []byte) {
			binary.LittleEndian.PutUint32(b, 0xffffffff)
		}},
		{"numeric auxiliary node id out of range", secNumPre, func(b []byte) {
			binary.LittleEndian.PutUint32(b, 1<<29)
		}},
		{"kind restriction node id out of range", secAllElem, func(b []byte) {
			binary.LittleEndian.PutUint32(b, 1<<29)
		}},
		{"offset table past posting array", secElemOff, func(b []byte) {
			binary.LittleEndian.PutUint32(b[len(b)-4:], 1<<31)
		}},
		{"offset table not monotonic", secTextOff, func(b []byte) {
			binary.LittleEndian.PutUint32(b, 0xffff0000)
		}},
		{"attr-eq keys not ascending", secAeqKey, func(b []byte) {
			binary.LittleEndian.PutUint64(b, math.MaxUint64)
		}},
		{"numeric values out of order", secNumVal, func(b []byte) {
			binary.LittleEndian.PutUint64(b, math.Float64bits(1e300))
		}},
		{"numeric value NaN", secNumVal, func(b []byte) {
			binary.LittleEndian.PutUint64(b[len(b)-8:], math.Float64bits(math.NaN()))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			secs := PackSections(heap)
			tampered := false
			for i := range secs {
				// Unalias: PackSections returns zero-copy views of the heap
				// index's own arrays.
				secs[i].Data = append([]byte(nil), secs[i].Data...)
				if secs[i].Name == tc.section {
					if len(secs[i].Data) < 4 {
						t.Fatalf("section %s too small to tamper with", tc.section)
					}
					tc.tamper(secs[i].Data)
					tampered = true
				}
			}
			if !tampered {
				t.Fatalf("section %s not emitted by PackSections", tc.section)
			}
			path := filepath.Join(t.TempDir(), "corrupt.roxd")
			if err := xmltree.WritePackedFile(path, d, secs); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenPackedFile(path); err == nil {
				t.Error("corrupt container attached without error")
			}
			p, err := xmltree.OpenPackedFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := FromPacked(p); err == nil {
				t.Error("FromPacked accepted corrupt sections")
			}
		})
	}
}

// TestOpenPackedFileRefusesV1: the removed version 1 stream format fails with
// the decoder's typed error instead of the heap decode it used to get.
func TestOpenPackedFileRefusesV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.roxd")
	if err := os.WriteFile(path, []byte("ROXD\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenPackedFile(path)
	var fe *xmltree.FormatError
	if !errors.As(err, &fe) || fe.Version != 1 {
		t.Fatalf("OpenPackedFile on v1 = %v, want *xmltree.FormatError{Version: 1}", err)
	}
}

// FuzzDecodePacked feeds arbitrary bytes to the one container decoder: it
// must never panic, every decode failure must be a *xmltree.FormatError, and
// whatever does decode must attach its index sections (or, without any,
// pass Verify and rebuild them with New) or refuse with an error, then
// answer every lookup without panicking — roxserve maps files on request, so
// a panic here would be remotely triggerable.
func FuzzDecodePacked(f *testing.F) {
	d, err := xmltree.ParseString("a.xml", doc)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := xmltree.WritePacked(&buf, d, PackSections(New(d))); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// Every section of this small document fits one page, so the page
	// boundaries are the section boundaries.
	for cut := 4096; cut < len(valid); cut += 4096 {
		f.Add(valid[:cut])
	}
	// The first directory entry ("kinds") follows magic, version + pad, the
	// name "a.xml", node count and section count; flip a bit of its offset.
	flipped := bytes.Clone(valid)
	flipped[4+4+4+len("a.xml")+4+4+4+len("kinds")+1] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("ROXD\x01\x00"))
	f.Add([]byte{})
	var bare bytes.Buffer // no index sections: the New fallback
	if err := xmltree.WritePacked(&bare, d, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(bare.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := xmltree.DecodePacked(data)
		if err != nil {
			var fe *xmltree.FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("decode failure %v (%T) is not a *xmltree.FormatError", err, err)
			}
			return
		}
		ix, err := FromPacked(p)
		if errors.Is(err, ErrNoIndexSections) {
			if p.Verify() != nil {
				return
			}
			ix = New(p.Doc())
		} else if err != nil {
			return // refused at attach time: the typed failure, not a panic
		}
		probeAll(t, ix)
	})
}

// probeAll calls every lookup with names and values from the document's own
// dictionaries (the first few ids) and requires each answer to reference
// nodes of the document.
func probeAll(t *testing.T, ix *Index) {
	doc := ix.Doc()
	check := func(what string, nodes []xmltree.NodeID) {
		for _, n := range nodes {
			if n < 0 || int(n) >= doc.Len() {
				t.Fatalf("%s answered node %d of a %d-node document", what, n, doc.Len())
			}
		}
	}
	var names, values []string
	for id := range min(doc.QNames().Len(), 4) {
		names = append(names, doc.QNames().String(int32(id)))
	}
	for id := range min(doc.Values().Len(), 4) {
		values = append(values, doc.Values().String(int32(id)))
	}
	for _, q := range names {
		check("Elements", ix.Elements(q))
		check("AttributesByName", ix.AttributesByName(q))
		for _, v := range values {
			check("AttrEq", ix.AttrEq(q, v))
		}
	}
	for _, v := range values {
		check("TextEq", ix.TextEq(v))
	}
	for _, op := range []RangeOp{Lt, Le, Gt, Ge, EqNum} {
		check("TextRange", ix.TextRange(op, 100))
	}
	check("Texts", ix.Texts())
	check("AllElements", ix.AllElements())
	check("AllAttributes", ix.AllAttributes())
}
