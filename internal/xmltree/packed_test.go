package xmltree

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// sameDoc asserts both documents expose identical node tables through the
// public accessors — the zero-copy packed view must be indistinguishable
// from the heap-built original.
func sameDoc(t *testing.T, want, got *Document) {
	t.Helper()
	if got.Name() != want.Name() || got.Len() != want.Len() {
		t.Fatalf("shape mismatch: %s/%d vs %s/%d", got.Name(), got.Len(), want.Name(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		n := NodeID(i)
		if want.Kind(n) != got.Kind(n) || want.Size(n) != got.Size(n) || want.Level(n) != got.Level(n) ||
			want.Parent(n) != got.Parent(n) || want.NodeName(n) != got.NodeName(n) || want.Value(n) != got.Value(n) {
			t.Fatalf("node %d differs after packed roundtrip", i)
		}
	}
	if SerializeString(want, want.Root()) != SerializeString(got, got.Root()) {
		t.Fatalf("serialization differs after packed roundtrip")
	}
}

func packDoc(t *testing.T, d *Document, extra []Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePacked(&buf, d, extra); err != nil {
		t.Fatalf("WritePacked: %v", err)
	}
	return buf.Bytes()
}

func TestPackedRoundTrip(t *testing.T) {
	d := mustParse(t, sampleXML)
	extra := []Section{{Name: "x.blob", Data: []byte("opaque extra payload")}}
	data := packDoc(t, d, extra)

	p, err := DecodePacked(data)
	if err != nil {
		t.Fatalf("DecodePacked: %v", err)
	}
	sameDoc(t, d, p.Doc())
	if err := p.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if got := string(p.Section("x.blob")); got != "opaque extra payload" {
		t.Errorf("extra section = %q", got)
	}
	if p.Section("absent") != nil {
		t.Errorf("absent section should be nil")
	}
	names := p.SectionNames()
	if len(names) == 0 || names[len(names)-1] != "x.blob" {
		t.Errorf("section names %v should end with the appended extra", names)
	}

	// Packing is deterministic: same document, same bytes.
	if !bytes.Equal(data, packDoc(t, d, extra)) {
		t.Errorf("packing is not byte-deterministic")
	}
}

func TestPackedRoundTripRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDoc(rng, 120)
		var buf bytes.Buffer
		if err := WritePacked(&buf, d, nil); err != nil {
			return false
		}
		p, err := DecodePacked(buf.Bytes())
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return SerializeString(d, d.Root()) == SerializeString(p.Doc(), p.Doc().Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPackedUnalignedBuffer(t *testing.T) {
	// A packed image at an odd buffer offset defeats the zero-copy casts;
	// the decode must fall back to copying and still be exact.
	d := mustParse(t, sampleXML)
	data := packDoc(t, d, nil)
	shifted := make([]byte, len(data)+1)
	copy(shifted[1:], data)
	p, err := DecodePacked(shifted[1:])
	if err != nil {
		t.Fatalf("DecodePacked (unaligned): %v", err)
	}
	sameDoc(t, d, p.Doc())
}

func TestPackedFile(t *testing.T) {
	d := mustParse(t, sampleXML)
	path := filepath.Join(t.TempDir(), "doc.roxd")
	if err := WritePackedFile(path, d, nil); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPackedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameDoc(t, d, p.Doc())
	if runtime.GOOS == "linux" && !p.Doc().Mapped() {
		t.Errorf("packed file should be memory-mapped on linux")
	}
	if _, err := OpenPackedFile(filepath.Join(t.TempDir(), "missing.roxd")); err == nil {
		t.Errorf("missing file should fail")
	}
}

func TestPackedRejectsCorrupt(t *testing.T) {
	d := mustParse(t, sampleXML)
	data := packDoc(t, d, nil)

	// Truncations anywhere must yield a typed error, never a bare io.EOF.
	for _, cut := range []int{0, 3, 5, 9, 16, len(data) / 64, len(data) / 2, len(data) - 1} {
		_, err := DecodePacked(data[:cut])
		if err == nil {
			t.Errorf("truncated at %d accepted", cut)
			continue
		}
		if cut >= 4 {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Errorf("truncated at %d: %v (%T) is not a *FormatError", cut, err, err)
			}
		}
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("truncated at %d: bare io.EOF leaked: %v", cut, err)
		}
	}

	tamper := func(mutate func(b []byte)) error {
		b := append([]byte(nil), data...)
		mutate(b)
		_, err := DecodePacked(b)
		return err
	}
	if err := tamper(func(b []byte) { b[0] = 'X' }); err == nil {
		t.Errorf("bad magic accepted")
	}
	if err := tamper(func(b []byte) { b[4] = 9 }); err == nil {
		t.Errorf("unknown version accepted")
	} else {
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Version != 9 {
			t.Errorf("unknown version error = %v, want *FormatError{Version: 9}", err)
		}
	}
	// Version 1 (the removed stream format) is refused by name, however
	// little of the file there is.
	for _, v1 := range [][]byte{[]byte("ROXD\x01"), []byte("ROXD\x01\x00"), append([]byte("ROXD\x01"), data[5:]...)} {
		_, err := DecodePacked(v1)
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Version != 1 || !strings.Contains(err.Error(), "re-pack") {
			t.Errorf("v1 header (%d bytes): err = %v, want *FormatError{Version: 1} with the re-pack hint", len(v1), err)
		}
	}
	// Root invariants: flip the root kind byte inside the kinds section
	// (first section, at the first page boundary).
	if err := tamper(func(b []byte) { b[packedPage] ^= 0xFF }); err == nil {
		t.Errorf("corrupt root kind accepted")
	}
}

func TestSectionCasts(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 6, 7} {
		if _, err := AsInt32s(make([]byte, n*4+1)); err == nil {
			t.Errorf("AsInt32s accepted length %d", n*4+1)
		}
		if _, err := AsUint64s(make([]byte, n*8+4)); err == nil {
			t.Errorf("AsUint64s accepted length %d", n*8+4)
		}
	}
	vals := []int32{-7, 0, 1 << 20}
	got, err := AsInt32s(Int32sBytes(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("int32 roundtrip [%d] = %d, want %d", i, got[i], vals[i])
		}
	}
	f := []float64{-1.5, 0, 3.25e9}
	gotF, err := AsFloat64s(Float64sBytes(f))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f {
		if gotF[i] != f[i] {
			t.Errorf("float64 roundtrip [%d] = %g, want %g", i, gotF[i], f[i])
		}
	}
}

// FuzzPackedRoundTrip drives arbitrary XML through the packed container and
// requires the decoded-view document to serialize byte-identically to the
// in-memory one.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add(sampleXML)
	f.Add("<a/>")
	f.Add(`<r x="1"><b>two</b>three<c y="z"/></r>`)
	f.Add("<r>" + string(rune(0x2603)) + "&amp;&lt;</r>")
	f.Fuzz(func(t *testing.T, xml string) {
		d, err := ParseString("fuzz.xml", xml)
		if err != nil {
			t.Skip() // not well-formed: nothing to pack
		}
		want := SerializeString(d, d.Root())

		var buf bytes.Buffer
		if err := WritePacked(&buf, d, nil); err != nil {
			t.Fatalf("WritePacked: %v", err)
		}
		p, err := DecodePacked(buf.Bytes())
		if err != nil {
			t.Fatalf("DecodePacked: %v", err)
		}
		if got := SerializeString(p.Doc(), p.Doc().Root()); got != want {
			t.Fatalf("packed serialization differs:\n got %q\nwant %q", got, want)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("packed document fails validation: %v", err)
		}
	})
}
