package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/xmltree"
)

const sampleXML = `<site><people><person id="p1"><name>Ada</name><age>36</age></person>` +
	`<person id="p2"><name>Grace</name><age>45</age></person></people></site>`

func writeSample(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(sampleXML), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPackXMLAndCheck(t *testing.T) {
	dir := t.TempDir()
	in := writeSample(t, dir, "people.xml")
	out := filepath.Join(dir, "out")
	if err := os.Mkdir(out, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := run(os.Stdout, out, false, []string{in}); err != nil {
		t.Fatalf("pack: %v", err)
	}
	packed := filepath.Join(out, "people.roxd")
	ix, err := index.OpenPackedFile(packed)
	if err != nil {
		t.Fatalf("open packed: %v", err)
	}
	if got := ix.Doc().Name(); got != "people.xml" {
		t.Errorf("stored doc name = %q, want people.xml", got)
	}
	if n := len(ix.Elements("person")); n != 2 {
		t.Errorf("person count = %d, want 2", n)
	}
	if err := run(os.Stdout, out, true, []string{packed}); err != nil {
		t.Errorf("check: %v", err)
	}
}

// TestPackedInputs: roxpack packs XML only. A v2 container as pack input is
// refused with a pointer to -check; a file in the removed v1 stream format
// fails both modes with the decoder's typed error and its re-pack hint.
func TestPackedInputs(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	if err := os.Mkdir(out, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := run(os.Stdout, out, false, []string{writeSample(t, dir, "people.xml")}); err != nil {
		t.Fatalf("pack: %v", err)
	}
	v1 := filepath.Join(dir, "legacy.roxd")
	if err := os.WriteFile(v1, []byte("ROXD\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		check bool
		path  string
		want  string // substring of the error
		v1    bool   // and it is the *xmltree.FormatError of a version 1 file
	}{
		{"pack a v2 container", false, filepath.Join(out, "people.roxd"), "already packed; use -check", false},
		{"pack a v1 file", false, v1, "re-pack", true},
		{"check a v1 file", true, v1, "re-pack", true},
	} {
		err := run(os.Stdout, out, tc.check, []string{tc.path})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
			continue
		}
		var fe *xmltree.FormatError
		if got := errors.As(err, &fe) && fe.Version == 1; got != tc.v1 {
			t.Errorf("%s: err = %v; is a version 1 *xmltree.FormatError = %v, want %v", tc.name, err, got, tc.v1)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run(os.Stdout, dir, false, nil); err == nil {
		t.Errorf("no inputs should fail")
	}
	if err := run(os.Stdout, dir, false, []string{filepath.Join(dir, "absent.xml")}); err == nil {
		t.Errorf("missing input should fail")
	}
	bad := filepath.Join(dir, "bad.roxd")
	if err := os.WriteFile(bad, []byte("not a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(os.Stdout, dir, true, []string{bad}); err == nil {
		t.Errorf("check of a corrupt file should fail")
	}
}
