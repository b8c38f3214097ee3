package rox

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/xmltree"
)

// TestSourceConstructorEquivalence: every From* constructor loaded through
// LoadSource yields the same query results — they are one surface — and
// FromPath applies the one path rule: the same document loaded as XML and as
// its packed twin answers identically, the twin mapped and under its stored
// name.
func TestSourceConstructorEquivalence(t *testing.T) {
	const xml = `<r><x>a</x><x>b</x></r>`
	const q = `for $x in doc("d.xml")//x return $x`
	want := []string{"<x>a</x>", "<x>b</x>"}

	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "d.xml")
	aliasPath := filepath.Join(dir, "alias.xml") // same text, loaded under an explicit name
	for _, p := range []string{xmlPath, aliasPath} {
		if err := os.WriteFile(p, []byte(xml), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := xmltree.ParseString("d.xml", xml)
	if err != nil {
		t.Fatal(err)
	}
	packedPath := filepath.Join(dir, "twin.roxd")
	if err := index.WritePackedFile(packedPath, index.New(doc)); err != nil {
		t.Fatal(err)
	}

	sources := []struct {
		name   string
		src    Source
		mapped bool
	}{
		{"FromXML", FromXML("d.xml", xml), false},
		{"FromReader", FromReader("d.xml", strings.NewReader(xml)), false},
		{"FromFile", FromFile("", xmlPath), false}, // empty name: path base
		{"FromPacked", FromPacked(packedPath), true},
		{"FromDocument", FromDocument(doc), false},
		{"FromPath xml", FromPath("", xmlPath), false},
		{"FromPath xml named", FromPath("d.xml", aliasPath), false},
		{"FromPath packed", FromPath("ignored.xml", packedPath), true}, // keeps its stored name
	}
	for _, s := range sources {
		t.Run(s.name, func(t *testing.T) {
			eng := NewEngine()
			if err := eng.LoadSource(s.src); err != nil {
				t.Fatalf("LoadSource: %v", err)
			}
			if docs := eng.Documents(); len(docs) != 1 || docs[0] != "d.xml" {
				t.Fatalf("Documents() = %v, want [d.xml]", docs)
			}
			got, err := collectRows(eng.Execute(context.Background(), Request{Query: q}))
			if err != nil {
				t.Fatal(err)
			}
			assertSameItems(t, s.name, want, got.Items)
			ix, err := eng.catalog().Index("d.xml")
			if err != nil {
				t.Fatal(err)
			}
			if runtime.GOOS == "linux" && ix.Doc().Mapped() != s.mapped {
				t.Errorf("Mapped() = %v, want %v", ix.Doc().Mapped(), s.mapped)
			}
		})
	}
}

// TestRemovedFormatRefused: a ROXD version 1 file — the stream format this
// repository no longer reads — fails every load entry point with the typed
// format error and its re-pack hint, and registers nothing.
func TestRemovedFormatRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.roxd")
	if err := os.WriteFile(path, []byte("ROXD\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	for name, err := range map[string]error{
		"FromPacked":           eng.LoadSource(FromPacked(path)),
		"FromPath":             eng.LoadSource(FromPath("", path)),
		"LoadCollectionSource": eng.LoadCollectionSource("c", FromPath("", path)),
	} {
		var ferr *xmltree.FormatError
		if !errors.As(err, &ferr) || ferr.Version != 1 {
			t.Errorf("%s: err = %v, want *xmltree.FormatError{Version: 1}", name, err)
		} else if !strings.Contains(err.Error(), "re-pack") {
			t.Errorf("%s: %v lacks the re-pack hint", name, err)
		}
	}
	if docs := eng.Documents(); len(docs) != 0 {
		t.Errorf("refused loads registered %v", docs)
	}
}

// TestLoadCollectionSourceAtomicity: one bad source loads nothing at all, and
// the error names the failing shard position and source kind.
func TestLoadCollectionSourceAtomicity(t *testing.T) {
	eng := NewEngine()
	err := eng.LoadCollectionSource("c",
		FromXML("c-0.xml", `<r><x>v</x></r>`),
		FromXML("c-1.xml", `<r><x`)) // malformed
	if err == nil {
		t.Fatal("malformed shard accepted")
	}
	if !strings.Contains(err.Error(), `collection "c" shard 1 (xml)`) {
		t.Errorf("error %v does not name the failing shard", err)
	}
	if got := eng.Collections(); len(got) != 0 {
		t.Errorf("failed load registered collections %v", got)
	}
	if got := eng.Documents(); len(got) != 0 {
		t.Errorf("failed load registered documents %v", got)
	}
}

// TestLoadCollectionSourceOrder: argument order is shard (result) order, and
// a collection query sees every shard.
func TestLoadCollectionSourceOrder(t *testing.T) {
	eng := NewEngine()
	var srcs []Source
	for i := 0; i < 3; i++ {
		srcs = append(srcs, FromXML(fmt.Sprintf("s%d.xml", i),
			fmt.Sprintf(`<r><x>v%d</x></r>`, i)))
	}
	if err := eng.LoadCollectionSource("c", srcs...); err != nil {
		t.Fatal(err)
	}
	shards, err := eng.CollectionShards("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 || shards[0] != "s0.xml" || shards[2] != "s2.xml" {
		t.Errorf("CollectionShards = %v, want argument order", shards)
	}
	res, err := collectRows(eng.Execute(context.Background(), Request{Query: `for $x in collection("c")//x return $x`}))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<x>v0</x>", "<x>v1</x>", "<x>v2</x>"}
	assertSameItems(t, "collection source order", want, res.Items)
}
