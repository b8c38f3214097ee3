package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/xmltree"
)

func TestRunXMark(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "x.xml")
	if err := run("xmark", out, dir, 1, 1, 7, "", false, 30, 20, 15, 0); err != nil {
		t.Fatalf("run xmark: %v", err)
	}
	d, err := xmltree.ParseFile("", out)
	if err != nil {
		t.Fatalf("generated XML unparseable: %v", err)
	}
	if d.CountName("person") != 30 {
		t.Errorf("persons = %d, want 30", d.CountName("person"))
	}
}

func TestRunXMarkPackedShards(t *testing.T) {
	dir := t.TempDir()
	if err := run("xmark", "", dir, 1, 1, 7, "", true, 30, 20, 15, 2); err != nil {
		t.Fatalf("run xmark packed shards: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	persons := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".roxd") {
			t.Fatalf("unexpected non-packed output %s", e.Name())
		}
		ix, err := index.OpenPackedFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("open packed %s: %v", e.Name(), err)
		}
		persons += len(ix.Elements("person"))
	}
	if len(entries) != 2 {
		t.Errorf("wrote %d shards, want 2", len(entries))
	}
	if persons != 30 {
		t.Errorf("persons across shards = %d, want 30", persons)
	}
}

func TestRunDBLPSubset(t *testing.T) {
	dir := t.TempDir()
	if err := run("dblp", "", dir, 1, 50, 7, "VLDB,ADBIS", false, 0, 0, 0, 0); err != nil {
		t.Fatalf("run dblp: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name()] = true
	}
	for _, want := range []string{"VLDB.xml", "ADBIS.xml"} {
		if !names[want] {
			t.Errorf("missing %s in %v", want, names)
		}
	}
}

func TestRunDBLPPacked(t *testing.T) {
	dir := t.TempDir()
	if err := run("dblp", "", dir, 1, 50, 7, "EDBT", true, 0, 0, 0, 0); err != nil {
		t.Fatalf("run dblp packed: %v", err)
	}
	ix, err := index.OpenPackedFile(filepath.Join(dir, "EDBT.xml.roxd"))
	if err != nil {
		t.Fatalf("open packed venue: %v", err)
	}
	if got := ix.Doc().Name(); got != "EDBT.xml" {
		t.Errorf("stored doc name = %q, want EDBT.xml", got)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run("nope", "", dir, 1, 1, 7, "", false, 0, 0, 0, 0); err == nil {
		t.Errorf("unknown kind should fail")
	}
	if err := run("dblp", "", dir, 1, 1, 7, "NotAVenue", false, 0, 0, 0, 0); err == nil {
		t.Errorf("unknown venue should fail")
	}
}
