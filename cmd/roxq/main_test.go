package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/xmltree"
)

func writeXML(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunQuery(t *testing.T) {
	dir := t.TempDir()
	doc := writeXML(t, dir, "people.xml", `<people><person id="p1"/><person id="p2"/></people>`)
	if err := run(io.Discard, []string{doc}, `for $p in doc("people.xml")//person return $p`, "", "", false, false, true, 100, 1); err != nil {
		t.Fatalf("run: %v", err)
	}
	// classical path
	if err := run(io.Discard, []string{doc}, `for $p in doc("people.xml")//person return $p`, "", "", true, false, false, 100, 1); err != nil {
		t.Fatalf("run classical: %v", err)
	}
	// explain path
	if err := run(io.Discard, []string{doc}, `for $p in doc("people.xml")//person return $p`, "", "", false, true, false, 100, 1); err != nil {
		t.Fatalf("run explain: %v", err)
	}
}

func TestRunQueryFromFile(t *testing.T) {
	dir := t.TempDir()
	doc := writeXML(t, dir, "d.xml", `<r><x/></r>`)
	qf := writeXML(t, dir, "q.xq", `for $x in doc("d.xml")//x return $x`)
	if err := run(io.Discard, []string{doc}, "", qf, "", false, false, false, 100, 1); err != nil {
		t.Fatalf("run from file: %v", err)
	}
}

func TestRunXPath(t *testing.T) {
	dir := t.TempDir()
	doc := writeXML(t, dir, "d.xml", `<r><x k="1"/><x k="2"/></r>`)
	if err := run(io.Discard, []string{doc}, "", "", `//x[@k='2']`, false, false, false, 100, 1); err != nil {
		t.Fatalf("run xpath: %v", err)
	}
	if err := run(io.Discard, nil, "", "", `//x`, false, false, false, 100, 1); err == nil {
		t.Errorf("xpath without docs should fail")
	}
}

// TestRunPackedDoc: a .roxd -doc is mapped through the same rox.FromPath rule
// as every other entry point — it answers -query and -xpath byte-identically
// to the XML it was packed from, addressed by its stored document name (not
// the file's base name).
func TestRunPackedDoc(t *testing.T) {
	dir := t.TempDir()
	const xml = `<site><person id="p1"><name>Ada</name></person><person id="p2"><name>Grace</name></person></site>`
	xmlPath := writeXML(t, dir, "people.xml", xml)
	d, err := xmltree.ParseString("people.xml", xml)
	if err != nil {
		t.Fatal(err)
	}
	packedPath := filepath.Join(dir, "shard-7.roxd")
	if err := index.WritePackedFile(packedPath, index.New(d)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, query, xpath string }{
		{"query", `for $n in doc("people.xml")//person/name return $n`, ""},
		{"xpath", "", `//person[@id='p2']`},
	} {
		var fromXML, fromPacked bytes.Buffer
		if err := run(&fromXML, []string{xmlPath}, tc.query, "", tc.xpath, false, false, false, 100, 1); err != nil {
			t.Fatalf("%s over XML: %v", tc.name, err)
		}
		if err := run(&fromPacked, []string{packedPath}, tc.query, "", tc.xpath, false, false, false, 100, 1); err != nil {
			t.Fatalf("%s over .roxd: %v", tc.name, err)
		}
		if fromXML.Len() == 0 || fromXML.String() != fromPacked.String() {
			t.Errorf("%s: XML answered %q, .roxd answered %q", tc.name, fromXML.String(), fromPacked.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, nil, "", "", "", false, false, false, 100, 1); err == nil {
		t.Errorf("no input should fail")
	}
	if err := run(io.Discard, []string{"/nonexistent.xml"}, "q", "", "", false, false, false, 100, 1); err == nil {
		t.Errorf("missing doc should fail")
	}
	dir := t.TempDir()
	doc := writeXML(t, dir, "d.xml", `<r/>`)
	if err := run(io.Discard, []string{doc}, "not an xquery", "", "", false, false, false, 100, 1); err == nil {
		t.Errorf("bad query should fail")
	}
}

// TestTauBelowOneIsUsageError runs main in a child process: -tau below 1 is
// rejected while the flags are parsed — a usage error, exit 2 — instead of
// running every cold query into "core: Tau must be positive".
func TestTauBelowOneIsUsageError(t *testing.T) {
	if args := os.Getenv("ROXQ_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"roxq"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tau := range []string{"0", "-3"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTauBelowOneIsUsageError$")
		cmd.Env = append(os.Environ(), "ROXQ_MAIN_ARGS=-tau "+tau+" -query x")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-tau") {
			t.Errorf("-tau %s: err %v, output %q; want exit 2 naming -tau", tau, err, out)
		}
	}
}
