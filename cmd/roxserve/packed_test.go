package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// postJSON posts body (possibly empty) and decodes the JSON response after
// asserting the status code.
func postJSON(t *testing.T, url, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "text/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// collect runs q on eng and drains the cursor.
func collect(t *testing.T, eng *rox.Engine, q string) (*rox.Result, error) {
	rows, err := eng.Execute(t.Context(), rox.Request{Query: q})
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// packFixture shreds xml into a packed .roxd container named docName.
func packFixture(t *testing.T, dir, docName, xml string) string {
	t.Helper()
	d, err := xmltree.ParseString(docName, xml)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, docName+".roxd")
	if err := index.WritePackedFile(path, index.New(d)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadDocPacked(t *testing.T) {
	dir := t.TempDir()
	path := packFixture(t, dir, "people.xml", peopleXML)
	eng := rox.NewEngine(rox.WithSeed(7))
	if err := loadDoc(eng, path); err != nil {
		t.Fatalf("loadDoc packed: %v", err)
	}
	ts := httptest.NewServer(newHandler(rox.NewPool(eng, 2), 1<<20, "", "standalone"))
	defer ts.Close()
	q := url.QueryEscape(`for $p in doc("people.xml")//person[city = "zurich"]/name return $p`)
	out := getJSON(t, ts.URL+"/v1/query?q="+q, http.StatusOK)
	items, _ := out["items"].([]any)
	if len(items) != 2 {
		t.Fatalf("items = %v, want ann and cat", out["items"])
	}
	if err := loadDoc(eng, filepath.Join(dir, "missing.roxd")); err == nil {
		t.Errorf("missing packed doc should fail")
	}
}

func TestLoadCollectionSpecPacked(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		packFixture(t, dir, fmt.Sprintf("ppl-%d.xml", i), shardBody(2))
	}
	eng := rox.NewEngine(rox.WithSeed(7))
	if err := loadCollectionSpec(eng, "ppl="+filepath.Join(dir, "*.roxd")); err != nil {
		t.Fatalf("loadCollectionSpec packed: %v", err)
	}
	shards, err := eng.CollectionShards("ppl")
	if err != nil || len(shards) != 3 {
		t.Fatalf("shards = %v (%v), want 3", shards, err)
	}
	res, err := collect(t, eng, `for $p in collection("ppl")//person/name return $p`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 6 {
		t.Fatalf("items = %d, want 6", len(res.Items))
	}
}

// TestLoadCollectionSpecMixed: a glob matching packed and XML shards loads
// through the one path rule — same shards, same sorted order, same answers
// as the all-XML glob — and in one catalog swap: a bad shard anywhere in the
// glob registers nothing.
func TestLoadCollectionSpecMixed(t *testing.T) {
	xmlDir, mixedDir := t.TempDir(), t.TempDir()
	for i, name := range []string{"a.xml", "b.xml"} {
		if err := os.WriteFile(filepath.Join(xmlDir, name), []byte(shardBody(2+i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	packFixture(t, mixedDir, "a.xml", shardBody(2)) // a.xml.roxd, stored name a.xml
	if err := os.WriteFile(filepath.Join(mixedDir, "b.xml"), []byte(shardBody(3)), 0o644); err != nil {
		t.Fatal(err)
	}
	const q = `for $p in collection("ppl")//person/name return $p`
	var answers [2][]string
	for i, dir := range []string{xmlDir, mixedDir} {
		eng := rox.NewEngine(rox.WithSeed(7))
		if err := loadCollectionSpec(eng, "ppl="+filepath.Join(dir, "*")); err != nil {
			t.Fatalf("loadCollectionSpec %s: %v", dir, err)
		}
		shards, err := eng.CollectionShards("ppl")
		if err != nil || len(shards) != 2 || shards[0] != "a.xml" || shards[1] != "b.xml" {
			t.Fatalf("shards = %v (%v), want [a.xml b.xml]", shards, err)
		}
		res, err := collect(t, eng, q)
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = res.Items
	}
	if len(answers[0]) != 5 || strings.Join(answers[0], "") != strings.Join(answers[1], "") {
		t.Errorf("all-XML glob answered %v, mixed glob %v", answers[0], answers[1])
	}

	if err := os.WriteFile(filepath.Join(mixedDir, "c.xml"), []byte("<people><person"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := rox.NewEngine()
	if err := loadCollectionSpec(eng, "ppl="+filepath.Join(mixedDir, "*")); err == nil {
		t.Fatal("glob with a malformed shard loaded")
	}
	if docs := eng.Documents(); len(docs) != 0 {
		t.Errorf("failed glob registered %v", docs)
	}
}

// TestLoadDocRefusesV1: a file in the removed ROXD v1 stream format fails
// -doc with the decoder's typed error and its re-pack hint.
func TestLoadDocRefusesV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.roxd")
	if err := os.WriteFile(path, []byte("ROXD\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := loadDoc(rox.NewEngine(), path)
	var fe *xmltree.FormatError
	if !errors.As(err, &fe) || fe.Version != 1 || !strings.Contains(err.Error(), "re-pack") {
		t.Errorf("loadDoc on a v1 file = %v, want *xmltree.FormatError{Version: 1} with the re-pack hint", err)
	}
}

// TestCollectionLoadFileEndpoint swaps one shard of a served collection by
// pointing the endpoint at a packed file in the corpus directory — the O(1)
// mapped swap.
func TestCollectionLoadFileEndpoint(t *testing.T) {
	dir := t.TempDir()
	ts := collectionServerCorpus(t, dir)

	// The packed replacement carries the stored name ppl-1.xml, so the swap
	// replaces that shard rather than appending.
	path := packFixture(t, dir, "ppl-1.xml", shardBody(4))
	out := postJSON(t, ts.URL+"/v1/collections/load?name=ppl&file="+url.QueryEscape(path), "", http.StatusOK)
	if out["status"] != "mapped" {
		t.Fatalf("status = %v, want mapped", out["status"])
	}
	q := url.QueryEscape(`for $p in collection("ppl")//person/name return $p`)
	res := getJSON(t, ts.URL+"/v1/query?q="+q, http.StatusOK)
	items, _ := res["items"].([]any)
	if len(items) != 8 { // shards of 2 + 4 + 2 persons
		t.Fatalf("items after swap = %d, want 8", len(items))
	}

	// XML files swap through the same endpoint, named by &shard= (or base name).
	xmlPath := filepath.Join(dir, "bigger.xml")
	if err := os.WriteFile(xmlPath, []byte(shardBody(5)), 0o644); err != nil {
		t.Fatal(err)
	}
	out = postJSON(t, ts.URL+"/v1/collections/load?name=ppl&shard=ppl-2.xml&file="+url.QueryEscape(xmlPath), "", http.StatusOK)
	if out["status"] != "loaded" {
		t.Fatalf("status = %v, want loaded", out["status"])
	}
	res = getJSON(t, ts.URL+"/v1/query?q="+q, http.StatusOK)
	items, _ = res["items"].([]any)
	if len(items) != 11 { // 2 + 4 + 5
		t.Fatalf("items after xml swap = %d, want 11", len(items))
	}

	// A corpus-relative path works too.
	out = postJSON(t, ts.URL+"/v1/collections/load?name=ppl&file=ppl-1.xml.roxd", "", http.StatusOK)
	if out["status"] != "mapped" {
		t.Fatalf("relative file status = %v, want mapped", out["status"])
	}

	// Error paths: absent file, and the create guard still applies to files.
	postJSON(t, ts.URL+"/v1/collections/load?name=ppl&file="+url.QueryEscape(filepath.Join(dir, "nope.roxd")),
		"", http.StatusBadRequest)
	postJSON(t, ts.URL+"/v1/collections/load?name=brand-new&file="+url.QueryEscape(path),
		"", http.StatusNotFound)
}

// TestCollectionLoadFileConfinement pins the ?file= security contract: loads
// are refused outright without -corpusdir, and a configured corpus directory
// cannot be escaped with absolute paths, ".." segments or symlinks.
func TestCollectionLoadFileConfinement(t *testing.T) {
	outside := t.TempDir()
	secret := filepath.Join(outside, "secret.xml")
	if err := os.WriteFile(secret, []byte(shardBody(1)), 0o644); err != nil {
		t.Fatal(err)
	}

	// No -corpusdir: every file load is forbidden, even a plausible one.
	ts := collectionServer(t)
	postJSON(t, ts.URL+"/v1/collections/load?name=ppl&file="+url.QueryEscape(secret),
		"", http.StatusForbidden)
	postJSON(t, ts.URL+"/v1/collections/load?name=ppl&file=anything.roxd",
		"", http.StatusForbidden)

	// With a corpus directory, escapes are rejected before any file access.
	dir := t.TempDir()
	if err := os.Symlink(secret, filepath.Join(dir, "sneaky.xml")); err != nil {
		t.Fatal(err)
	}
	ts = collectionServerCorpus(t, dir)
	for _, file := range []string{
		secret,                        // absolute path outside
		"../" + filepath.Base(secret), // relative escape
		filepath.Join(dir, "..", filepath.Base(outside), "secret.xml"), // lexical inside, .. outside
		"sneaky.xml", // symlink inside the corpus dir pointing outside
	} {
		out := postJSON(t, ts.URL+"/v1/collections/load?name=ppl&file="+url.QueryEscape(file),
			"", http.StatusForbidden)
		if msg, _ := out["error"].(string); !strings.Contains(msg, "corpus directory") {
			t.Errorf("file %q: error = %q, want a corpus-directory rejection", file, msg)
		}
	}

	// The confinement does not break legitimate loads in the same server.
	good := packFixture(t, dir, "ppl-0.xml", shardBody(3))
	out := postJSON(t, ts.URL+"/v1/collections/load?name=ppl&file="+url.QueryEscape(good), "", http.StatusOK)
	if out["status"] != "mapped" {
		t.Fatalf("legitimate load status = %v, want mapped", out["status"])
	}
}
