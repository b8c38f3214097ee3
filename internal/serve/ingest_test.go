package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/shardrpc"
)

// postIngest posts fragment XML to /v1/collections/{name}/ingest and decodes
// the JSON response, returning it with the HTTP status.
func postIngest(t *testing.T, base, name, params, body string) (int, map[string]any) {
	t.Helper()
	u := base + "/v1/collections/" + name + "/ingest"
	if params != "" {
		u += "?" + params
	}
	resp, err := http.Post(u, "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad ingest response %q: %v", raw, err)
	}
	return resp.StatusCode, out
}

// queryItems runs a buffered /v1/query and returns its items.
func queryItems(t *testing.T, base, q string) []string {
	t.Helper()
	resp, err := http.Get(queryURL(base, q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("query status %d: %s", resp.StatusCode, raw)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return qr.Items
}

// getIngestStats fetches /v1/stats through h and returns its ingest object.
func getIngestStats(t *testing.T, h http.Handler) rox.IngestStats {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats struct {
		Ingest rox.IngestStats `json:"ingest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("bad /v1/stats response %q: %v", rec.Body.Bytes(), err)
	}
	return stats.Ingest
}

// TestIngestEndpoint is the serving-surface contract of POST
// /collections/{name}/ingest: a committed batch is visible to the next
// query, an unknown target 404s without &create=1, bad XML 400s, and the
// ingest counters surface in /v1/stats and GET /v1/collections.
func TestIngestEndpoint(t *testing.T) {
	h, ts := newPeopleServer(t, 0)

	countQ := `for $p in collection("ppl")//person return count($p)`
	before := queryItems(t, ts.URL, countQ)
	if len(before) != 1 || before[0] != "400" {
		t.Fatalf("seed count = %v", before)
	}

	// Ingest into the collection: routed to a shard, committed, visible.
	status, resp := postIngest(t, ts.URL, "ppl", "",
		`<person id="p99999"><name>new</name><age>33</age><salary>1</salary><bio/></person>`)
	if status != http.StatusOK {
		t.Fatalf("ingest status %d: %v", status, resp)
	}
	if resp["status"] != "committed" || resp["target"] != "ppl" {
		t.Fatalf("ingest response: %v", resp)
	}
	if after := queryItems(t, ts.URL, countQ); len(after) != 1 || after[0] != "401" {
		t.Fatalf("post-ingest count = %v", after)
	}

	// Unknown target without create: 404, and nothing registered.
	status, resp = postIngest(t, ts.URL, "typo", "", `<x/>`)
	if status != http.StatusNotFound {
		t.Fatalf("typo target status %d: %v", status, resp)
	}
	// With create=1 a new document appears.
	status, _ = postIngest(t, ts.URL, "fresh.xml", "create=1", `<log><e n="1"/></log>`)
	if status != http.StatusOK {
		t.Fatalf("create status %d", status)
	}
	status, _ = postIngest(t, ts.URL, "fresh.xml", "", `<e n="2"/>`)
	if status != http.StatusOK {
		t.Fatalf("append-to-created status %d", status)
	}
	got := queryItems(t, ts.URL, `for $e in doc("fresh.xml")//e return count($e)`)
	if len(got) != 1 || got[0] != "2" {
		t.Fatalf("created doc count = %v", got)
	}

	// Malformed fragment: 400.
	if status, _ = postIngest(t, ts.URL, "ppl", "", `<unclosed`); status != http.StatusBadRequest {
		t.Fatalf("bad xml status %d", status)
	}
	// Empty body: 400.
	if status, _ = postIngest(t, ts.URL, "ppl", "", "  "); status != http.StatusBadRequest {
		t.Fatalf("empty body status %d", status)
	}

	// Observability: /v1/stats carries the ingest section with live counters.
	st := getIngestStats(t, h)
	if st.Appends != 3 || st.Commits != 3 {
		t.Fatalf("stats ingest counters: %+v", st)
	}
	if st.DeltaNodes == 0 || st.LastCommitGen == 0 {
		t.Fatalf("stats ingest gauges: %+v", st)
	}
	if st.PendingDocs != 0 || st.Durable {
		t.Fatalf("stats ingest state: %+v", st)
	}

	// GET /v1/collections carries the same ingest object.
	cresp, err := http.Get(ts.URL + "/v1/collections")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var colls map[string]json.RawMessage
	if err := json.NewDecoder(cresp.Body).Decode(&colls); err != nil {
		t.Fatal(err)
	}
	if colls["ingest"] == nil {
		t.Fatalf("GET /collections lacks ingest: %v", colls)
	}
}

// TestShardIngestEndpoint covers remote ingest end to end: a coordinator
// with a remote collection ingests through its own Append/Commit, the
// fragment lands on the shard server through that server's public ingest
// endpoint, and the old shard ingest route is no longer served.
func TestShardIngestEndpoint(t *testing.T) {
	shardEng := rox.NewEngine(rox.WithSeed(1))
	if err := shardEng.LoadSource(rox.FromXML("ppl-0.xml", peopleXML(0, 10, 0))); err != nil {
		t.Fatal(err)
	}
	shardTS := httptest.NewServer(New(rox.NewPool(shardEng, 2), Config{Role: "shard"}))
	t.Cleanup(shardTS.Close)

	resp, err := http.Post(shardTS.URL+"/v1/shards/ppl-0.xml/ingest", "application/json", strings.NewReader(`{"fragments":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/shards/{shard}/ingest status %d, want 404", resp.StatusCode)
	}

	coordEng := rox.NewEngine(rox.WithSeed(1))
	if err := coordEng.LoadCollectionRemote(t.Context(), "ppl",
		[]rox.Endpoint{{URL: shardTS.URL}}); err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(New(rox.NewPool(coordEng, 2), Config{}))
	t.Cleanup(coordTS.Close)

	countQ := `for $p in collection("ppl")//person return count($p)`
	before := queryItems(t, coordTS.URL, countQ)
	status, iresp := postIngest(t, coordTS.URL, "ppl", "",
		`<person id="pr1"><name>remote</name><age>2</age><salary>3</salary><bio/></person>`)
	if status != http.StatusOK {
		t.Fatalf("coordinator ingest status %d: %v", status, iresp)
	}
	after := queryItems(t, coordTS.URL, countQ)
	if len(before) != 1 || before[0] != "10" || len(after) != 1 || after[0] != "11" {
		t.Fatalf("remote ingest counts: before %v want 10, after %v want 11", before, after)
	}
	if st := shardEng.Ingest().Stats(); st.Appends != 1 || st.Commits != 1 {
		t.Fatalf("shard server ingest stats %+v, want 1 append and 1 commit", st)
	}
}

// TestIngestBodyAllOrNothing pins that one ingest body is one batch, applied
// whole or not at all: a body whose second element is malformed is refused
// with nothing appended — neither published by the next accepted body nor
// logged for a restart to replay.
func TestIngestBodyAllOrNothing(t *testing.T) {
	walDir := t.TempDir()
	eng := bootLog(t, walDir, 0)
	ts := httptest.NewServer(New(rox.NewPool(eng, 2), Config{}))
	defer ts.Close()
	countQ := `for $e in doc("log.xml")//e return count($e)`

	if status, resp := postIngest(t, ts.URL, "log.xml", "", `<e n="good"/><e n="bad"`); status != http.StatusBadRequest {
		t.Fatalf("half-malformed body: status %d (%v), want 400", status, resp)
	}
	if status, resp := postIngest(t, ts.URL, "log.xml", "", `<e n="a"/><e n="b"/>`); status != http.StatusOK {
		t.Fatalf("well-formed body: status %d (%v)", status, resp)
	}
	if got := queryItems(t, ts.URL, countQ); len(got) != 1 || got[0] != "3" {
		t.Fatalf("count after the accepted body = %v, want 3 (the seed e and its own two)", got)
	}
	if st := eng.Ingest().Stats(); st.Appends != 1 || st.Commits != 1 {
		t.Fatalf("ingest stats %+v, want 1 append and 1 commit", st)
	}
	if err := eng.Ingest().Close(); err != nil {
		t.Fatal(err)
	}

	if got := collectItems(t, bootLog(t, walDir, 1), countQ); len(got) != 1 || got[0] != "3" {
		t.Fatalf("count after restart = %v, want 3", got)
	}
}

// collectItems runs q on eng and returns its items.
func collectItems(t *testing.T, eng *rox.Engine, q string) []string {
	t.Helper()
	rows, err := eng.Execute(t.Context(), rox.Request{Query: q})
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res.Items
}

// TestRemoteIngestMatchesLocal commits fragments appended to a collection of
// two remote shards once, and pins that each shard server sees exactly one
// commit of one batch, and that the results are byte-identical to an engine
// that appended the same fragments to the same shards held locally.
// Round-robin sends the third fragment, with its XML declaration and
// comment, to the first shard after the first fragment, so that shard
// server parses them between elements of one body.
func TestRemoteIngestMatchesLocal(t *testing.T) {
	ref := rox.NewEngine(rox.WithSeed(1))
	coord := rox.NewEngine(rox.WithSeed(1))
	var shardEngs []*rox.Engine
	var endpoints []rox.Endpoint
	for s := 0; s < 2; s++ {
		name, xml := fmt.Sprintf("ppl-%d.xml", s), peopleXML(s*10, 10, 0)
		if err := ref.LoadCollectionSource("ppl", rox.FromXML(name, xml)); err != nil {
			t.Fatal(err)
		}
		shardEng := rox.NewEngine(rox.WithSeed(1))
		if err := shardEng.LoadSource(rox.FromXML(name, xml)); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(rox.NewPool(shardEng, 2), Config{Role: "shard"}))
		t.Cleanup(ts.Close)
		shardEngs = append(shardEngs, shardEng)
		endpoints = append(endpoints, rox.Endpoint{URL: ts.URL})
	}
	if err := coord.LoadCollectionRemote(t.Context(), "ppl", endpoints); err != nil {
		t.Fatal(err)
	}

	frags := []string{
		`<person id="q1"><name>a</name><age>61</age><salary>5</salary><nick>x</nick></person>`,
		`<person id="q2"><name>b</name><age>40</age><salary>11</salary></person><person id="q3"><name>c</name><age>40</age><salary>13</salary><nick>y</nick></person>`,
		`<?xml version="1.0"?><!-- moved --><person id="q4"><name>d</name><age>19</age><salary>7</salary></person>`,
		`<person id="q5"><name>e</name><age>33</age><salary>17</salary></person>`,
	}
	for _, eng := range []*rox.Engine{ref, coord} {
		for _, f := range frags {
			if err := eng.Append("ppl", f); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Commit(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	for i, eng := range shardEngs {
		if st := eng.Ingest().Stats(); st.Commits != 1 || st.Appends != 1 {
			t.Errorf("shard server %d ingest stats %+v, want one batch: 1 append, 1 commit", i, st)
		}
	}
	for _, q := range []string{
		`for $p in collection("ppl")//person return count($p)`,
		`for $p in collection("ppl")//person order by $p/age descending return $p`,
		`for $p in collection("ppl")//person return sum($p/salary)`,
		`for $n in collection("ppl")//person/nick return $n`,
	} {
		want, got := collectItems(t, ref, q), collectItems(t, coord, q)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s:\nremote %q\nlocal  %q", q, got, want)
		}
	}
	if got := collectItems(t, coord, `for $p in collection("ppl")//person return count($p)`); got[0] != "25" {
		t.Errorf("count after ingest = %v, want 25", got)
	}
}

// TestRemoteIngestFailureKeepsBuffers pins how a remote batch fails: a shard
// document that vanished from its server (404) and a batch over the server's
// MaxBody (413) both fail the coordinator's Commit with a typed
// *shardrpc.RemoteError and its /v1 ingest with 400, and keep the buffered
// fragments: once the shard server is fixed, a retry publishes each exactly
// once.
func TestRemoteIngestFailureKeepsBuffers(t *testing.T) {
	seed := peopleXML(0, 10, 0)
	shardServer := func(t *testing.T, cfg Config, docs ...string) (*rox.Engine, http.Handler) {
		eng := rox.NewEngine(rox.WithSeed(1))
		for _, name := range docs {
			if err := eng.LoadSource(rox.FromXML(name, seed)); err != nil {
				t.Fatal(err)
			}
		}
		cfg.Role = "shard"
		return eng, New(rox.NewPool(eng, 2), cfg)
	}
	for _, tc := range []struct {
		name   string
		status int
		// cfg and docs build the shard server the batch fails against.
		cfg  Config
		docs []string
	}{
		{"vanished document", http.StatusNotFound, Config{}, nil},
		{"oversized batch", http.StatusRequestEntityTooLarge, Config{MaxBody: 64}, []string{"ppl-0.xml"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cur atomic.Pointer[http.Handler]
			shardEng, h := shardServer(t, Config{}, "ppl-0.xml")
			cur.Store(&h)
			shardTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				(*cur.Load()).ServeHTTP(w, r)
			}))
			t.Cleanup(shardTS.Close)
			coord := rox.NewEngine(rox.WithSeed(1))
			if err := coord.LoadCollectionRemote(t.Context(), "ppl", []rox.Endpoint{{URL: shardTS.URL}}); err != nil {
				t.Fatal(err)
			}
			coordTS := httptest.NewServer(New(rox.NewPool(coord, 2), Config{}))
			t.Cleanup(coordTS.Close)

			_, broken := shardServer(t, tc.cfg, tc.docs...)
			cur.Store(&broken)
			if status, resp := postIngest(t, coordTS.URL, "ppl", "",
				`<person id="r1"><name>retry</name><age>50</age><salary>1</salary></person>`); status != http.StatusBadRequest {
				t.Fatalf("coordinator ingest status %d (%v), want 400", status, resp)
			}
			if err := coord.Append("ppl", `<person id="r2"><name>retry</name><age>51</age><salary>2</salary></person>`); err != nil {
				t.Fatal(err)
			}
			_, err := coord.Commit(t.Context())
			var remote *shardrpc.RemoteError
			if !errors.As(err, &remote) || remote.Status != tc.status {
				t.Fatalf("Commit = %v, want a *shardrpc.RemoteError with status %d", err, tc.status)
			}
			if st := coord.Ingest().Stats(); st.PendingDocs != 1 {
				t.Fatalf("coordinator stats %+v after the failed Commit, want the remote shard's batch pending", st)
			}

			// Fixed: the document is back (a fresh load of it), or the bound
			// admits the batch. The retry commits both fragments, once.
			if tc.status == http.StatusNotFound {
				shardEng, h = shardServer(t, Config{}, "ppl-0.xml")
			}
			cur.Store(&h)
			if _, err := coord.Commit(t.Context()); err != nil {
				t.Fatalf("retried Commit: %v", err)
			}
			if _, err := coord.Commit(t.Context()); err != nil {
				t.Fatalf("empty Commit: %v", err)
			}
			if got := collectItems(t, coord, `for $p in collection("ppl")//person return count($p)`); len(got) != 1 || got[0] != "12" {
				t.Fatalf("count after the retry = %v, want 12", got)
			}
			if st := shardEng.Ingest().Stats(); st.Appends != 1 || st.Commits != 1 {
				t.Fatalf("shard server ingest stats %+v, want the retry as 1 append and 1 commit", st)
			}
		})
	}
}

// TestIngestAppendStatus pins who is blamed for a failed append: the client
// (400) for anything wrong with its XML — even when the parser's message or
// the document's name happens to contain "wal" — and the server (500) once a
// durability failure has latched the ingester, classified by
// rox.ErrIngestBroken and not by the error's text.
func TestIngestAppendStatus(t *testing.T) {
	eng := rox.NewEngine(rox.WithSeed(1))
	if err := eng.LoadSource(rox.FromXML("wallet.xml", `<wallet><coin/></wallet>`)); err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	if _, err := eng.OpenIngestDir(walDir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(rox.NewPool(eng, 2), Config{}))
	defer ts.Close()

	for _, body := range []string{`<wal><x></wal>`, `<w><x></w>`} {
		if status, resp := postIngest(t, ts.URL, "wallet.xml", "", body); status != http.StatusBadRequest {
			t.Errorf("malformed fragment %s: status %d (%v), want 400", body, status, resp)
		}
	}
	if status, resp := postIngest(t, ts.URL, "wallet.xml", "", `<coin/>`); status != http.StatusOK {
		t.Fatalf("well-formed fragment: status %d (%v)", status, resp)
	}

	// Latch a durability failure: the next compaction cannot create its
	// fresh WAL because a directory squats on the next epoch's file name.
	var epoch int
	if _, err := fmt.Sscanf(filepath.Base(eng.Ingest().Stats().WALPath), "ingest.%d.wal", &epoch); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(walDir, fmt.Sprintf("ingest.%d.wal", epoch+1)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest().Compact(context.Background()); !errors.Is(err, rox.ErrIngestBroken) {
		t.Fatalf("Compact = %v, want an error wrapping rox.ErrIngestBroken", err)
	}
	if status, resp := postIngest(t, ts.URL, "wallet.xml", "", `<coin/>`); status != http.StatusInternalServerError {
		t.Errorf("append on a latched ingester: status %d (%v), want 500", status, resp)
	}
}

// bootLog returns an engine holding log.xml as loaded from the corpus, with
// the durable ingest directory dir attached; it fails the test unless
// exactly replayed WAL batches were recovered.
func bootLog(t *testing.T, dir string, replayed int) *rox.Engine {
	t.Helper()
	eng := rox.NewEngine(rox.WithSeed(1))
	if err := eng.LoadSource(rox.FromXML("log.xml", `<log><e/></log>`)); err != nil {
		t.Fatal(err)
	}
	if n, err := eng.OpenIngestDir(dir); err != nil || n != replayed {
		t.Fatalf("OpenIngestDir = %d, %v; want %d batches replayed", n, err, replayed)
	}
	t.Cleanup(func() { eng.Ingest().Close() })
	return eng
}

// TestIngestStatsAcrossRestart pins that the batches a restarted engine
// replayed from its WAL before any server existed show in the /v1/stats of
// the server built on it, and that the lifetime counts go on from there.
func TestIngestStatsAcrossRestart(t *testing.T) {
	walDir := t.TempDir()
	eng := bootLog(t, walDir, 0)
	for i := 0; i < 2; i++ {
		if err := eng.Append("log.xml", `<e/>`); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Commit(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Ingest().Close(); err != nil {
		t.Fatal(err)
	}

	h := New(rox.NewPool(bootLog(t, walDir, 2), 2), Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()
	if st := getIngestStats(t, h); st.ReplayedBatches != 2 || st.LastCommitGen == 0 || st.Commits != 0 {
		t.Fatalf("stats after restart: %+v, want 2 replayed batches, a commit generation and no commits", st)
	}
	if status, resp := postIngest(t, ts.URL, "log.xml", "", `<e/>`); status != http.StatusOK {
		t.Fatalf("ingest status %d: %v", status, resp)
	}
	if st := getIngestStats(t, h); st.Commits != 1 || st.ReplayedBatches != 2 {
		t.Fatalf("stats after one more ingest: %+v, want 1 commit and 2 replayed batches", st)
	}
}

// TestIngestStatsConcurrentWithWrites reads the ingester's statistics, directly
// and through /v1/stats, while another goroutine appends, commits and
// compacts. Under -race it pins that the ingester's ledger is read under the
// same lock its writers hold.
func TestIngestStatsConcurrentWithWrites(t *testing.T) {
	eng := bootLog(t, t.TempDir(), 0)
	h := New(rox.NewPool(eng, 2), Config{})
	const batches = 20
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			for i := 1; i <= batches; i++ {
				if err := eng.Append("log.xml", `<e/>`); err != nil {
					return err
				}
				if _, err := eng.Commit(t.Context()); err != nil {
					return err
				}
				if i%5 == 0 {
					if err := eng.Ingest().Compact(t.Context()); err != nil {
						return err
					}
				}
			}
			return nil
		}()
	}()
	var commits int64
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		st := eng.Ingest().Stats()
		if st.Commits < commits {
			t.Fatalf("commits went back from %d to %d", commits, st.Commits)
		}
		commits = st.Commits
		getIngestStats(t, h)
	}
	if st := getIngestStats(t, h); st.Appends != batches || st.Commits != batches || st.Compactions != batches/5 {
		t.Fatalf("final stats: %+v, want %d appends and commits, %d compactions", st, batches, batches/5)
	}
}
