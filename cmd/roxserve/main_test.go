package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/serve"
)

const peopleXML = `<people>
  <person><name>ann</name><city>zurich</city></person>
  <person><name>bob</name><city>berlin</city></person>
  <person><name>cat</name><city>zurich</city></person>
</people>`

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := rox.NewEngine(rox.WithSeed(7))
	if err := eng.LoadSource(rox.FromXML("people.xml", peopleXML)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(rox.NewPool(eng, 4), 1<<20, "", "standalone"))
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	out := getJSON(t, ts.URL+"/v1/healthz", http.StatusOK)
	if out["status"] != "ok" {
		t.Fatalf("healthz status = %v", out["status"])
	}
	docs, _ := out["documents"].([]any)
	if len(docs) != 1 || docs[0] != "people.xml" {
		t.Fatalf("documents = %v", out["documents"])
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts := testServer(t)
	q := url.QueryEscape(`for $p in doc("people.xml")//person/name return $p`)
	for _, mode := range []string{"", "&mode=rox", "&mode=static"} {
		out := getJSON(t, ts.URL+"/v1/query?q="+q+mode, http.StatusOK)
		items, _ := out["items"].([]any)
		if len(items) != 3 {
			t.Fatalf("mode %q: items = %v", mode, out["items"])
		}
		if items[0] != "<name>ann</name>" {
			t.Fatalf("mode %q: first item = %v", mode, items[0])
		}
	}
}

func TestQueryPostBody(t *testing.T) {
	ts := testServer(t)
	body := strings.NewReader(`for $p in doc("people.xml")//person/city return $p`)
	resp, err := http.Post(ts.URL+"/v1/query", "text/plain", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: status %d", resp.StatusCode)
	}
	var out serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 3 || out.Stats.Rows != 3 {
		t.Fatalf("items = %v, rows = %d", out.Items, out.Stats.Rows)
	}
}

func TestQueryErrors(t *testing.T) {
	ts := testServer(t)
	getJSON(t, ts.URL+"/v1/query", http.StatusBadRequest)                    // empty
	getJSON(t, ts.URL+"/v1/query?q=%21%21not-xquery", http.StatusBadRequest) // parse error
	getJSON(t, ts.URL+"/v1/query?q=1&mode=nonsense", http.StatusBadRequest)  // bad mode
	q := url.QueryEscape(`for $p in doc("missing.xml")//p return $p`)
	getJSON(t, ts.URL+"/v1/query?q="+q, http.StatusBadRequest) // unknown document
}

func TestQueryBodyTooLarge(t *testing.T) {
	eng := rox.NewEngine()
	if err := eng.LoadSource(rox.FromXML("people.xml", peopleXML)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(rox.NewPool(eng, 1), 16, "", "standalone"))
	defer ts.Close()
	body := strings.NewReader(`for $p in doc("people.xml")//person return $p`)
	resp, err := http.Post(ts.URL+"/v1/query", "text/plain", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestCacheEndpoint(t *testing.T) {
	ts := testServer(t)
	out := getJSON(t, ts.URL+"/v1/cache", http.StatusOK)
	if out["enabled"] != true {
		t.Fatalf("cache enabled = %v, want true", out["enabled"])
	}
	if out["size"].(float64) != 0 {
		t.Fatalf("initial cache size = %v, want 0", out["size"])
	}

	// First evaluation misses and installs; the repeat is a zero-sampling hit.
	q := url.QueryEscape(`for $p in doc("people.xml")//person/name return $p`)
	first := getJSON(t, ts.URL+"/v1/query?q="+q, http.StatusOK)
	if hit := first["stats"].(map[string]any)["cache_hit"]; hit != false {
		t.Fatalf("first query cache_hit = %v, want false", hit)
	}
	second := getJSON(t, ts.URL+"/v1/query?q="+q, http.StatusOK)
	stats := second["stats"].(map[string]any)
	if stats["cache_hit"] != true {
		t.Fatalf("second query cache_hit = %v, want true", stats["cache_hit"])
	}
	if st := stats["sample_tuples"].(float64); st != 0 {
		t.Fatalf("cache-hit sample_tuples = %v, want 0", st)
	}

	out = getJSON(t, ts.URL+"/v1/cache", http.StatusOK)
	if out["size"].(float64) != 1 || out["installs"].(float64) != 1 {
		t.Fatalf("cache size/installs = %v/%v, want 1/1", out["size"], out["installs"])
	}
	if out["hits"].(float64) != 1 || out["misses"].(float64) != 1 {
		t.Fatalf("cache hits/misses = %v/%v, want 1/1", out["hits"], out["misses"])
	}
	if out["hit_rate"].(float64) != 0.5 {
		t.Fatalf("hit_rate = %v, want 0.5", out["hit_rate"])
	}
}

func TestConcurrentRequestsAndStats(t *testing.T) {
	ts := testServer(t)
	q := url.QueryEscape(`for $p in doc("people.xml")//person[./city/text() = "zurich"] return $p`)
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/query?q=" + q)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out serve.QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if len(out.Items) != 2 {
				errs <- fmt.Errorf("items = %v", out.Items)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := getJSON(t, ts.URL+"/v1/stats", http.StatusOK)
	if got := stats["queries"].(float64); got != n {
		t.Fatalf("stats queries = %v, want %d", got, n)
	}
}

// shardBody builds a tiny people shard with n persons.
func shardBody(n int) string {
	var sb strings.Builder
	sb.WriteString("<people>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<person><name>p%d</name><age>%d</age></person>", i, 10+i)
	}
	sb.WriteString("</people>")
	return sb.String()
}

// collectionServer serves a 3-shard collection "ppl" next to people.xml,
// with server-side ?file= loads disabled (no corpus directory).
func collectionServer(t *testing.T) *httptest.Server {
	t.Helper()
	return collectionServerCorpus(t, "")
}

// collectionServerCorpus is collectionServer with ?file= loads confined to
// corpusDir.
func collectionServerCorpus(t *testing.T, corpusDir string) *httptest.Server {
	t.Helper()
	eng := rox.NewEngine(rox.WithSeed(7))
	if err := eng.LoadSource(rox.FromXML("people.xml", peopleXML)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := eng.LoadCollectionSource("ppl", rox.FromXML(fmt.Sprintf("ppl-%d.xml", i), shardBody(2))); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(newHandler(rox.NewPool(eng, 4), 1<<20, corpusDir, "standalone"))
	t.Cleanup(ts.Close)
	return ts
}

func TestCollectionsEndpoint(t *testing.T) {
	ts := collectionServer(t)
	out := getJSON(t, ts.URL+"/v1/collections", http.StatusOK)
	colls, _ := out["collections"].([]any)
	if len(colls) != 1 {
		t.Fatalf("collections = %v", out["collections"])
	}
	c := colls[0].(map[string]any)
	if c["name"] != "ppl" {
		t.Fatalf("collection name = %v", c["name"])
	}
	shards, _ := c["shards"].([]any)
	if len(shards) != 3 || shards[0] != "ppl-0.xml" {
		t.Fatalf("shards = %v", c["shards"])
	}
}

func TestCollectionQueryEndpoint(t *testing.T) {
	ts := collectionServer(t)
	q := url.QueryEscape(`for $p in collection("ppl")//person/name return $p`)
	out := getJSON(t, ts.URL+"/v1/query?q="+q, http.StatusOK)
	items, _ := out["items"].([]any)
	if len(items) != 6 {
		t.Fatalf("items = %v", out["items"])
	}
	if items[0] != "<name>p0</name>" {
		t.Fatalf("first item = %v", items[0])
	}
	stats := out["stats"].(map[string]any)
	shards, _ := stats["shards"].([]any)
	if len(shards) != 3 {
		t.Fatalf("per-shard stats = %v", stats["shards"])
	}
	first := shards[0].(map[string]any)
	if first["shard"] != "ppl-0.xml" {
		t.Fatalf("first shard = %v", first["shard"])
	}
	if first["stats"].(map[string]any)["plan"] == "" {
		t.Fatal("shard stats carry no plan")
	}
}

// TestAggregateQueryEndpoint: aggregate results come back as the single
// merged item with rows=1, and scatter queries expose their per-shard stats
// in the /query JSON.
func TestAggregateQueryEndpoint(t *testing.T) {
	ts := collectionServer(t)
	q := url.QueryEscape(`for $p in collection("ppl")//person return sum($p/age)`)
	out := getJSON(t, ts.URL+"/v1/query?q="+q, http.StatusOK)
	items, _ := out["items"].([]any)
	// 3 shards × persons aged 10 and 11.
	if len(items) != 1 || items[0] != "63" {
		t.Fatalf("sum items = %v, want [63]", out["items"])
	}
	stats := out["stats"].(map[string]any)
	if stats["rows"].(float64) != 1 {
		t.Errorf("rows = %v, want 1", stats["rows"])
	}
	shards, _ := stats["shards"].([]any)
	if len(shards) != 3 {
		t.Fatalf("per-shard stats = %v, want 3 entries", stats["shards"])
	}
	for i, sh := range shards {
		m := sh.(map[string]any)
		if m["shard"] != fmt.Sprintf("ppl-%d.xml", i) {
			t.Errorf("shard[%d] = %v", i, m["shard"])
		}
		if m["stats"].(map[string]any)["plan"] == "" {
			t.Errorf("shard %v stats carry no plan", m["shard"])
		}
	}

	// The avg of the same corpus, exercising the (sum, count) merge.
	q = url.QueryEscape(`for $p in collection("ppl")//person return avg($p/age)`)
	out = getJSON(t, ts.URL+"/v1/query?q="+q, http.StatusOK)
	items, _ = out["items"].([]any)
	if len(items) != 1 || items[0] != "10.5" {
		t.Fatalf("avg items = %v, want [10.5]", out["items"])
	}

	// Aggregating a non-numeric path is the client's mistake: 400, not 500.
	q = url.QueryEscape(`for $p in collection("ppl")//person return sum($p/name)`)
	out = getJSON(t, ts.URL+"/v1/query?q="+q, http.StatusBadRequest)
	if msg, _ := out["error"].(string); !strings.Contains(msg, "non-numeric") {
		t.Errorf("non-numeric aggregate error = %q", msg)
	}
}

// TestOrderByQueryEndpoint: ordered scatter queries k-way merge across the
// shards and report rows = item count.
func TestOrderByQueryEndpoint(t *testing.T) {
	ts := collectionServer(t)
	q := url.QueryEscape(`for $p in collection("ppl")//person order by $p/age descending return $p`)
	out := getJSON(t, ts.URL+"/v1/query?q="+q, http.StatusOK)
	items, _ := out["items"].([]any)
	if len(items) != 6 {
		t.Fatalf("items = %v", out["items"])
	}
	for i, it := range items {
		want := "p1" // age 11 first under descending
		if i >= 3 {
			want = "p0"
		}
		if !strings.Contains(it.(string), "<name>"+want+"</name>") {
			t.Errorf("item %d = %v, want a %s person", i, it, want)
		}
	}
	stats := out["stats"].(map[string]any)
	if stats["rows"].(float64) != 6 {
		t.Errorf("rows = %v, want 6", stats["rows"])
	}
}

func TestCollectionLoadEndpoint(t *testing.T) {
	ts := collectionServer(t)
	// Replace shard 1 with a bigger one, then query: rows change, and only
	// that shard's plans were invalidated (the others replay cached).
	q := url.QueryEscape(`for $p in collection("ppl")//person/name return $p`)
	getJSON(t, ts.URL+"/v1/query?q="+q, http.StatusOK) // warm the cache

	// 100 persons instead of 2: far beyond the drift ratio, so the replayed
	// plan is rejected and the shard re-optimized.
	resp, err := http.Post(ts.URL+"/v1/collections/load?name=ppl&shard=ppl-1.xml", "text/xml",
		strings.NewReader(shardBody(100)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load status = %d", resp.StatusCode)
	}
	out := getJSON(t, ts.URL+"/v1/query?q="+q, http.StatusOK)
	items, _ := out["items"].([]any)
	if len(items) != 2+100+2 {
		t.Fatalf("items after reload = %d, want 104", len(items))
	}
	stats := out["stats"].(map[string]any)
	for _, sh := range stats["shards"].([]any) {
		m := sh.(map[string]any)
		st := m["stats"].(map[string]any)
		if m["shard"] == "ppl-1.xml" {
			if st["reoptimized"] != true {
				t.Error("reloaded shard was not re-optimized")
			}
		} else if st["cache_hit"] != true {
			t.Errorf("untouched shard %v lost its cached plan", m["shard"])
		}
	}
	// Exactly one shard went through the stale-generation path.
	cache := getJSON(t, ts.URL+"/v1/cache", http.StatusOK)
	if got := cache["stale_hits"].(float64); got != 1 {
		t.Errorf("stale_hits = %v, want 1 (only the reloaded shard)", got)
	}
	if got := cache["drifts"].(float64); got != 1 {
		t.Errorf("drifts = %v, want 1", got)
	}
}

func TestCollectionLoadEndpointErrors(t *testing.T) {
	ts := collectionServer(t)
	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+"/v1"+path, "text/xml", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("/collections/load", shardBody(1)); got != http.StatusBadRequest {
		t.Errorf("missing params: status %d, want 400", got)
	}
	if got := post("/collections/load?name=ppl&shard=x.xml", "not xml <<<"); got != http.StatusBadRequest {
		t.Errorf("malformed shard XML: status %d, want 400", got)
	}
	if got := post("/collections/load?name=ppl&shard=x.xml", "  "); got != http.StatusBadRequest {
		t.Errorf("empty shard body: status %d, want 400", got)
	}
	resp, err := http.Get(ts.URL + "/v1/collections/load?name=ppl&shard=x.xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET load: status %d, want 405", resp.StatusCode)
	}
}

func TestQueryErrorPaths(t *testing.T) {
	ts := collectionServer(t)
	cases := []struct {
		name  string
		query string
	}{
		{"malformed query", `for $p in in in`},
		{"unknown collection", `for $p in collection("nope")//p return $p`},
		{"unknown document", `for $p in doc("nope.xml")//p return $p`},
		{"static mode on a collection", `for $p in collection("ppl")//person return $p`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := ts.URL + "/v1/query?q=" + url.QueryEscape(tc.query)
			if tc.name == "static mode on a collection" {
				u += "&mode=static"
			}
			out := getJSON(t, u, http.StatusBadRequest)
			if msg, _ := out["error"].(string); msg == "" {
				t.Error("400 without an error message")
			}
		})
	}
}

func TestQueryCanceledContext(t *testing.T) {
	ts := collectionServer(t)
	// A request whose context dies mid-query: the handler must map the
	// cancellation to 503, not 500. The pre-canceled context is rejected
	// deterministically at pool admission, which is the same error path a
	// mid-evaluation abort takes through env.Rec.Interrupt.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v1/query?q="+url.QueryEscape(`for $p in collection("ppl")//person return $p`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("client with canceled context got a response")
	}
	// The client never sees the response; assert the server-side mapping
	// directly instead.
	if got := serve.StatusFor(context.Canceled); got != http.StatusServiceUnavailable {
		t.Errorf("serve.StatusFor(Canceled) = %d, want 503", got)
	}
	if got := serve.StatusFor(fmt.Errorf("rox: queued query canceled: %w", context.Canceled)); got != http.StatusServiceUnavailable {
		t.Errorf("serve.StatusFor(wrapped Canceled) = %d, want 503", got)
	}
	if got := serve.StatusFor(context.DeadlineExceeded); got != http.StatusServiceUnavailable {
		t.Errorf("serve.StatusFor(DeadlineExceeded) = %d, want 503", got)
	}
}

func TestCollectionLoadGuardsAgainstTypos(t *testing.T) {
	ts := collectionServer(t)
	// Mistyped collection name: 404, nothing registered.
	resp, err := http.Post(ts.URL+"/v1/collections/load?name=pplx&shard=s.xml", "text/xml",
		strings.NewReader(shardBody(1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("typo'd collection: status %d, want 404", resp.StatusCode)
	}
	out := getJSON(t, ts.URL+"/v1/collections", http.StatusOK)
	if colls := out["collections"].([]any); len(colls) != 1 {
		t.Fatalf("typo created a collection: %v", out["collections"])
	}
	// Explicit create opt-in works.
	resp, err = http.Post(ts.URL+"/v1/collections/load?name=fresh&shard=s.xml&create=1", "text/xml",
		strings.NewReader(shardBody(1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create=1: status %d, want 200", resp.StatusCode)
	}
	out = getJSON(t, ts.URL+"/v1/collections", http.StatusOK)
	if colls := out["collections"].([]any); len(colls) != 2 {
		t.Fatalf("create=1 did not register: %v", out["collections"])
	}
}

func TestQueryLimitOffsetParams(t *testing.T) {
	ts := testServer(t)
	q := url.QueryEscape(`for $p in doc("people.xml")//person/name return $p`)
	out := getJSON(t, ts.URL+"/v1/query?q="+q+"&limit=1&offset=1", http.StatusOK)
	items, _ := out["items"].([]any)
	if len(items) != 1 || items[0] != "<name>bob</name>" {
		t.Fatalf("limit=1 offset=1 items = %v", out["items"])
	}
	stats, _ := out["stats"].(map[string]any)
	if stats["rows"] != float64(1) || stats["scanned"] != float64(3) || stats["truncated"] != true {
		t.Fatalf("windowed stats = %v", stats)
	}
	// The window also wins over a limit clause in the query text.
	q = url.QueryEscape(`for $p in doc("people.xml")//person/name return $p limit 3`)
	out = getJSON(t, ts.URL+"/v1/query?q="+q+"&limit=2", http.StatusOK)
	if items, _ := out["items"].([]any); len(items) != 2 {
		t.Fatalf("override items = %v", out["items"])
	}
	// Bad window values are client errors.
	getJSON(t, ts.URL+"/v1/query?q="+q+"&limit=x", http.StatusBadRequest)
	getJSON(t, ts.URL+"/v1/query?q="+q+"&offset=-1", http.StatusBadRequest)
	getJSON(t, ts.URL+"/v1/query?q="+q+"&stream=csv", http.StatusBadRequest)
}

func TestQueryStreamNDJSON(t *testing.T) {
	ts := testServer(t)
	q := url.QueryEscape(`for $p in doc("people.xml")//person/name return $p`)
	resp, err := http.Get(ts.URL + "/v1/query?q=" + q + "&stream=ndjson&limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var items []string
	var stats *serve.QueryStats
	for dec.More() {
		var line struct {
			Item  *string           `json:"item"`
			Stats *serve.QueryStats `json:"stats"`
			Error *string           `json:"error"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		switch {
		case line.Error != nil:
			t.Fatalf("stream error line: %s", *line.Error)
		case line.Item != nil:
			if stats != nil {
				t.Fatal("item after stats line")
			}
			items = append(items, *line.Item)
		case line.Stats != nil:
			stats = line.Stats
		}
	}
	if len(items) != 2 || items[0] != "<name>ann</name>" || items[1] != "<name>bob</name>" {
		t.Fatalf("streamed items = %v", items)
	}
	if stats == nil || stats.Rows != 2 || stats.Scanned != 3 || !stats.Truncated {
		t.Fatalf("streamed stats = %+v", stats)
	}
}

// TestTauBelowOneIsUsageError runs main in a child process: -tau below 1 is
// rejected while the flags are parsed — a usage error, exit 2 — instead of
// booting a server that answers every cold query 500.
func TestTauBelowOneIsUsageError(t *testing.T) {
	if args := os.Getenv("ROXSERVE_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"roxserve"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tau := range []string{"0", "-3"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTauBelowOneIsUsageError$")
		cmd.Env = append(os.Environ(), "ROXSERVE_MAIN_ARGS=-tau "+tau)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-tau") {
			t.Errorf("-tau %s: err %v, output %q; want exit 2 naming -tau", tau, err, out)
		}
	}
}
