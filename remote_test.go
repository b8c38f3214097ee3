package rox

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/shardrpc"
	"repro/internal/testutil"
	"repro/internal/xmltree"
)

// swapExec is a shardrpc.Executor that delegates to a swappable engine — the
// test stand-in for a shard-server process that reloads data or restarts
// (fresh engine, empty plan cache) behind a stable URL.
type swapExec struct {
	mu   sync.Mutex
	eng  *Engine
	seen []shardrpc.ExecRequest // every execute request, in arrival order
}

func (s *swapExec) swap(e *Engine) {
	s.mu.Lock()
	s.eng = e
	s.mu.Unlock()
}

func (s *swapExec) current() *Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng
}

func (s *swapExec) ExecuteShard(ctx context.Context, shard string, req *shardrpc.ExecRequest) (shardrpc.ShardRun, error) {
	s.mu.Lock()
	s.seen = append(s.seen, *req)
	s.mu.Unlock()
	return s.current().ExecuteShard(ctx, shard, req)
}

func (s *swapExec) ShardInventory() []shardrpc.ShardInfo {
	return s.current().ShardInventory()
}

// newShardServer mounts a shard-server surface (the same shardrpc handlers
// cmd/roxserve mounts) over eng behind an httptest server.
func newShardServer(t *testing.T, eng *Engine) (*swapExec, *httptest.Server) {
	t.Helper()
	ex, ts := newUnstartedShardServer(t, eng)
	ts.Start()
	return ex, ts
}

// newUnstartedShardServer is newShardServer before its Start, for a test
// that configures the server first.
func newUnstartedShardServer(t *testing.T, eng *Engine) (*swapExec, *httptest.Server) {
	t.Helper()
	ex := &swapExec{eng: eng}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shards", shardrpc.HandleInventory(ex))
	mux.HandleFunc("POST /v1/shards/{shard}/execute", shardrpc.HandleExecute(ex))
	ts := httptest.NewUnstartedServer(mux)
	t.Cleanup(ts.Close)
	return ex, ts
}

// pricedSingleEngine loads the concatenation of the given pricedShardXML
// spans as one document "ppl.xml".
func pricedSingleEngine(t *testing.T, spans [][2]int) *Engine {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<people>")
	for _, sp := range spans {
		inner := pricedShardXML(sp[0], sp[1])
		sb.WriteString(strings.TrimSuffix(strings.TrimPrefix(inner, "<people>"), "</people>"))
	}
	sb.WriteString("</people>")
	eng := NewEngine()
	if err := eng.LoadSource(FromXML("ppl.xml", sb.String())); err != nil {
		t.Fatal(err)
	}
	return eng
}

// pricedServerEngine loads the given spans as plain documents ppl-<i>.xml —
// what a shard server holds (the server serves documents; collection
// membership lives on the coordinator).
func pricedServerEngine(t *testing.T, idx []int, spans [][2]int) *Engine {
	t.Helper()
	eng := NewEngine()
	for _, i := range idx {
		if err := eng.LoadSource(FromXML(fmt.Sprintf("ppl-%d.xml", i), pricedShardXML(spans[i][0], spans[i][1]))); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// remoteEquivQueries is the tail-shape matrix of the remote equivalence
// contract: plain, ordered (asc/desc, string keys), aggregate, and a
// limit+offset window, each as a doc()/collection() pair.
var remoteEquivQueries = []struct {
	name, docQ, collQ string
}{
	{"plain", `for $p in doc("ppl.xml")//person return $p`,
		`for $p in collection("ppl")//person return $p`},
	{"ordered by age desc", `for $p in doc("ppl.xml")//person order by $p/age descending return $p`,
		`for $p in collection("ppl")//person order by $p/age descending return $p`},
	{"ordered by string id", `for $p in doc("ppl.xml")//person order by $p/@id return $p`,
		`for $p in collection("ppl")//person order by $p/@id return $p`},
	{"sum of decimal salaries", `for $p in doc("ppl.xml")//person return sum($p/salary)`,
		`for $p in collection("ppl")//person return sum($p/salary)`},
	{"avg of decimal salaries", `for $p in doc("ppl.xml")//person return avg($p/salary)`,
		`for $p in collection("ppl")//person return avg($p/salary)`},
	{"limit offset window", `for $p in doc("ppl.xml")//person order by $p/age return $p limit 10 offset 5`,
		`for $p in collection("ppl")//person order by $p/age return $p limit 10 offset 5`},
}

// TestRemoteCollectionEquivalence is the distributed acceptance contract: a
// collection scattered over remote shard servers — and a mixed local+remote
// registration — returns results byte-identical to the single-catalog and
// all-local-sharded evaluations, for every tail shape, on the cold scatter
// AND on the prepared replay (which must be a full per-shard cache hit with
// zero sampling on both sides of the wire).
func TestRemoteCollectionEquivalence(t *testing.T) {
	spans := [][2]int{{0, 30}, {100, 30}, {200, 30}}
	single := pricedSingleEngine(t, spans)

	local := NewEngine()
	for i, sp := range spans {
		if err := local.LoadCollectionSource("ppl", FromXML(fmt.Sprintf("ppl-%d.xml", i), pricedShardXML(sp[0], sp[1]))); err != nil {
			t.Fatal(err)
		}
	}

	// Remote: shards 0,1 on server A, shard 2 on server B; discovery orders a
	// server's inventory by name, endpoints keep argument order.
	_, tsA := newShardServer(t, pricedServerEngine(t, []int{0, 1}, spans))
	_, tsB := newShardServer(t, pricedServerEngine(t, []int{2}, spans))
	remote := NewEngine()
	if err := remote.LoadCollectionRemote(context.Background(), "ppl",
		[]Endpoint{{URL: tsA.URL}, {URL: tsB.URL}}); err != nil {
		t.Fatal(err)
	}

	// Mixed: shard 0 local, shards 1,2 remote.
	_, tsC := newShardServer(t, pricedServerEngine(t, []int{1, 2}, spans))
	mixed := NewEngine()
	if err := mixed.LoadCollectionSource("ppl", FromXML("ppl-0.xml", pricedShardXML(spans[0][0], spans[0][1]))); err != nil {
		t.Fatal(err)
	}
	if err := mixed.LoadCollectionRemote(context.Background(), "ppl",
		[]Endpoint{{URL: tsC.URL}}); err != nil {
		t.Fatal(err)
	}

	configs := []struct {
		name string
		eng  *Engine
	}{{"local-sharded", local}, {"remote", remote}, {"mixed", mixed}}
	for _, q := range remoteEquivQueries {
		want, err := collectRows(single.Execute(context.Background(), Request{Query: q.docQ}))
		if err != nil {
			t.Fatalf("%s: single-catalog query: %v", q.name, err)
		}
		for _, cfg := range configs {
			t.Run(cfg.name+"/"+q.name, func(t *testing.T) {
				prep, err := cfg.eng.Prepare(q.collQ)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := collectRows(cfg.eng.Execute(context.Background(), Request{Prepared: prep}))
				if err != nil {
					t.Fatalf("cold scatter: %v", err)
				}
				assertSameItems(t, "cold scatter", want.Items, cold.Items)
				if len(cold.Stats.Shards) != 3 {
					t.Errorf("ShardStats count = %d, want 3", len(cold.Stats.Shards))
				}
				replay, err := collectRows(cfg.eng.Execute(context.Background(), Request{Prepared: prep}))
				if err != nil {
					t.Fatalf("prepared replay: %v", err)
				}
				assertSameItems(t, "prepared replay", want.Items, replay.Items)
				// A filled limit window cancels the shards still streaming; one
				// canceled before its done line arrived has no plan to report
				// and no cache outcome to assert (how many is timing).
				reported := 0
				for _, sh := range replay.Stats.Shards {
					if sh.Stats.Plan == "" {
						continue
					}
					reported++
					if !sh.Stats.CacheHit {
						t.Errorf("shard %s replay missed its server-side cache", sh.Shard)
					}
				}
				if reported < len(replay.Stats.Shards) && !replay.Stats.Truncated {
					t.Errorf("%d of %d shards reported, yet the result is not truncated", reported, len(replay.Stats.Shards))
				}
				if (reported > 0 && !replay.Stats.CacheHit) || replay.Stats.SampleTuples != 0 {
					t.Errorf("replay: CacheHit=%v SampleTuples=%d, want per-shard hits with zero sampling",
						replay.Stats.CacheHit, replay.Stats.SampleTuples)
				}
			})
		}
	}
}

// TestPageWindowsShardedEquivalence: the key sort selects only a window's
// first offset+count rows on every shard, and the gather merges what the
// shards selected — so every window of roxmark's page rotation, and its topk,
// over 4 local shards and over 4 remote ones (2 servers) must stay byte for
// byte the window of the unsharded document, cold and replayed.
func TestPageWindowsShardedEquivalence(t *testing.T) {
	cfg := datagen.DefaultXMarkConfig()
	single := NewEngine()
	_ = single.LoadSource(FromDocument(datagen.XMark(cfg)))
	shards := datagen.XMarkShards(cfg, 4)
	local := NewEngine()
	for _, d := range shards {
		_ = local.LoadCollectionSource("xmark", FromDocument(d))
	}
	var endpoints []Endpoint
	for _, half := range [][]*xmltree.Document{shards[:2], shards[2:]} {
		srv := NewEngine()
		for _, d := range half {
			_ = srv.LoadSource(FromDocument(d))
		}
		_, ts := newShardServer(t, srv)
		endpoints = append(endpoints, Endpoint{URL: ts.URL})
	}
	remote := NewEngine()
	if err := remote.LoadCollectionRemote(context.Background(), "xmark", endpoints); err != nil {
		t.Fatal(err)
	}

	const page = `//open_auction[reserve] order by $a/initial return $a`
	const topk = `//open_auction[reserve] order by $a/current descending return $a`
	type window struct {
		tail          string
		limit, offset int
	}
	windows := []window{{topk, 10, 0}, {page, 0, 25}, {page, 0, 0}}
	for i := 0; i < 17; i++ {
		windows = append(windows, window{page, 10, 10 * i})
	}
	ctx := context.Background()
	for _, w := range windows {
		want, err := collectRows(single.Execute(ctx, Request{
			Query: `for $a in doc("xmark.xml")` + w.tail, Limit: w.limit, Offset: w.offset}))
		if err != nil {
			t.Fatal(err)
		}
		if w.limit > 0 && len(want.Items) != w.limit {
			t.Fatalf("limit %d offset %d: the document has only %d rows", w.limit, w.offset, len(want.Items))
		}
		for name, eng := range map[string]*Engine{"local": local, "remote": remote} {
			for _, phase := range []string{"cold", "replay"} {
				got, err := collectRows(eng.Execute(ctx, Request{
					Query: `for $a in collection("xmark")` + w.tail, Limit: w.limit, Offset: w.offset}))
				if err != nil {
					t.Fatalf("%s limit %d offset %d: %v", name, w.limit, w.offset, err)
				}
				assertSameItems(t, fmt.Sprintf("%s %s limit %d offset %d", name, phase, w.limit, w.offset),
					want.Items, got.Items)
			}
		}
	}
}

// TestRemoteDriftReoptimization is the drift leg of the distributed contract:
// after a remote shard server reloads one document with 10x the data, the
// coordinator's prepared statements must return results matching the new
// corpus, the reloaded shard must re-optimize on its server, and the
// untouched shards must keep replaying their cached plans.
func TestRemoteDriftReoptimization(t *testing.T) {
	spans := [][2]int{{0, 30}, {100, 30}, {200, 30}}
	exA, tsA := newShardServer(t, pricedServerEngine(t, []int{0, 1}, spans))
	_, tsB := newShardServer(t, pricedServerEngine(t, []int{2}, spans))
	coord := NewEngine()
	if err := coord.LoadCollectionRemote(context.Background(), "ppl",
		[]Endpoint{{URL: tsA.URL}, {URL: tsB.URL}}); err != nil {
		t.Fatal(err)
	}

	queries := []struct{ name, collQ, docQ string }{
		{"ordered", `for $p in collection("ppl")//person order by $p/age descending return $p`,
			`for $p in doc("ppl.xml")//person order by $p/age descending return $p`},
		{"sum", `for $p in collection("ppl")//person return sum($p/salary)`,
			`for $p in doc("ppl.xml")//person return sum($p/salary)`},
	}
	preps := make([]*Prepared, len(queries))
	for i, q := range queries {
		p, err := coord.Prepare(q.collQ)
		if err != nil {
			t.Fatal(err)
		}
		preps[i] = p
		if _, err := collectRows(coord.Execute(context.Background(), Request{Prepared: p})); err != nil { // warm both sides
			t.Fatalf("%s warm-up: %v", q.name, err)
		}
	}

	// Reload ppl-1.xml on server A with 10x the data — the server's document
	// generation moves, so the coordinator's next request replays-and-verifies
	// and the drift machinery re-optimizes on the server.
	spans[1] = [2]int{100, 300}
	if err := exA.current().LoadSource(FromXML("ppl-1.xml", pricedShardXML(spans[1][0], spans[1][1]))); err != nil {
		t.Fatal(err)
	}
	single := pricedSingleEngine(t, spans)
	for i, q := range queries {
		want, err := collectRows(single.Execute(context.Background(), Request{Query: q.docQ}))
		if err != nil {
			t.Fatalf("%s single after reload: %v", q.name, err)
		}
		drift, err := collectRows(coord.Execute(context.Background(), Request{Prepared: preps[i]}))
		if err != nil {
			t.Fatalf("%s drift query: %v", q.name, err)
		}
		assertSameItems(t, q.name+" drift", want.Items, drift.Items)
		if !drift.Stats.Reoptimized {
			t.Errorf("%s: reloaded remote shard did not re-optimize", q.name)
		}
		for _, sh := range drift.Stats.Shards {
			if sh.Shard != "ppl-1.xml" && (!sh.Stats.CacheHit || sh.Stats.SampleTuples != 0) {
				t.Errorf("%s: untouched remote shard %s lost its cached plan", q.name, sh.Shard)
			}
		}
		settled, err := collectRows(coord.Execute(context.Background(), Request{Prepared: preps[i]}))
		if err != nil {
			t.Fatalf("%s settled query: %v", q.name, err)
		}
		assertSameItems(t, q.name+" settled", want.Items, settled.Items)
		if !settled.Stats.CacheHit || settled.Stats.SampleTuples != 0 {
			t.Errorf("%s settled run missed the cache: CacheHit=%v SampleTuples=%d",
				q.name, settled.Stats.CacheHit, settled.Stats.SampleTuples)
		}
	}
}

// TestRemoteRestartReplaysOwnPlans: a shard server's plan cache is written
// only by its own runs. A restarted server (fresh engine, empty plan cache,
// generation stamps starting over below the old process's) pays one cold run
// per query shape and shard, then serves exact hits; a later 10x reload of
// one document re-optimizes exactly once, and the queries after it replay
// without sampling. Items stay those of a local collection throughout.
func TestRemoteRestartReplaysOwnPlans(t *testing.T) {
	spans := [][2]int{{0, 40}, {100, 40}}
	old := pricedServerEngine(t, []int{0, 1}, spans)
	for range 3 { // push the old process's stamps past the restarted one's
		for i, sp := range spans {
			if err := old.LoadSource(FromXML(fmt.Sprintf("ppl-%d.xml", i), pricedShardXML(sp[0], sp[1]))); err != nil {
				t.Fatal(err)
			}
		}
	}
	ex, ts := newShardServer(t, old)
	coord := NewEngine()
	if err := coord.LoadCollectionRemote(context.Background(), "ppl", []Endpoint{{URL: ts.URL}}); err != nil {
		t.Fatal(err)
	}
	const q = `for $p in collection("ppl")//person order by $p/age return $p`
	prep, err := coord.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	localWant := func() []string {
		t.Helper()
		local := NewEngine()
		for i, sp := range spans {
			if err := local.LoadCollectionSource("ppl", FromXML(fmt.Sprintf("ppl-%d.xml", i), pricedShardXML(sp[0], sp[1]))); err != nil {
				t.Fatal(err)
			}
		}
		res, err := collectRows(local.Execute(context.Background(), Request{Query: q}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Items
	}
	run := func(phase string, want []string) *Result {
		t.Helper()
		res, err := collectRows(coord.Execute(context.Background(), Request{Prepared: prep}))
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		assertSameItems(t, phase, want, res.Items)
		return res
	}

	want := localWant()
	for range 2 { // warm both sides on the old process
		run("warm-up", want)
	}

	fresh := pricedServerEngine(t, []int{0, 1}, spans)
	ex.swap(fresh)
	if cold := run("first run after restart", want); cold.Stats.SampleTuples == 0 {
		t.Errorf("restarted server replayed a plan it never discovered: CacheHit=%v", cold.Stats.CacheHit)
	}
	before := fresh.CacheStats().Counters
	const rounds = 4
	for i := range rounds {
		if res := run(fmt.Sprintf("restarted run %d", i), want); !res.Stats.CacheHit || res.Stats.SampleTuples != 0 {
			t.Errorf("restarted run %d: CacheHit=%v SampleTuples=%d, want a replay", i, res.Stats.CacheHit, res.Stats.SampleTuples)
		}
	}
	after := fresh.CacheStats().Counters
	if hits := after.Hits - before.Hits; hits != rounds*int64(len(spans)) {
		t.Errorf("restarted server: %d exact hits over %d runs of %d shards, want %d", hits, rounds, len(spans), rounds*len(spans))
	}
	if stale := after.StaleHits - before.StaleHits; stale != 0 {
		t.Errorf("restarted server: %d stale-generation hits on unchanged data", stale)
	}

	// Drift: the restarted server reloads ppl-0.xml with 10x the persons.
	spans[0] = [2]int{0, 400}
	if err := fresh.LoadSource(FromXML("ppl-0.xml", pricedShardXML(spans[0][0], spans[0][1]))); err != nil {
		t.Fatal(err)
	}
	want = localWant()
	reopt := 0
	for i := range rounds {
		res := run(fmt.Sprintf("run %d after the drift", i), want)
		if res.Stats.Reoptimized {
			reopt++
		}
		if i > 0 && res.Stats.SampleTuples != 0 {
			t.Errorf("run %d after the drift sampled %d tuples, want a replay", i, res.Stats.SampleTuples)
		}
	}
	if reopt != 1 {
		t.Errorf("%d of %d runs after the drift re-optimized, want exactly 1", reopt, rounds)
	}
}

// TestRemoteLegacyHintRequest: an execute body from a coordinator that
// still sends a plan hint is answered as any other — 200 and the same items
// — and the hint, a plan sampled on another process's data, reaches no plan
// cache.
func TestRemoteLegacyHintRequest(t *testing.T) {
	server := pricedServerEngine(t, []int{0}, [][2]int{{0, 30}})
	_, ts := newShardServer(t, server)
	const query = `for $p in collection(\"ppl\")//person order by $p/age return $p`
	execute := func(body string) []string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/shards/ppl-0.xml/execute", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var items []string
		dec := json.NewDecoder(resp.Body)
		for {
			var line struct {
				Item *string        `json:"item"`
				Done *shardrpc.Done `json:"done"`
			}
			if err := dec.Decode(&line); err != nil {
				t.Fatal(err)
			}
			if line.Done != nil {
				if line.Done.Error != "" {
					t.Fatal(line.Done.Error)
				}
				return items
			}
			items = append(items, *line.Item)
		}
	}
	want := execute(`{"collection":"ppl","query":"` + query + `"}`)
	if len(want) != 30 {
		t.Fatalf("%d items, want 30", len(want))
	}
	got := execute(`{"collection":"ppl","query":"` + query + `","fingerprint":"fp",` +
		`"hint":{"generation":99,"steps":[{"edge":7,"reverse":true,"alg":2}],"expected":{"7":1}}}`)
	assertSameItems(t, "hinted request", want, got)
	if c := server.CacheStats().Counters; c.Invalidations != 0 || c.StaleHits != 0 {
		t.Errorf("the hint reached the plan cache: %+v", c)
	}
}

// TestRemoteCacheOffSendsNoFingerprint: on a coordinator without a plan cache
// "no key" is the contract for every Request — query text and prepared
// statement alike ship no fingerprint, on the first request and on the
// repeat. The shard server still answers, and still replays from its own
// cache.
func TestRemoteCacheOffSendsNoFingerprint(t *testing.T) {
	spans := [][2]int{{0, 30}, {100, 30}}
	ex, ts := newShardServer(t, pricedServerEngine(t, []int{0, 1}, spans))
	coord := NewEngine(WithPlanCache(0))
	if err := coord.LoadCollectionRemote(context.Background(), "ppl", []Endpoint{{URL: ts.URL}}); err != nil {
		t.Fatal(err)
	}
	const q = `for $p in collection("ppl")//person order by $p/age return $p`
	prep, err := coord.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name string
		run  func() (*Rows, error)
	}{
		{"Request.Query", func() (*Rows, error) { return coord.Execute(context.Background(), Request{Query: q}) }},
		{"Request.Prepared", func() (*Rows, error) { return coord.Execute(context.Background(), Request{Prepared: prep}) }},
	}
	for _, entry := range entries {
		for round := 1; round <= 2; round++ {
			res, err := collectRows(entry.run())
			if err != nil {
				t.Fatalf("%s round %d: %v", entry.name, round, err)
			}
			if len(res.Items) != 60 {
				t.Fatalf("%s round %d: %d items, want 60", entry.name, round, len(res.Items))
			}
		}
	}
	if len(ex.seen) != len(entries)*2*len(spans) {
		t.Fatalf("shard server saw %d execute requests, want %d", len(ex.seen), len(entries)*2*len(spans))
	}
	for i, req := range ex.seen {
		if req.Fingerprint != "" {
			t.Errorf("request %d: fingerprint %q; a cache-off coordinator sends none", i, req.Fingerprint)
		}
	}
}

// TestRemoteShardServerDown covers the unreachable-endpoint surface: under
// the default fail-fast policy the query fails with the endpoint in the
// error; under ShardRetryThenPartial it completes on the shards that
// answered, marks the result truncated and records the failure in the dead
// shard's ShardStats.
func TestRemoteShardServerDown(t *testing.T) {
	spans := [][2]int{{0, 30}, {100, 30}}
	_, ts := newShardServer(t, pricedServerEngine(t, []int{1}, spans))
	deadURL := ts.URL
	ts.Close() // registered explicitly below, so no discovery call needed

	build := func(opts ...Option) *Engine {
		eng := NewEngine(opts...)
		if err := eng.LoadCollectionSource("ppl", FromXML("ppl-0.xml", pricedShardXML(spans[0][0], spans[0][1]))); err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadCollectionRemote(context.Background(), "ppl",
			[]Endpoint{{URL: deadURL, Shards: []string{"ppl-1.xml"}}}); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	const q = `for $p in collection("ppl")//person return $p`

	t.Run("fail-fast", func(t *testing.T) {
		_, err := collectRows(build().Execute(context.Background(), Request{Query: q}))
		if err == nil {
			t.Fatal("query over a dead shard server succeeded")
		}
		if !strings.Contains(err.Error(), "ppl-1.xml") {
			t.Errorf("error %v does not name the failing shard", err)
		}
	})
	t.Run("retry-then-partial", func(t *testing.T) {
		res, err := collectRows(build(WithShardRetry(ShardRetryThenPartial)).Execute(context.Background(), Request{Query: q}))
		if err != nil {
			t.Fatalf("partial policy failed the query: %v", err)
		}
		if len(res.Items) != spans[0][1] {
			t.Errorf("partial result has %d items, want the %d local ones", len(res.Items), spans[0][1])
		}
		if !res.Stats.Truncated {
			t.Error("partial result not marked Truncated")
		}
		var found bool
		for _, sh := range res.Stats.Shards {
			if sh.Shard == "ppl-1.xml" {
				found = true
				if sh.Err == "" {
					t.Error("dead shard's ShardStats carries no error")
				}
			}
		}
		if !found {
			t.Error("dead shard missing from ShardStats")
		}
	})
}

// fakeShardServer mounts a hand-rolled execute handler — for fault shapes a
// real engine cannot produce (mid-stream drops, stalls, endless streams).
func fakeShardServer(t *testing.T, execute http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards/{shard}/execute", execute)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestRemoteMidStreamFailure: a shard server dying mid-stream (items out, no
// done report) fails the query under fail-fast; under the partial policy the
// query completes truncated — without retrying, since the dead shard's items
// already entered the merge and a restart could duplicate them.
func TestRemoteMidStreamFailure(t *testing.T) {
	var calls int
	var mu sync.Mutex
	ts := fakeShardServer(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		fl, _ := w.(http.Flusher)
		for i := 0; i < 2; i++ {
			item := fmt.Sprintf("<x>%d</x>", i)
			if err := enc.Encode(map[string]string{"item": item}); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		panic(http.ErrAbortHandler) // kill the connection without a done report
	})
	build := func(opts ...Option) *Engine {
		eng := NewEngine(opts...)
		if err := eng.LoadCollectionSource("c", FromXML("c-0.xml", `<r><x>local</x></r>`)); err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadCollectionRemote(context.Background(), "c",
			[]Endpoint{{URL: ts.URL, Shards: []string{"c-1.xml"}}}); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	const q = `for $x in collection("c")//x return $x`

	t.Run("fail-fast", func(t *testing.T) {
		_, err := collectRows(build().Execute(context.Background(), Request{Query: q}))
		if err == nil {
			t.Fatal("query over a mid-stream drop succeeded")
		}
	})
	t.Run("partial keeps merged items", func(t *testing.T) {
		mu.Lock()
		calls = 0
		mu.Unlock()
		res, err := collectRows(build(WithShardRetry(ShardRetryThenPartial)).Execute(context.Background(), Request{Query: q}))
		if err != nil {
			t.Fatalf("partial policy failed the query: %v", err)
		}
		if len(res.Items) != 3 { // 1 local + the 2 that made it over the wire
			t.Errorf("partial result has %d items, want 3", len(res.Items))
		}
		if !res.Stats.Truncated {
			t.Error("partial result not marked Truncated")
		}
		mu.Lock()
		n := calls
		mu.Unlock()
		if n != 1 {
			t.Errorf("shard was executed %d times; items already merged must not retry", n)
		}
	})
}

// TestRemoteRetryRecovers: a shard whose first execute fails before any of
// its items entered the merge — a pre-stream 500, or a 200 that drops before
// its first item — is executed once more under ShardRetryThenPartial, and
// when that execute serves, the result is complete: every item, not
// truncated, no shard error. Under fail-fast the first failure fails the
// query, and the shard is never executed again.
func TestRemoteRetryRecovers(t *testing.T) {
	spans := [][2]int{{0, 30}, {100, 30}}
	const q = `for $p in collection("ppl")//person order by $p/age return $p`
	want, err := collectRows(pricedSingleEngine(t, spans).Execute(context.Background(),
		Request{Query: `for $p in doc("ppl.xml")//person order by $p/age return $p`}))
	if err != nil {
		t.Fatal(err)
	}
	serve := shardrpc.HandleExecute(pricedServerEngine(t, []int{1}, spans))
	faults := []struct {
		name string
		fail http.HandlerFunc
	}{
		{"pre-stream 500", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"shard warming up"}`, http.StatusInternalServerError)
		}},
		{"200 dropped before any item", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler) // kill the connection: no item, no done report
		}},
	}
	for _, fault := range faults {
		var calls atomic.Int32
		ts := fakeShardServer(t, func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) == 1 {
				fault.fail(w, r)
				return
			}
			serve(w, r)
		})
		build := func(opts ...Option) *Engine {
			eng := NewEngine(opts...)
			if err := eng.LoadCollectionSource("ppl", FromXML("ppl-0.xml", pricedShardXML(spans[0][0], spans[0][1]))); err != nil {
				t.Fatal(err)
			}
			if err := eng.LoadCollectionRemote(context.Background(), "ppl",
				[]Endpoint{{URL: ts.URL, Shards: []string{"ppl-1.xml"}}}); err != nil {
				t.Fatal(err)
			}
			return eng
		}
		t.Run(fault.name+"/partial", func(t *testing.T) {
			calls.Store(0)
			res, err := collectRows(build(WithShardRetry(ShardRetryThenPartial)).Execute(context.Background(), Request{Query: q}))
			if err != nil {
				t.Fatalf("retried shard failed the query: %v", err)
			}
			assertSameItems(t, "retried scatter", want.Items, res.Items)
			if res.Stats.Truncated {
				t.Error("a recovered result is marked Truncated")
			}
			for _, sh := range res.Stats.Shards {
				if sh.Err != "" {
					t.Errorf("shard %s reports %q after recovering", sh.Shard, sh.Err)
				}
			}
			if n := calls.Load(); n != 2 {
				t.Errorf("shard executed %d times, want 2", n)
			}
		})
		t.Run(fault.name+"/fail-fast", func(t *testing.T) {
			calls.Store(0)
			if _, err := collectRows(build().Execute(context.Background(), Request{Query: q})); err == nil {
				t.Fatal("fail-fast query over a failing shard succeeded")
			}
			if n := calls.Load(); n != 1 {
				t.Errorf("shard executed %d times under fail-fast, want 1", n)
			}
		})
	}
}

// TestRemoteSlowShardDeadline: a stalled shard server cannot hold a query
// past its context deadline — the coordinator gives up with
// context.DeadlineExceeded and the in-flight request is released.
func TestRemoteSlowShardDeadline(t *testing.T) {
	ts := fakeShardServer(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // coordinator gave up
		case <-time.After(10 * time.Second):
		}
	})
	eng := NewEngine()
	if err := eng.LoadCollectionRemote(context.Background(), "c",
		[]Endpoint{{URL: ts.URL, Shards: []string{"c-0.xml"}}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := collectRows(eng.Execute(ctx, Request{Query: `for $x in collection("c")//x return $x`}))
	if err == nil {
		t.Fatal("query over a stalled shard server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
}

// TestRemoteCancelOnWindowFill pins the distributed limit push-down: once the
// gather's window fills, the coordinator closes the remote response body,
// which cancels the shard server's request context — remote work the merge no
// longer needs actually stops, it does not stream into the void.
func TestRemoteCancelOnWindowFill(t *testing.T) {
	testutil.CheckGoroutines(t)
	canceled := make(chan struct{})
	var once sync.Once
	ts := fakeShardServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		fl, _ := w.(http.Flusher)
		for i := 0; ; i++ {
			item := fmt.Sprintf("<x>%d</x>", i)
			if err := enc.Encode(map[string]string{"item": item}); err != nil {
				once.Do(func() { close(canceled) })
				return
			}
			if fl != nil {
				fl.Flush()
			}
			select {
			case <-r.Context().Done():
				once.Do(func() { close(canceled) })
				return
			case <-time.After(time.Millisecond):
			}
		}
	})
	eng := NewEngine()
	if err := eng.LoadCollectionRemote(context.Background(), "c",
		[]Endpoint{{URL: ts.URL, Shards: []string{"c-0.xml"}}}); err != nil {
		t.Fatal(err)
	}
	rows, err := eng.Execute(context.Background(),
		Request{Query: `for $x in collection("c")//x return $x`, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(testutil.DrainCursor(t, rows)); n != 5 {
		t.Errorf("window returned %d items, want 5", n)
	}
	if !rows.Stats().Truncated {
		t.Error("windowed scatter not marked Truncated")
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("remote shard request was never canceled after the window filled")
	}
}

// TestScatterKeepsShardConnections: a scatter whose pushed-down window cut
// remote streams short reads their bounded rest instead of aborting them, so
// the coordinator's keep-alive connections survive the query. After warm-up,
// windowed topk, page and scan queries over 4 remote shards on 2 servers
// open well under one new connection per query (aborting, they opened about
// three), with items byte for byte those of the local collection and the
// window-cut shards still reported truncated.
func TestScatterKeepsShardConnections(t *testing.T) {
	cfg := datagen.DefaultXMarkConfig()
	shards := datagen.XMarkShards(cfg, 4)
	local := NewEngine()
	for _, d := range shards {
		_ = local.LoadCollectionSource("xmark", FromDocument(d))
	}
	var endpoints []Endpoint
	var conns []*atomic.Int64
	for _, half := range [][]*xmltree.Document{shards[:2], shards[2:]} {
		srv := NewEngine()
		for _, d := range half {
			_ = srv.LoadSource(FromDocument(d))
		}
		_, ts := newUnstartedShardServer(t, srv)
		conns = append(conns, testutil.CountConns(ts))
		ts.Start()
		endpoints = append(endpoints, Endpoint{URL: ts.URL})
	}
	// A private transport, closed at the end. Like DefaultTransport it keeps
	// two idle connections per host: the two requests a query sends each
	// server at once.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	remote := NewEngine(WithShardHTTPClient(&http.Client{Transport: tr}))
	ctx := context.Background()
	if err := remote.LoadCollectionRemote(ctx, "xmark", endpoints); err != nil {
		t.Fatal(err)
	}

	reqs := []Request{
		{Query: `for $a in collection("xmark")//open_auction[reserve] order by $a/current descending return $a limit 10`},
		{Query: `for $a in collection("xmark")//open_auction[reserve] order by $a/initial return $a`, Limit: 10, Offset: 30},
		// The shards hold 64, 70, 62 and 58 matches: the window cuts the last.
		{Query: `for $p in collection("xmark")//person[.//province] return $p limit 200`},
	}
	run := func(eng *Engine, req Request) *Result {
		t.Helper()
		res, err := collectRows(eng.Execute(ctx, req))
		if err != nil {
			t.Fatalf("%s: %v", req.Query, err)
		}
		return res
	}
	opened := func() int64 { return conns[0].Load() + conns[1].Load() }
	for _, req := range reqs { // warm-up: the shard servers' plan caches, the idle pool
		run(remote, req)
	}
	before := opened()
	const rounds = 10
	for range rounds {
		for _, req := range reqs {
			got := run(remote, req)
			assertSameItems(t, req.Query, run(local, req).Items, got.Items)
			if !got.Stats.Truncated {
				t.Errorf("%s: a window-cut scatter is not marked Truncated", req.Query)
			}
		}
	}
	queries := int64(rounds * len(reqs))
	if n := opened() - before; 4*n > queries {
		t.Errorf("%d windowed queries opened %d new shard connections, want well under one per query", queries, n)
	}
}

// TestRemoteStalledPeerAfterWindow: a shard server that sends its window's
// items and then stalls without its done line holds the query for no more
// than the read-out budget: the coordinator gives up on reading the rest,
// aborts the request, and the peer sees its request context cancel.
func TestRemoteStalledPeerAfterWindow(t *testing.T) {
	testutil.CheckGoroutines(t)
	const window = 3
	canceled := make(chan struct{})
	ts := fakeShardServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		for i := range window {
			fmt.Fprintf(w, "{\"item\":\"<x>%d</x>\"}\n", i)
		}
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
			close(canceled)
		case <-time.After(10 * time.Second):
		}
	})
	eng := NewEngine()
	if err := eng.LoadCollectionRemote(context.Background(), "c",
		[]Endpoint{{URL: ts.URL, Shards: []string{"c-0.xml"}}}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rows, err := eng.Execute(context.Background(),
		Request{Query: `for $x in collection("c")//x return $x`, Limit: window})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(testutil.DrainCursor(t, rows)); n != window {
		t.Errorf("window returned %d items, want %d", n, window)
	}
	if elapsed := time.Since(start); elapsed > readOutBudget+time.Second {
		t.Errorf("query over a stalled peer took %v, budget %v", elapsed, readOutBudget)
	}
	st := rows.Stats()
	if !st.Truncated || len(st.Shards) != 1 || !st.Shards[0].Stats.Truncated || st.Shards[0].Stats.Rows != window {
		t.Errorf("stats %+v: want the window-cut shard truncated after %d rows", st, window)
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("the stalled peer's request was never canceled")
	}
}

// TestRemoteErrorTypes: a shard server's pre-stream rejection surfaces as a
// typed *shardrpc.RemoteError carrying the HTTP status, so API layers (like
// cmd/roxserve's statusFor) can classify cluster faults without string
// matching.
func TestRemoteErrorTypes(t *testing.T) {
	spans := [][2]int{{0, 10}}
	_, ts := newShardServer(t, pricedServerEngine(t, []int{0}, spans))
	eng := NewEngine()
	// Register a shard name the server does not hold: the server answers 404.
	if err := eng.LoadCollectionRemote(context.Background(), "ppl",
		[]Endpoint{{URL: ts.URL, Shards: []string{"nope.xml"}}}); err != nil {
		t.Fatal(err)
	}
	_, err := collectRows(eng.Execute(context.Background(), Request{Query: `for $p in collection("ppl")//person return $p`}))
	if err == nil {
		t.Fatal("query over an unknown remote shard succeeded")
	}
	var re *shardrpc.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *shardrpc.RemoteError", err)
	}
	if re.Status != http.StatusNotFound {
		t.Errorf("RemoteError.Status = %d, want 404", re.Status)
	}
}

// TestLoadCollectionRemoteValidation covers the registration failure surface.
func TestLoadCollectionRemoteValidation(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadCollectionRemote(context.Background(), "c",
		[]Endpoint{{URL: "  "}}); err == nil {
		t.Error("empty endpoint URL accepted")
	}
	// An empty inventory registers nothing and says so.
	_, ts := newShardServer(t, NewEngine())
	if err := eng.LoadCollectionRemote(context.Background(), "c",
		[]Endpoint{{URL: ts.URL}}); err == nil || !strings.Contains(err.Error(), "no documents") {
		t.Errorf("empty-inventory registration err = %v, want no-documents failure", err)
	}
	// Discovery against a dead endpoint fails the registration.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if err := eng.LoadCollectionRemote(context.Background(), "c",
		[]Endpoint{{URL: dead.URL}}); err == nil {
		t.Error("discovery against a dead endpoint succeeded")
	}
}
