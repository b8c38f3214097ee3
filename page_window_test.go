package rox

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/shardrpc"
)

// Deep ordered pages over remote shards start where their window started
// before (windowStart, shard.go): the tests below hold every window of a
// bounded scatter to the single document's answer, and show the fallback,
// an older peer and the rows a bounded shard ships.

// pageKeys is what a generated item's order key draws from: four spellings
// of 2 that tie, other numbers, strings, an empty key and (twice as likely)
// no key at all.
var pageKeys = []string{"<k>2</k>", "<k> 2 </k>", "<k>2.0</k>", "<k>2</k>", "<k>1</k>", "<k>-1</k>",
	"<k>0.5</k>", "<k>10</k>", "<k>x</k>", "<k>y</k>", "<k/>", "", ""}

// pageShardXML renders one shard's items, ids from base on, their keys
// drawn from pageKeys.
func pageShardXML(rng *rand.Rand, base, n int) string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<a id="a%d">%s</a>`, base+i, pageKeys[rng.Intn(len(pageKeys))])
	}
	sb.WriteString("</r>")
	return sb.String()
}

// pageSingle loads the concatenation of the shards' items as one document
// "all.xml", the oracle every collection window must equal.
func pageSingle(t *testing.T, shards []string) *Engine {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<r>")
	for _, x := range shards {
		sb.WriteString(strings.TrimSuffix(strings.TrimPrefix(x, "<r>"), "</r>"))
	}
	sb.WriteString("</r>")
	e := NewEngine()
	if err := e.LoadSource(FromXML("all.xml", sb.String())); err != nil {
		t.Fatal(err)
	}
	return e
}

// pageCollection registers shards s0.xml, s1.xml, … as collection "c" on a
// fresh coordinator, in order: shard i local when remote[i] is false,
// otherwise served by one shard server over exec, an Executor that serves
// the returned server engine.
func pageCollection(t *testing.T, shards []string, remote []bool, exec func(*Engine) shardrpc.Executor) (coord, server *Engine) {
	t.Helper()
	coord, server = NewEngine(), NewEngine()
	var url string
	for i, x := range shards {
		name := fmt.Sprintf("s%d.xml", i)
		if !remote[i] {
			if err := coord.LoadCollectionSource("c", FromXML(name, x)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := server.LoadSource(FromXML(name, x)); err != nil {
			t.Fatal(err)
		}
		if url == "" {
			url = pageServer(t, exec(server)).URL
		}
		if err := coord.LoadCollectionRemote(context.Background(), "c", []Endpoint{{URL: url, Shards: []string{name}}}); err != nil {
			t.Fatal(err)
		}
	}
	return coord, server
}

// pageServer mounts the shard-server handlers over exec.
func pageServer(t *testing.T, exec shardrpc.Executor) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shards", shardrpc.HandleInventory(exec))
	mux.HandleFunc("POST /v1/shards/{shard}/execute", shardrpc.HandleExecute(exec))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// pageQueries returns the collection query and its single-document oracle.
func pageQueries(desc bool) (coll, single string) {
	dir := ""
	if desc {
		dir = " descending"
	}
	return `for $a in collection("c")//a order by $a/k` + dir + ` return $a`,
		`for $a in doc("all.xml")//a order by $a/k` + dir + ` return $a`
}

// checkPage runs one window on the coordinator and on the oracle and fails
// on any difference.
func checkPage(t *testing.T, what string, coord, single *Engine, desc bool, offset, count int) {
	t.Helper()
	collQ, singleQ := pageQueries(desc)
	ctx := context.Background()
	want, err := collectRows(single.Execute(ctx, Request{Query: singleQ, Limit: count, Offset: offset}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := collectRows(coord.Execute(ctx, Request{Query: collQ, Limit: count, Offset: offset}))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	assertSameItems(t, what, want.Items, got.Items)
}

// recordingExec serves an engine and keeps every execute request it got, as
// the coordinator sent it. legacy zeroes the members a server built before
// remembered window starts does not know, as its decoder would.
type recordingExec struct {
	eng    *Engine
	legacy bool
	mu     sync.Mutex
	seen   []shardrpc.ExecRequest
	// shipped counts the items each request's run handed the handler.
	shipped []int
}

func (r *recordingExec) ExecuteShard(ctx context.Context, shard string, req *shardrpc.ExecRequest) (shardrpc.ShardRun, error) {
	r.mu.Lock()
	r.seen = append(r.seen, *req)
	r.shipped = append(r.shipped, 0)
	i := len(r.shipped) - 1
	r.mu.Unlock()
	if r.legacy {
		old := *req
		old.Bound, old.BoundLimit = nil, 0
		req = &old
	}
	run, err := r.eng.ExecuteShard(ctx, shard, req)
	if err != nil {
		return nil, err
	}
	return &countedRun{ShardRun: run, exec: r, i: i}, nil
}

func (r *recordingExec) ShardInventory() []shardrpc.ShardInfo { return r.eng.ShardInventory() }

// requests returns the requests since mark and their shipped counts.
func (r *recordingExec) requests(mark int) ([]shardrpc.ExecRequest, []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]shardrpc.ExecRequest(nil), r.seen[mark:]...), append([]int(nil), r.shipped[mark:]...)
}

func (r *recordingExec) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.seen)
}

// countedRun counts the items a shard run ships.
type countedRun struct {
	shardrpc.ShardRun
	exec *recordingExec
	i    int
}

func (c *countedRun) Next() bool {
	ok := c.ShardRun.Next()
	if ok {
		c.exec.mu.Lock()
		c.exec.shipped[c.i]++
		c.exec.mu.Unlock()
	}
	return ok
}

// TestRemoteDeepPageDifferential: random shards whose order keys tie heavily, are
// absent, numeric or strings — one to five of them, local, remote and mixed
// — answer every window of offset 0…n+2 and count 1…4, in both directions,
// exactly as the single document does: the first request of a window learns
// where it starts, the second is bounded by it.
func TestRemoteDeepPageDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 15; round++ {
		nShards := 1 + round%5
		mode := []string{"local", "remote", "mixed"}[round/5]
		shards := make([]string, nShards)
		remote := make([]bool, nShards)
		n := 0
		for i := range shards {
			size := rng.Intn(6)
			shards[i] = pageShardXML(rng, n, size)
			n += size
			remote[i] = mode == "remote" || (mode == "mixed" && (i%2 == 0) != (round%2 == 0))
		}
		nRemote := 0
		for _, r := range remote {
			if r {
				nRemote++
			}
		}
		rec := &recordingExec{}
		coord, _ := pageCollection(t, shards, remote, func(e *Engine) shardrpc.Executor { rec.eng = e; return rec })
		single := pageSingle(t, shards)
		bounded := 0
		for _, desc := range []bool{false, true} {
			for offset := 0; offset <= n+2; offset++ {
				for count := 1; count <= 4; count++ {
					what := fmt.Sprintf("round %d (%s, %d shards, %d items) desc=%v offset %d count %d",
						round, mode, nShards, n, desc, offset, count)
					checkPage(t, what+", first request", coord, single, desc, offset, count)
					mark := rec.mark()
					checkPage(t, what+", second request", coord, single, desc, offset, count)
					// Nothing changed in between: the second request is
					// exact as sent, with no fallback scatter.
					reqs, _ := rec.requests(mark)
					if len(reqs) != nRemote {
						t.Fatalf("%s: the second request sent %d shard requests to %d remote shards", what, len(reqs), nRemote)
					}
					for _, r := range reqs {
						if r.Bound != nil {
							bounded++
						}
					}
				}
			}
		}
		if nRemote > 0 && n > 1 && bounded == 0 {
			t.Errorf("round %d (%s, %d items): no request carried a bound", round, mode, n)
		}
	}
}

// TestRemoteDeepPageFallback: a shard server reloads a shard between two requests
// of a window, so that more rows, or fewer, now sort before the remembered
// start than the window allows. The bounded scatter sees it in the counts,
// runs again unbounded — a second request per shard, without a bound — and
// answers as the single document does; the next request is bounded again.
func TestRemoteDeepPageFallback(t *testing.T) {
	xml := func(keys ...int) string {
		var sb strings.Builder
		sb.WriteString("<r>")
		for _, k := range keys {
			fmt.Fprintf(&sb, `<a id="a%d"><k>%d</k></a>`, k, k)
		}
		sb.WriteString("</r>")
		return sb.String()
	}
	for _, c := range []struct {
		name   string
		reload string // the new s0.xml
	}{
		{"more rows before the start", xml(-3, -2, -1, 1, 3, 5, 7, 9, 11)},
		{"fewer rows before the start", xml(9, 11)},
	} {
		t.Run(c.name, func(t *testing.T) {
			shards := []string{xml(1, 3, 5, 7, 9, 11), xml(2, 4, 6, 8, 10, 12)}
			rec := &recordingExec{}
			coord, server := pageCollection(t, shards, []bool{true, true}, func(e *Engine) shardrpc.Executor { rec.eng = e; return rec })
			const offset, count = 6, 3
			checkPage(t, "learning request", coord, pageSingle(t, shards), false, offset, count)
			mark := rec.mark()
			checkPage(t, "bounded request", coord, pageSingle(t, shards), false, offset, count)
			if reqs, _ := rec.requests(mark); len(reqs) != 2 || reqs[0].Bound == nil || reqs[1].Bound == nil {
				t.Fatalf("bounded request sent %+v, want one bounded request per shard", reqs)
			}

			if err := server.LoadSource(FromXML("s0.xml", c.reload)); err != nil {
				t.Fatal(err)
			}
			shards[0] = c.reload
			mark = rec.mark()
			checkPage(t, "request after the reload", coord, pageSingle(t, shards), false, offset, count)
			reqs, _ := rec.requests(mark)
			var bounded, unbounded int
			for _, r := range reqs {
				if r.Bound != nil {
					bounded++
				} else {
					unbounded++
				}
			}
			if bounded != 2 || unbounded != 2 || reqs[0].Bound == nil || reqs[3].Bound != nil {
				t.Fatalf("request after the reload sent %d bounded and %d unbounded requests, want 2 bounded, then 2 unbounded", bounded, unbounded)
			}
			mark = rec.mark()
			checkPage(t, "request after the fallback", coord, pageSingle(t, shards), false, offset, count)
			if reqs, _ := rec.requests(mark); len(reqs) != 2 || reqs[0].Bound == nil || reqs[1].Bound == nil {
				t.Fatalf("request after the fallback sent %+v, want one bounded request per shard", reqs)
			}
		})
	}
}

// TestRemoteDeepPageLegacyPeer: a shard server built before remembered window
// starts drops the bound and streams its first shard-limit rows with no
// count line. The coordinator still sends the bound, and still answers every
// window exactly: such a peer counts as reporting no rows before the start.
func TestRemoteDeepPageLegacyPeer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shards := []string{pageShardXML(rng, 0, 6), pageShardXML(rng, 6, 5), pageShardXML(rng, 11, 6)}
	rec := &recordingExec{legacy: true}
	coord, _ := pageCollection(t, shards, []bool{true, false, true}, func(e *Engine) shardrpc.Executor { rec.eng = e; return rec })
	single := pageSingle(t, shards)
	for _, desc := range []bool{false, true} {
		for offset := 0; offset <= 19; offset++ {
			for count := 1; count <= 4; count++ {
				for _, pass := range []string{"first", "second"} {
					checkPage(t, fmt.Sprintf("desc=%v offset %d count %d, %s request", desc, offset, count, pass),
						coord, single, desc, offset, count)
				}
			}
		}
	}
	reqs, _ := rec.requests(0)
	bounded := 0
	for _, r := range reqs {
		if r.Bound != nil {
			bounded++
		}
	}
	if bounded == 0 {
		t.Fatal("the coordinator never sent a bound")
	}
}

// TestRemoteDeepPageShipsOnlyItsWindow: a bounded remote shard ships at most the
// window's count plus the items tied with its start that the offset passes
// over, where the learning request had it ship offset+count.
func TestRemoteDeepPageShipsOnlyItsWindow(t *testing.T) {
	var a, b strings.Builder
	a.WriteString("<r>")
	b.WriteString("<r>")
	for i := 0; i < 20; i++ {
		k := i / 4 // runs of four ties: keys 0 0 0 0 1 1 1 1 …
		fmt.Fprintf(&a, `<a id="a%d"><k>%d</k></a>`, i, k)
		fmt.Fprintf(&b, `<a id="b%d"><k>%d</k></a>`, i, k)
	}
	a.WriteString("</r>")
	b.WriteString("</r>")
	shards := []string{a.String(), b.String()}
	rec := &recordingExec{}
	coord, _ := pageCollection(t, shards, []bool{true, true}, func(e *Engine) shardrpc.Executor { rec.eng = e; return rec })
	single := pageSingle(t, shards)
	collQ, _ := pageQueries(false)
	for _, w := range []struct{ offset, count int }{{20, 3}, {22, 2}, {24, 4}, {30, 1}} {
		checkPage(t, fmt.Sprintf("offset %d count %d, learning request", w.offset, w.count), coord, single, false, w.offset, w.count)
		mark := rec.mark()
		checkPage(t, fmt.Sprintf("offset %d count %d, bounded request", w.offset, w.count), coord, single, false, w.offset, w.count)
		stmt, err := coord.statement(collQ)
		if err != nil {
			t.Fatal(err)
		}
		ws, ok := stmt.windowStart(pageWindow{w.offset, w.count})
		if !ok {
			t.Fatalf("offset %d count %d: no start remembered", w.offset, w.count)
		}
		reqs, shipped := rec.requests(mark)
		for i, r := range reqs {
			switch {
			case r.Bound == nil || r.BoundLimit != ws.skip+w.count || r.ShardLimit != w.offset+w.count:
				t.Errorf("offset %d count %d: request %+v, want bound limit %d and shard limit %d",
					w.offset, w.count, r, ws.skip+w.count, w.offset+w.count)
			case shipped[i] > ws.skip+w.count || shipped[i] >= w.offset+w.count:
				t.Errorf("offset %d count %d: a bounded shard shipped %d items, skip %d", w.offset, w.count, shipped[i], ws.skip)
			}
		}
	}
}

// TestHugeWindowSaturates: a window whose offset plus count overflows int
// answers as the window to the end does — on a single document, ordered and
// not, and on local and remote collections, twice each (the second request
// of the remote ordered window is bounded).
func TestHugeWindowSaturates(t *testing.T) {
	const xml = `<r><a>3</a><a>1</a><a>2</a><a>5</a></r>`
	single := NewEngine()
	if err := single.LoadSource(FromXML("d.xml", xml)); err != nil {
		t.Fatal(err)
	}
	local, _ := pageCollection(t, []string{xml, xml}, []bool{false, false}, nil)
	remote, _ := pageCollection(t, []string{xml, xml}, []bool{true, true}, func(e *Engine) shardrpc.Executor { return e })
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		eng   *Engine
		query string
		want  []string
	}{
		{"document, ordered", single, `for $a in doc("d.xml")//a order by $a descending return $a`,
			[]string{"<a>3</a>", "<a>2</a>", "<a>1</a>"}},
		{"document, unordered", single, `for $a in doc("d.xml")//a return $a`,
			[]string{"<a>1</a>", "<a>2</a>", "<a>5</a>"}},
		{"local collection", local, `for $a in collection("c")//a order by $a descending return $a`,
			[]string{"<a>5</a>", "<a>3</a>", "<a>3</a>", "<a>2</a>", "<a>2</a>", "<a>1</a>", "<a>1</a>"}},
		{"remote collection", remote, `for $a in collection("c")//a order by $a descending return $a`,
			[]string{"<a>5</a>", "<a>3</a>", "<a>3</a>", "<a>2</a>", "<a>2</a>", "<a>1</a>", "<a>1</a>"}},
		{"remote collection, unordered", remote, `for $a in collection("c")//a return $a`,
			[]string{"<a>1</a>", "<a>2</a>", "<a>5</a>", "<a>3</a>", "<a>1</a>", "<a>2</a>", "<a>5</a>"}},
	} {
		for pass := 0; pass < 2; pass++ {
			res, err := collectRows(c.eng.Execute(ctx, Request{Query: c.query, Limit: math.MaxInt, Offset: 1}))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			assertSameItems(t, c.name, c.want, res.Items)
		}
	}
}

// TestRemoteBoundRequestChecks: the execute handler refuses a bound it
// cannot honour as it refuses a bad shard limit — 400 — and answers a good
// one with the count line first.
func TestRemoteBoundRequestChecks(t *testing.T) {
	_, server := pageCollection(t, nil, nil, nil)
	if err := server.LoadSource(FromXML("s0.xml", `<r><a><k>1</k></a><a><k>2</k></a><a><k>2</k></a><a><k>3</k></a></r>`)); err != nil {
		t.Fatal(err)
	}
	ts := pageServer(t, server)
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/shards/s0.xml/execute", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, sb.String()
	}
	const bound = `"bound":{"p":true,"n":true,"f":2,"s":"2"}`
	for _, c := range []struct{ name, body string }{
		{"no order by", `{"collection":"c","query":"for $a in collection(\"c\")//a return $a",` + bound + `}`},
		{"aggregate", `{"collection":"c","query":"for $a in collection(\"c\")//a return count($a)",` + bound + `}`},
		{"negative bound limit", `{"collection":"c","query":"for $a in collection(\"c\")//a order by $a/k return $a",` + bound + `,"bound_limit":-1}`},
	} {
		if status, body := post(c.body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, status, body)
		}
	}
	status, body := post(`{"collection":"c","query":"for $a in collection(\"c\")//a order by $a/k descending return $a","shard_limit":3,` + bound + `,"bound_limit":1}`)
	want := `{"before":1}` + "\n" + `{"item":"<a><k>2</k></a>","key":{"p":true,"n":true,"f":2,"s":"2"}}` + "\n"
	if status != http.StatusOK || !strings.HasPrefix(body, want) || strings.Count(body, "\n") != 3 {
		t.Errorf("bounded request: status %d, stream\n%s\nwant it to start\n%s", status, body, want)
	}
}
