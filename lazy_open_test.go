package rox

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/shardrpc"
	"repro/internal/testutil"
	"repro/internal/xmltree"
)

// A plain window opens only the shards it reaches (windowStart.reach,
// shard.go): the tests below count the requests each shard server gets, show
// that shards the gather never reached did no work, and drive a lazily
// opened shard through failure, retry and cancellation.

const lazyScan = `for $p in collection("xmark")//person[.//province] return $p limit 20`

// seenRequests returns a copy of the execute requests ex got so far.
func (s *swapExec) seenRequests() []shardrpc.ExecRequest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]shardrpc.ExecRequest(nil), s.seen...)
}

// fewPersonsXML is a shard of n persons, each with a province.
func fewPersonsXML(n int) string {
	var b strings.Builder
	b.WriteString("<site><people>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<person id="r%d"><name>r%d</name><address><province>P%d</province></address></person>`, i, i, i)
	}
	b.WriteString("</people></site>")
	return b.String()
}

// runHeld runs q and drains its items, holding the cursor open after the
// first one until ready reports true: the requests the scatter started reach
// their servers before the window fills and cancels them.
func runHeld(t *testing.T, eng *Engine, q string, ready func() bool) []string {
	t.Helper()
	rows, err := eng.Execute(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var items []string
	for rows.Next() {
		items = append(items, rows.Item())
		for deadline := time.Now().Add(10 * time.Second); len(items) == 1 && !ready(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the scatter's requests never reached their servers")
			}
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return items
}

// unshardedXMark loads the shards' texts, in order, under one root as
// "all.xml": the unsharded oracle of a collection query.
func unshardedXMark(t *testing.T, texts []string) *Engine {
	t.Helper()
	e := NewEngine()
	if err := e.LoadSource(FromXML("all.xml", "<all>"+strings.Join(texts, "")+"</all>")); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestScatterLazyOpenRemote(t *testing.T) {
	shards := datagen.XMarkShards(datagen.DefaultXMarkConfig(), 4)
	texts := make([]string, len(shards))
	servers := make([]*swapExec, len(shards))
	var endpoints []Endpoint
	for i, d := range shards {
		texts[i] = xmltree.SerializeString(d, d.Root())
		srv := NewEngine(WithSeed(1))
		if err := srv.LoadSource(FromDocument(d)); err != nil {
			t.Fatal(err)
		}
		ex, ts := newShardServer(t, srv)
		servers[i] = ex
		endpoints = append(endpoints, Endpoint{URL: ts.URL})
	}
	coord := NewEngine(WithSeed(1))
	if err := coord.LoadCollectionRemote(context.Background(), "xmark", endpoints); err != nil {
		t.Fatal(err)
	}
	seen := func() []int {
		n := make([]int, len(servers))
		for i, ex := range servers {
			n[i] = len(ex.seenRequests())
		}
		return n
	}
	// Each run holds its cursor after the first item for a while (the cold
	// run until every shard server saw its request), so a shard the scatter
	// did open is seen by its server even when the window fills first.
	check := func(what string, ready func() bool) {
		t.Helper()
		want, err := collectRows(unshardedXMark(t, texts).Execute(context.Background(),
			Request{Query: `for $p in doc("all.xml")//person[.//province] return $p limit 20`}))
		if err != nil {
			t.Fatal(err)
		}
		assertSameItems(t, what, want.Items, runHeld(t, coord, lazyScan, ready))
	}
	linger := func() bool { time.Sleep(20 * time.Millisecond); return true }

	check("cold run", func() bool { return fmt.Sprint(seen()) == "[1 1 1 1]" })
	for run := 1; run <= 3; run++ {
		check(fmt.Sprintf("run %d", run), linger)
		if got, want := seen(), fmt.Sprintf("[%d 1 1 1]", run+1); fmt.Sprint(got) != want {
			t.Fatalf("run %d: requests per shard server %v, want %s: only shard 0 is reached", run, got, want)
		}
	}
	res, err := collectRows(coord.Execute(context.Background(), Request{Query: lazyScan}))
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range res.Stats.Shards[1:] {
		if !ss.Stats.Truncated || ss.Stats.ExecTuples != 0 || ss.Stats.Rows != 0 {
			t.Errorf("unreached shard %s reports %+v", ss.Shard, ss.Stats)
		}
	}

	// Shard 0 shrinks below the window: the gather reaches shard 1, opens it
	// itself and asks for what the window still needs.
	small := NewEngine(WithSeed(1))
	if err := small.LoadSource(FromXML(shards[0].Name(), fewPersonsXML(5))); err != nil {
		t.Fatal(err)
	}
	servers[0].swap(small)
	texts[0] = fewPersonsXML(5)
	before := seen()
	check("after shard 0 shrank", linger)
	reqs := servers[1].seenRequests()
	if len(reqs) != before[1]+1 {
		t.Fatalf("shard 1 got %d requests, want %d", len(reqs), before[1]+1)
	}
	if got := reqs[len(reqs)-1].ShardLimit; got != 15 {
		t.Errorf("lazily opened shard 1 was sent shard_limit %d, want the window's remaining 15", got)
	}
	check("remembering two shards", linger)
}

func TestScatterLazyOpenLocal(t *testing.T) {
	e := NewEngine(WithSeed(1))
	for _, d := range datagen.XMarkShards(datagen.DefaultXMarkConfig(), 4) {
		if err := e.LoadCollectionSource("xmark", FromDocument(d)); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := collectRows(e.Execute(context.Background(), Request{Query: lazyScan}))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := collectRows(e.Execute(context.Background(), Request{Query: lazyScan}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameItems(t, "warm run", cold.Items, warm.Items)
	if len(warm.Stats.Shards) != 4 {
		t.Fatalf("stats list %d shards, want 4", len(warm.Stats.Shards))
	}
	if ss := warm.Stats.Shards[0]; ss.Stats.ExecTuples == 0 || ss.Stats.Rows != 20 {
		t.Errorf("shard 0 reports %+v, want its join and the 20 items", ss.Stats)
	}
	for _, ss := range warm.Stats.Shards[1:] {
		if ss.Stats.ExecTuples != 0 || ss.Stats.SampleTuples != 0 || !ss.Stats.Truncated {
			t.Errorf("unreached shard %s reports %+v, want no work and Truncated", ss.Shard, ss.Stats)
		}
	}
	if !warm.Stats.Truncated {
		t.Error("a window that reached one of four shards is not Truncated")
	}
}

// lazyRemoteCollection is collection "ppl": shard ppl-0.xml local with
// spans[0]'s persons, ppl-1.xml served by handler.
func lazyRemoteCollection(t *testing.T, handler http.HandlerFunc, opts ...Option) *Engine {
	t.Helper()
	ts := fakeShardServer(t, handler)
	eng := NewEngine(opts...)
	if err := eng.LoadCollectionSource("ppl", FromXML("ppl-0.xml", pricedShardXML(0, 30))); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadCollectionRemote(context.Background(), "ppl",
		[]Endpoint{{URL: ts.URL, Shards: []string{"ppl-1.xml"}}}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// lazyShard1 makes the next run of a 10-item window over lazyRemoteCollection
// open ppl-1.xml lazily: a first run learns that ppl-0.xml fills the window,
// then ppl-0.xml is reloaded with 3 persons. calls counts the shard
// server's requests: the first run sends it one.
func lazyShard1(t *testing.T, eng *Engine, calls *atomic.Int32) {
	t.Helper()
	runHeld(t, eng, lazyPPL, func() bool { return calls.Load() == 1 })
	if err := eng.LoadCollectionSource("ppl", FromXML("ppl-0.xml", pricedShardXML(0, 3))); err != nil {
		t.Fatal(err)
	}
}

const lazyPPL = `for $p in collection("ppl")//person return $p limit 10`

func TestScatterLazyOpenFailure(t *testing.T) {
	serve := shardrpc.HandleExecute(pricedServerEngine(t, []int{1}, [][2]int{{0, 30}, {100, 30}}))
	var calls atomic.Int32
	var failing atomic.Bool
	handler := func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if failing.Load() {
			http.Error(w, `{"error":"shard down"}`, http.StatusInternalServerError)
			return
		}
		serve(w, r)
	}
	t.Run("partial", func(t *testing.T) {
		calls.Store(0)
		failing.Store(false)
		eng := lazyRemoteCollection(t, handler, WithShardRetry(ShardRetryThenPartial))
		lazyShard1(t, eng, &calls)
		failing.Store(true)
		res, err := collectRows(eng.Execute(context.Background(), Request{Query: lazyPPL}))
		if err != nil {
			t.Fatalf("partial policy failed the query: %v", err)
		}
		if len(res.Items) != 3 {
			t.Errorf("partial result has %d items, want ppl-0.xml's 3", len(res.Items))
		}
		if n := calls.Load(); n != 3 {
			t.Errorf("shard server got %d requests, want the cold run's and two for the lazy open", n)
		}
		if !res.Stats.Truncated || len(res.Stats.Shards) != 2 || res.Stats.Shards[1].Err == "" {
			t.Errorf("stats %+v, want Truncated and ppl-1.xml's error", res.Stats)
		}
	})
	t.Run("fail-fast", func(t *testing.T) {
		calls.Store(0)
		failing.Store(false)
		eng := lazyRemoteCollection(t, handler)
		lazyShard1(t, eng, &calls)
		failing.Store(true)
		_, err := collectRows(eng.Execute(context.Background(), Request{Query: lazyPPL}))
		if err == nil || !strings.Contains(err.Error(), "ppl-1.xml") {
			t.Fatalf("error %v, want ppl-1.xml's failure", err)
		}
		if n := calls.Load(); n != 2 {
			t.Errorf("shard server got %d requests, want the cold run's and one for the lazy open", n)
		}
	})
}

func TestScatterLazyOpenCanceled(t *testing.T) {
	testutil.CheckGoroutines(t)
	serve := shardrpc.HandleExecute(pricedServerEngine(t, []int{1}, [][2]int{{0, 30}, {100, 30}}))
	var calls atomic.Int32
	eng := lazyRemoteCollection(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		serve(w, r)
	})
	lazyShard1(t, eng, &calls)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := eng.Execute(ctx, Request{Query: lazyPPL})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // ppl-0.xml's persons
		if !rows.Next() {
			t.Fatalf("item %d: %v", i, rows.Err())
		}
	}
	cancel()
	if rows.Next() {
		t.Fatal("the cursor went on past its caller's cancellation")
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("error %v, want context.Canceled", err)
	}
	rows.Close()
	if n := calls.Load(); n != 1 {
		t.Errorf("shard server got %d requests, want only the cold run's", n)
	}
	if ss := rows.Stats().Shards; len(ss) != 2 || !ss[1].Stats.Truncated || ss[1].Stats.ExecTuples != 0 {
		t.Errorf("shard stats %+v, want ppl-1.xml unreached", ss)
	}
}
