package rox

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/plancache"
)

// TestStatementCacheBounds pins what the statement cache keeps: one entry per
// distinct text up to the plan cache's capacity (least recently used out
// first), no text longer than maxStatementText, and nothing at all when the
// plan cache is off — that engine compiles every request.
func TestStatementCacheBounds(t *testing.T) {
	ctx := context.Background()
	load := func(e *Engine) *Engine {
		if err := e.LoadSource(FromXML("ppl.xml", pricedShardXML(0, 10))); err != nil {
			t.Fatal(err)
		}
		return e
	}
	query := func(tag string) string {
		return fmt.Sprintf(`for $p in doc("ppl.xml")//person[age > %s] return $p`, tag)
	}

	e := load(NewEngine(WithPlanCache(2)))
	for _, tag := range []string{"1", "2", "1", "3"} {
		if _, err := collectRows(e.Execute(ctx, Request{Query: query(tag)})); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.stmts.len(); n != 2 {
		t.Errorf("%d statements cached under a plan cache of 2", n)
	}
	if e.stmts.get(query("2")) != nil || e.stmts.get(query("1")) == nil || e.stmts.get(query("3")) == nil {
		t.Error("the cache did not evict its least recently used text")
	}

	// Pad with whitespace, which the compiler skips, to either side of the
	// bound.
	e = load(NewEngine())
	at := query("4")
	at += strings.Repeat(" ", maxStatementText-len(at))
	over := query("5")
	over += strings.Repeat(" ", maxStatementText+1-len(over))
	for _, q := range []string{at, over} {
		if _, err := collectRows(e.Execute(ctx, Request{Query: q})); err != nil {
			t.Fatal(err)
		}
	}
	if e.stmts.get(at) == nil || e.stmts.get(over) != nil || e.stmts.len() != 1 {
		t.Errorf("texts of %d and %d bytes: cached %v and %v, want only the first (bound %d)",
			len(at), len(over), e.stmts.get(at) != nil, e.stmts.get(over) != nil, maxStatementText)
	}

	e = load(NewEngine(WithPlanCache(0)))
	if e.stmts != nil {
		t.Error("an engine without a plan cache has a statement cache")
	}
	a, err := e.statement(query("1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.statement(query("1"))
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.fp != "" {
		t.Errorf("cache-off engine: shared statement %v, fingerprint %q; want a fresh compile, no key", a == b, a.fp)
	}
}

// TestStatementSharedAcrossScatters: 16 goroutines run one query text over a
// mixed local+remote collection, unwindowed and under two windows, while the
// local shard and one remote shard reload (with the same content). Every
// result equals a fresh Prepare's, both engines compile the text once, each
// shard is rebound once per engine, and the plan-cache keys are exactly the
// ones prepared statements use.
func TestStatementSharedAcrossScatters(t *testing.T) {
	ctx := context.Background()
	spans := [][2]int{{0, 30}, {100, 30}, {200, 30}}
	server := pricedServerEngine(t, []int{1, 2}, spans)
	_, ts := newShardServer(t, server)
	coord := NewEngine()
	local := pricedShardXML(spans[0][0], spans[0][1])
	if err := coord.LoadCollectionSource("ppl", FromXML("ppl-0.xml", local)); err != nil {
		t.Fatal(err)
	}
	if err := coord.LoadCollectionRemote(ctx, "ppl", []Endpoint{{URL: ts.URL}}); err != nil {
		t.Fatal(err)
	}
	const q = `for $p in collection("ppl")//person order by $p/age return $p`
	windows := []struct{ limit, offset int }{{0, 0}, {10, 0}, {5, 7}}

	// The reference: a fresh statement per window, on a twin cluster, so the
	// engines under test start with empty caches.
	twinServer := pricedServerEngine(t, []int{1, 2}, spans)
	_, twinTS := newShardServer(t, twinServer)
	twin := NewEngine()
	if err := twin.LoadCollectionSource("ppl", FromXML("ppl-0.xml", local)); err != nil {
		t.Fatal(err)
	}
	if err := twin.LoadCollectionRemote(ctx, "ppl", []Endpoint{{URL: twinTS.URL}}); err != nil {
		t.Fatal(err)
	}
	want := make([][]string, len(windows))
	var baseFPs []string
	for i, w := range windows {
		p, err := twin.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := collectRows(twin.Execute(ctx, Request{Prepared: p, Limit: w.limit, Offset: w.offset}))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Items
		fp := p.Fingerprint()
		if w != windows[0] {
			fp = cacheKey(p.comp.WithTailLimit(&plan.LimitSpec{Count: w.limit, Offset: w.offset}))
		}
		baseFPs = append(baseFPs, fp)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // reload one local and one remote shard, same content, until the queries are done
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := coord.LoadCollectionSource("ppl", FromXML("ppl-0.xml", local)); err != nil {
				t.Error(err)
				return
			}
			if err := server.LoadSource(FromXML("ppl-1.xml", pricedShardXML(spans[1][0], spans[1][1]))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var queries sync.WaitGroup
	for g := 0; g < 16; g++ {
		queries.Add(1)
		go func() {
			defer queries.Done()
			for i := 0; i < 6; i++ {
				wi := (g + i) % len(windows)
				w := windows[wi]
				res, err := collectRows(coord.Execute(ctx, Request{Query: q, Limit: w.limit, Offset: w.offset}))
				if err != nil {
					t.Errorf("goroutine %d window %+v: %v", g, w, err)
					return
				}
				if !slices.Equal(res.Items, want[wi]) {
					t.Errorf("goroutine %d window %+v: %d items differ from the prepared run's %d",
						g, w, len(res.Items), len(want[wi]))
					return
				}
			}
		}()
	}
	queries.Wait()
	close(stop)
	wg.Wait()

	for name, e := range map[string]*Engine{"coordinator": coord, "shard server": server} {
		p := e.stmts.get(q)
		if n := e.stmts.len(); n != 1 || p == nil {
			t.Fatalf("%s: %d statements cached, want the one text", name, n)
		}
		p.mu.Lock()
		shards := len(p.shards)
		p.mu.Unlock()
		if want := map[string]int{"coordinator": 1, "shard server": 2}[name]; shards != want {
			t.Errorf("%s: statement holds %d shard rebinds, want %d", name, shards, want)
		}
	}

	// Plan-cache keys: the coordinator caches its local shard's plans, the
	// server its two shards', each under a prepared statement's base key.
	var coordKeys, serverKeys []string
	for _, fp := range baseFPs {
		coordKeys = append(coordKeys, fp+"|shard:ppl-0.xml")
		for _, sh := range []string{"ppl-1.xml", "ppl-2.xml"} {
			serverKeys = append(serverKeys, fp+"|shard:"+sh)
		}
	}
	present := func(c *plancache.Cache, keys []string) int {
		n := 0
		for _, k := range keys {
			if _, outcome := c.Lookup(k, 0); outcome != plancache.Miss {
				n++
			}
		}
		return n
	}
	for _, c := range []struct {
		name  string
		cache *plancache.Cache
		keys  []string
	}{
		{"coordinator plan cache", coord.cache, coordKeys},
		{"shard server plan cache", server.cache, serverKeys},
	} {
		n := present(c.cache, c.keys)
		if n != c.cache.Len() || n != len(c.keys) {
			t.Errorf("%s: %d entries, %d of them among the %d prepared keys %q",
				c.name, c.cache.Len(), n, len(c.keys), c.keys)
		}
	}
}
