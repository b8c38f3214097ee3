package rox

import (
	"container/list"
	"slices"
	"sync"

	"repro/internal/xquery"
)

// This file is the engine's statement cache: query text compiles once, and
// every later Request{Query: text} — on a coordinator's /v1/query, or on a
// shard server's execute endpoint — runs the *Prepared that Prepare would
// have returned, its per-shard rebinds included. See the "Prepared queries
// and the plan cache" section of DESIGN.md.

// maxStatementText is the longest query text the statement cache keeps,
// in bytes; longer texts compile on every request. With the entry bound (the
// plan cache's capacity) it caps what the cache retains: a compiled statement
// and each of its shard rebinds are a small multiple of the text's size.
const maxStatementText = 4 << 10

// statementCache is a bounded LRU of compiled statements keyed by query text.
// It exists only beside a plan cache: without one nothing replays, and a
// request is meant to pay its whole compile (the paper's cold setting).
type statementCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *Prepared
	items    map[string]*list.Element
}

func newStatementCache(capacity int) *statementCache {
	return &statementCache{capacity: max(capacity, 1), ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the statement compiled from text, nil if none is cached.
func (c *statementCache) get(text string) *Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[text]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*Prepared)
}

// add caches p unless its text is over maxStatementText, evicting the
// least recently used statement beyond capacity, and returns the statement to
// run: p, or the one a concurrent miss on the same text cached first — so
// both share its shard rebinds.
func (c *statementCache) add(p *Prepared) *Prepared {
	if len(p.text) > maxStatementText {
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[p.text]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*Prepared)
	}
	c.items[p.text] = c.ll.PushFront(p)
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*Prepared).text)
	}
	return p
}

// len returns the number of cached statements.
func (c *statementCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// statement returns the compiled statement for query text: the cached one, or
// a fresh compile that is cached for the next request. An engine without a
// plan cache compiles every time and skips the fingerprint, which nothing
// would look up.
func (e *Engine) statement(text string) (*Prepared, error) {
	if e.stmts == nil {
		comp, err := xquery.CompileString(text, xquery.CompileOptions{})
		if err != nil {
			return nil, err
		}
		return &Prepared{eng: e, comp: comp, text: text}, nil
	}
	if p := e.stmts.get(text); p != nil {
		return p, nil
	}
	p, err := e.Prepare(text)
	if err != nil {
		return nil, err
	}
	return e.stmts.add(p), nil
}

// forShard returns the statement's graph rebound to one shard document of its
// collection (Compiled.ForShard), made on first use and kept: the rebind
// depends on nothing but the shard's name, so every execution of the
// statement on that shard — local or served to a coordinator, any window —
// shares it. A request's window goes on top with the shallow WithTailLimit.
// The memo grows with the distinct shard names the statement ran on.
func (p *Prepared) forShard(shard string) *xquery.Compiled {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.shards[shard]
	if !ok {
		if p.shards == nil {
			p.shards = make(map[string]*xquery.Compiled)
		}
		c = p.comp.ForShard(p.comp.Collections[0], shard)
		p.shards[shard] = c
	}
	return c
}

// maxWindowStarts bounds the windows one statement remembers (see
// windowStart in shard.go): the starts of its ordered windows, or the shards
// its plain windows reach. A new window past it replaces the oldest. A
// forgotten window costs its next request one unbounded scatter, or one that
// opens every shard at once.
const maxWindowStarts = 32

// windowStart returns what the statement remembers of its window w, if
// anything.
func (p *Prepared) windowStart(w pageWindow) (windowStart, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ws := range p.starts {
		if ws.window == w {
			return ws, true
		}
	}
	return windowStart{}, false
}

// rememberStart records ws for its window, replacing what the window had,
// and drops the oldest window beyond maxWindowStarts.
func (p *Prepared) rememberStart(ws windowStart) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.starts = slices.DeleteFunc(p.starts, func(o windowStart) bool { return o.window == ws.window })
	if len(p.starts) == maxWindowStarts {
		p.starts = slices.Delete(p.starts, 0, 1)
	}
	p.starts = append(p.starts, ws)
}

// forgetStart drops what the statement remembers of window w.
func (p *Prepared) forgetStart(w pageWindow) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.starts = slices.DeleteFunc(p.starts, func(o windowStart) bool { return o.window == w })
}
