// Package plancache caches the plans the ROX optimizer discovers, keyed by
// the canonical Join Graph fingerprint, so repeated queries skip the sampling
// loop entirely — run-time optimization applied *across* queries instead of
// within one.
//
// Each entry remembers the generation its plan was discovered under — the
// caller's stamp for the data the plan reads (plan.Catalog.GraphGeneration:
// the newest registration among the documents the graph reads) — and the
// per-edge cardinalities that discovery observed. A lookup against the same
// (fingerprint, generation) is an exact hit: the data cannot have changed,
// the plan replays as-is. A lookup that finds the fingerprint under an
// *older* generation is a stale-generation hit: a document the plan reads was
// reloaded since it was discovered, which need not have moved its
// cardinalities — the caller replays the plan anyway (replay is always
// correct; edge order only affects cost) while recording observed
// cardinalities, then reports them back:
//
//   - within the drift ratio of the expectations → Revalidate promotes the
//     entry to the current generation, and the sampling loop stays skipped;
//   - beyond the ratio → MarkDrift evicts the entry and the caller falls
//     back to a full ROX run, installing the freshly discovered plan.
//
// This is the paper's philosophy extended across requests: trust no
// estimate, let observed cardinalities decide — here, whether yesterday's
// plan still fits today's data.
//
// The cache is a bounded LRU and safe for concurrent use.
package plancache

import (
	"container/list"
	"fmt"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/plan"
)

// Entry is one cached plan with the evidence that justified it. Entries are
// immutable once installed (Revalidate swaps in a replacement rather than
// mutating), so the pointer Lookup returns is safe to read without locks
// while concurrent lookups, installs and revalidations proceed.
type Entry struct {
	// Fingerprint is the canonical Join Graph hash (joingraph.Fingerprint).
	Fingerprint string
	// Generation is the stamp the plan was last validated against (the
	// discovering run's, or the latest Revalidate).
	Generation uint64
	// Plan is the edge order the discovering ROX run executed.
	Plan plan.Plan
	// Expected maps edge ID → the intermediate cardinality the discovering
	// run observed for that edge. Replays compare their own cardinalities
	// against these to detect drift.
	Expected map[int]int
}

// Outcome classifies a Lookup.
type Outcome int

const (
	// Miss: no entry for the fingerprint; run the optimizer.
	Miss Outcome = iota
	// Hit: entry found at the current generation; replay without sampling,
	// no verification needed (no document the plan reads was reloaded).
	Hit
	// StaleGeneration: entry found, but a document the plan reads was
	// reloaded since it was validated; replay with drift verification.
	StaleGeneration
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case StaleGeneration:
		return "stale-generation"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Cache is a bounded LRU of discovered plans. The zero value is not usable;
// call New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *Entry
	items    map[string]*list.Element

	counters metrics.CacheCounters
}

// New returns a cache bounded to capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Lookup finds the entry for fingerprint fp, classifying it against the
// caller's current generation gen, and counts the outcome. The returned
// entry is shared — callers must treat it as read-only.
func (c *Cache) Lookup(fp string, gen uint64) (*Entry, Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[fp]
	if !ok {
		c.counters.Miss()
		return nil, Miss
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*Entry)
	if e.Generation == gen {
		c.counters.Hit()
		return e, Hit
	}
	c.counters.StaleHit()
	return e, StaleGeneration
}

// Install inserts (or replaces) the plan for e.Fingerprint, evicting the
// least-recently-used entry beyond capacity. An existing entry from a newer
// generation is left alone: a query that ran over an older snapshot
// must not overwrite what a query over fresher data just discovered.
func (c *Cache) Install(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.Fingerprint]; ok {
		if el.Value.(*Entry).Generation > e.Generation {
			return
		}
		el.Value = e
		c.ll.MoveToFront(el)
		c.counters.Install()
		return
	}
	c.items[e.Fingerprint] = c.ll.PushFront(e)
	c.counters.Install()
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		old := back.Value.(*Entry)
		c.ll.Remove(back)
		delete(c.items, old.Fingerprint)
		c.counters.Eviction()
	}
}

// Revalidate promotes the entry for fp to generation gen after a
// stale-generation replay stayed within the drift bound: the old plan still
// fits the new data, so future lookups at gen are exact hits. A fresher
// observation set replaces the expectations (observed on the current data,
// they are the better baseline for the next drift check). No-op if the entry
// was evicted meanwhile.
func (c *Cache) Revalidate(fp string, gen uint64, observed map[int]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[fp]
	if !ok {
		return
	}
	e := el.Value.(*Entry)
	if e.Generation >= gen {
		return // a concurrent revalidation or reinstall got further already
	}
	ne := &Entry{Fingerprint: e.Fingerprint, Generation: gen, Plan: e.Plan, Expected: e.Expected}
	if len(observed) > 0 {
		ne.Expected = observed
	}
	el.Value = ne // entries are immutable: replace, never mutate in place
}

// MarkDrift records that a replay at generation gen observed
// cardinality drift, and evicts the entry for fp unless it has meanwhile
// been replaced or revalidated at gen or newer — a concurrent query that
// already re-optimized (or a query holding an old catalog snapshot) must
// not tear down what fresher verdicts installed. The drift event is always
// counted — it happened, whether or not this call did the eviction.
func (c *Cache) MarkDrift(fp string, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters.Drift()
	if el, ok := c.items[fp]; ok && el.Value.(*Entry).Generation < gen {
		c.removeLocked(fp)
	}
}

// Invalidate removes the entry for fp (e.g. its plan no longer covers a
// freshly compiled graph, so its replay failed). Reports whether an entry
// was removed; removals are counted so HitRate can discount lookups whose
// replay never served a result.
func (c *Cache) Invalidate(fp string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := c.removeLocked(fp)
	if removed {
		c.counters.Invalidation()
	}
	return removed
}

func (c *Cache) removeLocked(fp string) bool {
	el, ok := c.items[fp]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.items, fp)
	return true
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Capacity returns the LRU bound.
func (c *Cache) Capacity() int { return c.capacity }

// Counters returns the cache's event counters (concurrency-safe; read with
// Snapshot).
func (c *Cache) Counters() *metrics.CacheCounters { return &c.counters }

// DriftSlack is the absolute cardinality below which differences are never
// drift: at tiny intermediate sizes the ratio test is all noise (1 row vs 3
// rows is a 3× "drift" that re-optimization could not improve on).
const DriftSlack = 32

// DefaultDriftRatio is the drift factor Drift falls back to for ratios <= 1;
// rox.DefaultDriftRatio aliases it so the engine and the cache share one
// default.
const DefaultDriftRatio = 2.0

// Drift compares a replay's observed per-edge cardinalities against the
// entry's expectations under the given ratio (> 1). It reports the first
// offending edge and its expected/observed rows. Differences where both
// sides sit at or below DriftSlack are noise and never drift; once either
// side exceeds the slack, the edge drifts when the larger cardinality
// exceeds the smaller by more than ratio (so a vanished edge — expected
// many, observed zero — drifts too). Edges the replay did not observe
// (implied or redundant in the fresh graph) are skipped.
func Drift(expected, observed map[int]int, ratio float64) (edge, expRows, obsRows int, drifted bool) {
	if ratio <= 1 {
		ratio = DefaultDriftRatio
	}
	// Walk edges in sorted order: "first offending edge" must be the same
	// edge on every run, or drift diagnostics (and the tests pinning them)
	// would flap with map iteration order.
	ids := make([]int, 0, len(expected))
	for id := range expected {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		exp := expected[id]
		obs, ok := observed[id]
		if !ok {
			continue
		}
		if exp <= DriftSlack && obs <= DriftSlack {
			continue
		}
		lo, hi := float64(exp), float64(obs)
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo < 1 {
			lo = 1
		}
		if hi > lo*ratio {
			return id, exp, obs, true
		}
	}
	return 0, 0, 0, false
}
