package rox

import (
	"context"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/xquery"
)

// This file implements streaming scatter-gather evaluation of collection()
// queries.
//
// A collection is an ordered list of shards — independently shredded and
// indexed documents registered under one logical name. A query that reads
// collection("c") compiles once into a Join Graph whose collection-anchored
// vertices carry the collection name; at execution time the engine
// instantiates that graph per shard (CloneRebindDoc) and runs the complete
// ROX pipeline — plan-cache lookup, sampling optimizer on a miss, drift
// verification — independently on every shard. Per-shard optimization is the
// paper's thesis applied to partitioned data: each shard discovers the join
// order its own value distributions justify, instead of trusting statistics
// averaged over the whole corpus.
//
// The gather side is pull-driven: every shard streams its serialized items
// through a bounded channel, and the Rows cursor merges them one Next at a
// time (the "Streaming execution and limit pushdown" section of DESIGN.md).
// The merge shape depends on the query's own tail:
//
//   - Plain ordered-item queries concatenate: the gather consumes shards in
//     shard registration order, pulling each shard's items as that shard
//     produces them. Within a shard the tail sort restores document order,
//     so the concatenation equals the document order of the same data loaded
//     as one catalog whenever the shards partition the corpus in order — the
//     byte-identity contract the sharding tests pin down.
//   - Aggregate queries (count, sum, avg, min, max) merge algebraically:
//     every shard returns its partial-aggregate fold state and the gather
//     side combines them — counts add, sums add exactly (the states keep
//     exact floating-point expansions, so grouping does not change the
//     rounded result), avg merges as (sum, count), min/max take the extrema
//     of the per-shard extrema. Only the merged state is rendered.
//   - order by queries k-way merge: every shard streams its items already
//     key-sorted plus the extracted keys, and the gather side repeatedly
//     takes the best head among the shard streams, ties going to the
//     earliest shard — which, with stable per-shard sorting, reproduces the
//     single catalog's stable sort byte for byte.
//
// A limit/offset window pushes down: each shard's tail keeps only its first
// offset+limit rows (any shard can contribute at most that many items to the
// merged prefix), and the gather stops pulling — and cancels the shard work
// still running — as soon as offset+limit items came off the merge. `limit
// 10` over a 12-shard collection therefore does ~10 merge steps and aborts
// the shards it never needed, instead of computing the full union.

// shardStreamBuf is the per-shard item channel capacity: enough slack that a
// producing shard stays ahead of the merge without the gather buffering an
// unbounded result.
const shardStreamBuf = 16

// shardItem is one serialized result item in flight from a shard to the
// gather, with its order-by merge key when the tail sorts.
type shardItem struct {
	item string
	key  plan.Key
}

// shardDone is a shard's end-of-stream report: its full per-shard Stats, the
// recorder to fold into the query's rollup, the partial-aggregate state for
// aggregate queries, and the error that ended the shard early (nil for
// normal completion; the context error when the gather canceled it). The
// backend also reports the generation stamp it validated cached plans
// against and the executed plan's replay payload (what a shard server hands
// back for the coordinator's next plan hint).
type shardDone struct {
	stats Stats
	rec   *metrics.Recorder
	agg   *plan.AggState
	err   error
	// partial marks a shard the ShardRetryThenPartial policy gave up on: err
	// is recorded in the shard's stats instead of failing the query.
	partial bool
	gen     uint64
	ranPlan *plan.Plan
	// edgeRows is the executed plan's observed per-edge cardinalities — the
	// drift baseline that travels with the plan.
	edgeRows map[int]int
}

// shardStream is one shard's side of the scatter: items is closed when the
// shard stops emitting; done (buffered) always receives exactly one report
// before items closes.
type shardStream struct {
	name  string
	items chan shardItem
	done  chan shardDone
}

// newShardStream builds one shard's stream pair.
func newShardStream(name string) *shardStream {
	return &shardStream{
		name:  name,
		items: make(chan shardItem, shardStreamBuf),
		done:  make(chan shardDone, 1),
	}
}

// gather modes.
const (
	gatherPlain = iota
	gatherOrdered
	gatherAgg
)

// executeCollection evaluates a compiled collection query scatter-gather and
// returns its streaming cursor. The caller's env supplies the catalog
// snapshot (all shards are read at the generation the query started at) and
// receives the merged cost rollup when the cursor finishes. Each shard runs
// on its registered backend — in-process for local shards, shardrpc HTTP for
// remote ones — behind the uniform ShardBackend contract, so the gather
// merges mixed local/remote collections without knowing. text is the query
// text (remote shards ship it instead of a serialized graph); baseFP is the
// precomputed cache key ("" when caching is disabled); the compiler
// guarantees exactly one collection.
func (e *Engine) executeCollection(ctx context.Context, env *plan.Env, comp *xquery.Compiled, text, baseFP string) (*Rows, error) {
	if len(comp.Collections) != 1 {
		// Unreachable: xquery.Compile rejects multi-collection queries.
		return nil, fmt.Errorf("rox: a query may read at most one collection, got %d (%v)",
			len(comp.Collections), comp.Collections)
	}
	collName := comp.Collections[0]
	cat := env.Catalog()
	col, err := cat.Collection(collName)
	if err != nil {
		return nil, translateErr(err)
	}
	sw := metrics.Start()
	shards := col.Shards

	// Push the window down per shard: a shard can contribute at most
	// offset+count items to the merged prefix, so its own tail needs no more
	// than that. The offset itself must stay at the gather — the skipped
	// items may come from any shard, so a shard-local skip would drop the
	// wrong rows. An offset-only window therefore clears the shard tail
	// entirely (nothing bounds what one shard may contribute).
	window := comp.Tail.Limit
	shardComp := comp
	shardLimit := 0
	if window != nil {
		var shardSpec *plan.LimitSpec
		if window.Count > 0 {
			shardSpec = &plan.LimitSpec{Count: window.Offset + window.Count}
			shardLimit = shardSpec.Count
		}
		shardComp = comp.WithTailLimit(shardSpec)
	}

	// Scatter. Each shard gets its own env (recorder + seeded random stream)
	// over the shared snapshot; the derived context aborts the remaining
	// shards as soon as one fails, the caller cancels, the cursor closes, or
	// the gather's window fills.
	sctx, cancel := context.WithCancel(ctx)
	parentInterrupt := env.Interrupt
	interrupt := func() error {
		if err := sctx.Err(); err != nil {
			return err
		}
		if parentInterrupt != nil {
			return parentInterrupt()
		}
		return nil
	}
	streams := make([]*shardStream, len(shards))
	for i, sh := range shards {
		st := newShardStream(sh.Name())
		streams[i] = st
		x := &shardExec{
			coll:       collName,
			shard:      sh.Name(),
			gen:        sh.Gen,
			remote:     sh.Remote,
			cat:        cat,
			comp:       shardComp,
			query:      text,
			shardLimit: shardLimit,
			baseFP:     baseFP,
			interrupt:  interrupt,
		}
		be := e.backendFor(sh)
		if e.shardRetry == ShardRetryThenPartial {
			go e.runShardGuarded(sctx, be, x, st)
		} else {
			go be.run(sctx, x, st)
		}
	}

	src := &scatterRows{
		parent:  ctx,
		cancel:  cancel,
		env:     env,
		sw:      sw,
		streams: streams,
		dones:   make([]*shardDone, len(streams)),
		mode:    gatherPlain,
		lo:      0,
		hi:      -1,
	}
	switch {
	case comp.Tail.Agg != nil:
		src.mode = gatherAgg
		src.aggKind = comp.Tail.Agg.Kind
	case comp.Tail.Order != nil:
		src.mode = gatherOrdered
		src.desc = comp.Tail.Order.Desc
	}
	if window != nil {
		if src.lo = window.Offset; src.lo < 0 {
			src.lo = 0
		}
		if window.Count > 0 {
			src.hi = src.lo + window.Count
		}
	}
	stats := Stats{Plan: fmt.Sprintf("scatter(%s/%d)", collName, len(shards))}
	return newRows(env, stats, src), nil
}

// scatterRows is the gather side as a cursor row source: it pulls the merged
// result one item at a time from the shard streams, applies the global
// offset/limit window, and on finalize cancels whatever shard work the
// window made unnecessary before assembling the per-shard statistics.
type scatterRows struct {
	parent  context.Context // caller's ctx: its cancellation is a stream error
	cancel  context.CancelFunc
	env     *plan.Env
	sw      metrics.Stopwatch // the query's clock; finalize stamps Elapsed
	streams []*shardStream
	dones   []*shardDone
	mode    int
	desc    bool
	aggKind plan.AggKind

	lo, hi int // global window over merged items; hi < 0 = unbounded
	pulled int // merged items consumed, offset skips included

	cur     int // gatherPlain: stream currently being drained
	heads   []shardItem
	hasHead []bool
	started bool
	aggDone bool
}

// next hands out strings: the items crossed a channel (or the wire), so each
// is already its own allocation.
func (s *scatterRows) next() ([]byte, string, bool, error) {
	if s.mode == gatherAgg {
		item, ok, err := s.nextAgg()
		return nil, item, ok, err
	}
	for {
		if s.hi >= 0 && s.pulled >= s.hi {
			return nil, "", false, nil // window full: finalize cancels the rest
		}
		it, ok, err := s.nextMerged()
		if err != nil || !ok {
			return nil, "", false, err
		}
		s.pulled++
		if s.pulled <= s.lo {
			continue // inside the global offset: skip
		}
		return nil, it.item, true, nil
	}
}

// nextMerged produces the next item of the merged shard order: shard
// concatenation for plain queries, k-way key merge for ordered ones.
func (s *scatterRows) nextMerged() (shardItem, bool, error) {
	if s.mode == gatherOrdered {
		return s.nextOrdered()
	}
	for s.cur < len(s.streams) {
		it, ok, err := s.pull(s.cur)
		if err != nil {
			return shardItem{}, false, err
		}
		if ok {
			return it, true, nil
		}
		s.cur++ // stream exhausted cleanly: move to the next shard
	}
	return shardItem{}, false, nil
}

// nextOrdered k-way merges the shard streams by order key. Every stream's
// head is pulled before the first emission; afterwards only the winning
// stream is refilled. The strict better-than comparison leaves ties with the
// earliest shard, which — shards partitioning the corpus in document order,
// per-shard sorts being stable — makes the merge output byte-identical to a
// stable sort over the single-catalog corpus.
func (s *scatterRows) nextOrdered() (shardItem, bool, error) {
	if !s.started {
		s.started = true
		s.heads = make([]shardItem, len(s.streams))
		s.hasHead = make([]bool, len(s.streams))
		for i := range s.streams {
			if err := s.fill(i); err != nil {
				return shardItem{}, false, err
			}
		}
	}
	best := -1
	for i := range s.streams {
		if !s.hasHead[i] {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		c := s.heads[i].key.Compare(s.heads[best].key)
		if (s.desc && c > 0) || (!s.desc && c < 0) {
			best = i
		}
	}
	if best == -1 {
		return shardItem{}, false, nil
	}
	it := s.heads[best]
	s.hasHead[best] = false
	if err := s.fill(best); err != nil {
		return shardItem{}, false, err
	}
	return it, true, nil
}

// fill refreshes stream i's head slot.
func (s *scatterRows) fill(i int) error {
	it, ok, err := s.pull(i)
	if err != nil {
		return err
	}
	s.heads[i] = it
	s.hasHead[i] = ok
	return nil
}

// pull takes the next item off stream i, honoring the caller's cancellation.
// ok = false means the stream ended; a stream that ended because its shard
// failed surfaces that failure as the stream error — unless the failure
// policy converted it to a partial completion, which ends the stream cleanly
// (finalize records the shard's error in its stats).
func (s *scatterRows) pull(i int) (shardItem, bool, error) {
	select {
	case it, ok := <-s.streams[i].items:
		if !ok {
			if d := s.doneOf(i); d.err != nil && !d.partial {
				return shardItem{}, false, d.err
			}
			return shardItem{}, false, nil
		}
		return it, true, nil
	case <-s.parent.Done():
		return shardItem{}, false, s.parent.Err()
	}
}

// nextAgg waits for every shard's partial-aggregate state, merges them
// algebraically and emits the single rendered item.
func (s *scatterRows) nextAgg() (string, bool, error) {
	if s.aggDone {
		return "", false, nil
	}
	s.aggDone = true
	var merged plan.AggState
	for i := range s.streams {
		d := s.doneOf(i)
		if d.err != nil {
			if d.partial {
				continue // policy: aggregate over the shards that answered
			}
			return "", false, d.err
		}
		merged.Merge(d.agg)
	}
	item, _ := merged.Render(s.aggKind)
	return item, true, nil
}

// doneOf returns stream i's end-of-stream report, waiting for it if the
// shard is still running. The report is memoized — finalize reads it again
// for the stats rollup.
func (s *scatterRows) doneOf(i int) *shardDone {
	if s.dones[i] == nil {
		d := <-s.streams[i].done
		s.dones[i] = &d
	}
	return s.dones[i]
}

// finalize ends the scatter: cancel the shards the merge no longer needs,
// drain their streams so every goroutine exits, and roll the per-shard
// statistics up into the query's Stats — in shard (result) order, truncated
// shards included, so observability survives early termination.
func (s *scatterRows) finalize(st *Stats) {
	s.cancel()
	completed := 0
	allHit := true
	for i := range s.streams {
		for range s.streams[i].items {
			// Drain whatever the shard had buffered so its goroutine exits.
		}
		d := s.doneOf(i)
		st.ExecTuples += d.stats.ExecTuples
		st.SampleTuples += d.stats.SampleTuples
		st.CumulativeIntermediate += d.stats.CumulativeIntermediate
		st.Scanned += d.stats.Scanned
		st.Reoptimized = st.Reoptimized || d.stats.Reoptimized
		if d.err == nil {
			completed++
			allHit = allHit && d.stats.CacheHit
		} else {
			// A shard that did not run to completion — whether the window
			// filled, the caller canceled, the cursor closed early, or the
			// failure policy gave the shard up — means the stream did not
			// cover the full union.
			st.Truncated = true
		}
		ss := ShardStats{Shard: s.streams[i].name, Stats: d.stats}
		if d.partial {
			ss.Err = d.err.Error()
		}
		st.Shards = append(st.Shards, ss)
		s.env.Rec.Merge(d.rec)
	}
	// CacheHit reports that every shard that completed replayed a cached
	// plan; shards the window's early termination canceled don't count
	// against it (nor for it).
	st.CacheHit = completed > 0 && allHit
	switch {
	case s.mode == gatherAgg:
		// The aggregate stream carries exactly one item; ending before it
		// went out is a truncation regardless of scanned counts.
		if st.Rows < 1 {
			st.Truncated = true
		}
	case st.Rows < st.Scanned:
		st.Truncated = true
	}
	st.Elapsed = s.sw.Elapsed()
}
