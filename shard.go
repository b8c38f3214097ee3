package rox

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/xquery"
)

// This file implements streaming scatter-gather evaluation of collection()
// queries. A collection is an ordered list of shards — independently
// shredded and indexed documents registered under one logical name. The
// query compiles once; at execution time the engine rebinds the graph to
// each shard (CloneRebindDoc) and runs the complete ROX pipeline — plan-cache
// lookup, sampling optimizer on a miss, drift verification — independently
// on every shard, so each shard discovers the join order its own value
// distributions justify: the paper's thesis applied to partitioned data.
//
// The gather side is pull-driven: every shard is a pull source — a local
// execution cursor, or an adapter over a remote shard's response stream —
// whose open (the join, or the request) starts concurrently with the others
// and holds a fan-out slot for exactly that long. The Rows cursor then pulls
// the merged result straight from the sources one Next at a time, waiting for
// a shard's open only when it first needs that shard (the "Streaming
// execution and limit pushdown" section of DESIGN.md). No goroutine outlives
// an open and no item crosses a channel. The merge shape depends on the
// query's own tail:
//
//   - Plain ordered-item queries concatenate: the gather consumes shards in
//     shard registration order, streaming shard 0 while later shards are
//     still joining. Within a shard the tail sort restores document order,
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
//     takes the best head among the shard sources, ties going to the
//     earliest shard — which, with stable per-shard sorting, reproduces the
//     single catalog's stable sort byte for byte.
//
// A limit/offset window pushes down (see executeCollection), and the gather
// stops pulling — and cancels the shard work still running — as soon as
// offset+limit items came off the merge: `limit 10` over a 12-shard
// collection does ~10 merge steps instead of computing the full union. A
// remote shard already streaming has at most offset+limit items left; its
// rest is read out unparsed rather than aborted (readOut), so its keep-alive
// connection survives for the next request. A deep ordered page over remote
// shards ships less still once it ran: its statement remembers the key its
// window started at, and later requests send that key to every remote shard,
// which ships only the rows from it on and reports how many it passed over
// (windowStart). The gather checks those counts before it emits anything and
// scatters again unbounded when they no longer fit.
//
// A plain window opens only the shards it reaches. Its statement remembers
// how many shards, in order, the last run needed before the window filled
// (windowStart.reach); the scatter opens that many at once and the gather
// opens each later shard itself when it gets to it, sending it what the
// window still needs. Concatenation pulls a shard only after every earlier
// one ended, so a lazy open is exact whatever the memory says: a stale one
// costs a request some parallelism and is then corrected. A shard the gather
// never reached does no work; its Stats say so, zero and Truncated.

// shardSource is one shard of a scatter as the gather pulls it: the face the
// shard server's handler drives (shardrpc.ShardRun), with the current item as
// a view of the buffer its transport produced it in — a local cursor's render
// buffer, a remote stream's unescape buffer — valid until that source's next
// Next, so no item is copied on its way to Rows. The execution cursor and
// remoteShard implement it; both are opened before the gather pulls them.
type shardSource interface {
	Next() bool
	Item() []byte
	Key() (plan.Key, bool)
	// Before is the count a bounded remote shard reports of its rows before
	// the window's start (see windowStart); ok is false for a source that
	// streams from its first row.
	Before() (n int, ok bool)
	// done is the end-of-stream report, final once Next returned false.
	done() shardDone
	Close()
}

// shardDone is a shard's end-of-stream report: its per-shard Stats, which
// the query's rollup adds up, the partial-aggregate state for aggregate
// queries, and the error that ended the shard early — nil for
// normal completion and for a local cursor the gather merely stopped
// pulling, the context error for a canceled one.
type shardDone struct {
	stats Stats
	agg   *plan.AggState
	err   error
	// partial marks a shard the ShardRetryThenPartial policy gave up on: err
	// is recorded in the shard's stats instead of failing the query.
	partial bool
}

// scatterShard is the gather's state for one shard.
type scatterShard struct {
	x        *shardExec
	opened   chan struct{} // closed once the open set src; nil until the open began
	src      shardSource
	attempts int  // opens so far; ShardRetryThenPartial allows two
	pulled   int  // items pulled by the gather: what "entered the merge" means
	ended    bool // src's stream is over and rep is its report
	rep      shardDone
}

// gather modes.
const (
	gatherPlain = iota
	gatherOrdered
	gatherAgg
)

// executeCollection evaluates a compiled collection query scatter-gather and
// returns its streaming cursor. cat is the catalog snapshot all shards are
// read at, the generation the query started at; the shards' costs add up in
// the cursor's Stats when it finishes. Each shard opens
// on its registered transport — in-process for local shards, shardrpc HTTP
// for remote ones — and the gather merges mixed local/remote collections
// without knowing. stmt is the statement comp came from, comp carrying the
// request's window (remote shards ship the statement's text, local ones run
// its per-shard rebinds); baseFP is the precomputed cache key ("" when
// caching is disabled); the compiler guarantees exactly one collection.
func (e *Engine) executeCollection(ctx context.Context, cat *plan.Catalog, stmt *Prepared, comp *xquery.Compiled, baseFP string) (*Rows, error) {
	if len(comp.Collections) != 1 {
		// Unreachable: xquery.Compile rejects multi-collection queries.
		return nil, fmt.Errorf("rox: a query may read at most one collection, got %d (%v)",
			len(comp.Collections), comp.Collections)
	}
	collName := comp.Collections[0]
	col, err := cat.Collection(collName)
	if err != nil {
		return nil, translateErr(err)
	}
	shards := col.Shards
	sctx, cancel := context.WithCancel(ctx)
	s := &scatterRows{e: e, parent: ctx, sctx: sctx, cancel: cancel, sw: metrics.Start(),
		shards: make([]scatterShard, len(shards)), mode: gatherPlain, hi: -1}
	switch {
	case comp.Tail.Agg != nil:
		s.mode, s.aggKind = gatherAgg, comp.Tail.Agg.Kind
	case comp.Tail.Order != nil:
		s.mode, s.order = gatherOrdered, comp.Tail.Order
	}

	// Push the window down per shard: a shard can contribute at most
	// offset+count items to the merged prefix, so its own tail needs no more
	// than that. Which items the offset skips is the gather's to say — they
	// may come from any shard, so a shard cannot skip its share on its own.
	// What a shard can do is start where an earlier run of the window
	// started (windowStart): a remote shard that is told the window's first
	// key skips its rows before that key and reports how many it skipped.
	// An offset-only window clears the shard tail entirely (nothing bounds
	// what one shard may contribute). Without a window the shards run the
	// statement's own tail, which has none either.
	var shardSpec *plan.LimitSpec
	if window := comp.Tail.Limit; window != nil {
		s.lo = max(window.Offset, 0)
		if window.Count > 0 {
			s.hi = window.End()
			shardSpec = &plan.LimitSpec{Count: s.hi}
		}
	}
	remote := false
	for i, sh := range shards {
		s.shards[i] = scatterShard{x: &shardExec{
			coll:   collName,
			shard:  sh.Name(),
			remote: sh.Remote,
			cat:    cat,
			stmt:   stmt,
			window: shardSpec,
			baseFP: baseFP,
		}}
		remote = remote || sh.Remote != nil
	}
	eager := len(shards)
	if s.mode == gatherPlain && s.hi >= 0 {
		s.stmt, s.window = stmt, pageWindow{offset: s.lo, count: comp.Tail.Limit.Count}
		if ws, ok := stmt.windowStart(s.window); ok {
			s.reach = ws.reach
			eager = min(ws.reach, eager)
		}
	}
	if s.mode == gatherOrdered && s.lo > 0 && s.hi >= 0 && remote {
		s.stmt, s.window = stmt, pageWindow{offset: s.lo, count: comp.Tail.Limit.Count}
		if ws, ok := stmt.windowStart(s.window); ok {
			s.start = &ws
			for i := range s.shards {
				if x := s.shards[i].x; x.remote != nil {
					x.start = s.start
				}
			}
		} else {
			s.learn = true
		}
	}
	s.scatter(eager)
	stats := Stats{Plan: fmt.Sprintf("scatter(%s/%d)", collName, len(shards))}
	return newRows(stats, s), nil
}

// pageWindow is an ordered window of a collection query: what a statement
// remembers a start for.
type pageWindow struct{ offset, count int }

// windowStart is what an earlier run of a statement's window left for the
// next run. For a plain window it is reach, how many shards, in order, the
// run needed: the one that filled the window and every shard before it, or
// all of them when the stream ended first. For an ordered window over remote
// shards it is where the window started: key, the order key of the first
// item the window returned, and skip, how many of the items the offset
// passed over tie with key — the offset less the B items that sort strictly
// before it.
//
// A later run of the window sends key to every remote shard as its bound.
// The shard counts its rows before the bound and ships at most skip+count
// rows from the bound on (shardrpc.ExecRequest.Bound), instead of its first
// offset+count. Local shards, and servers that ignore the bound, stream from
// their first row and count as reporting 0. Let B' be the reported counts
// plus the merged items that sort before key: that is exactly how many
// items precede key now, whatever changed since — a reload, an ingest, a
// shard added. The window is exact if and only if offset−skip <= B' <=
// offset: then the items it skips at or after key are offset−B' <= skip,
// and a bounded shard shipped skip+count of those, enough for every one of
// them and the count after. check decides before the first emission, and
// fallback otherwise scatters again unbounded and learns the start anew.
type windowStart struct {
	window pageWindow
	key    plan.Key
	skip   int
	reach  int
}

// scatter starts the opens of the first n shards, concurrently; pull opens
// the others when the gather reaches them. Each shard gets its own env
// (recorder + seeded random stream) over the shared snapshot; sctx aborts
// the remaining shards as soon as one fails, the caller cancels, the cursor
// closes, or the gather's window fills.
func (s *scatterRows) scatter(n int) {
	for i := range s.shards[:n] {
		sh := &s.shards[i]
		sh.opened = make(chan struct{})
		go func() {
			defer close(sh.opened)
			s.open(sh)
		}()
	}
}

// scatterRows is the gather side as a cursor row source: it pulls the merged
// result one item at a time from the shard sources, applies the global
// offset/limit window, and on finalize cancels whatever shard work the
// window made unnecessary before assembling the per-shard statistics.
type scatterRows struct {
	e       *Engine
	parent  context.Context // caller's ctx: its cancellation is a stream error
	sctx    context.Context // the shards' ctx: parent's, canceled at finalize
	cancel  context.CancelFunc
	sw      metrics.Stopwatch // the query's clock; finalize stamps ElapsedNS
	shards  []scatterShard
	mode    int
	order   *plan.OrderSpec // gatherOrdered: the merge's key order
	aggKind plan.AggKind

	lo, hi int // global window over merged items; hi < 0 = unbounded
	merged int // merged items consumed, offset skips included

	// A plain count window or a deep ordered page over remote shards
	// (windowStart): the statement and window it is remembered for. For the
	// plain window, reach is how many shards its memory says it needs, the
	// shards scatter opened (0 = none remembered). For the ordered page,
	// start is the one this run's remote shards were sent, until check
	// decides; learn is set when this run records the start at its first
	// emission instead.
	stmt     *Prepared
	window   pageWindow
	reach    int
	start    *windowStart
	learn    bool
	reported int      // bounded run: the shards' counts of rows before start.key
	beforeK  int      // bounded run: merged items skipped that sort before it
	tieKey   plan.Key // learning: the last skipped item's key...
	ties     int      // ...and how many skipped items in a row tie with it
	spent    Stats    // a bounded run that fallback abandoned: its costs

	// cur is the shard the current item came from; gatherPlain drains it
	// until it ends. heads marks, for gatherOrdered, the shards whose current
	// item still waits in the merge (nil until the first merge step).
	cur     int
	heads   []bool
	aggDone bool
	aggBuf  []byte // the rendered aggregate item
	failed  bool   // a shard's error ended the stream
}

// open starts — or, retrying, restarts — one shard: its join or its request,
// holding a fan-out slot. Under ShardRetryThenPartial a failed open is
// retried once, inline. A source is only ever replaced after it failed, and
// a failed source holds nothing to close.
func (s *scatterRows) open(sh *scatterShard) {
	for {
		var err error
		sh.src, err = s.e.openShard(s.sctx, sh.x)
		if sh.attempts++; err == nil || !s.retryable(sh, err) {
			return
		}
	}
}

// openShard opens one shard of a scatter on the transport its registration
// names. The source is valid even when the open failed: it ends at once,
// reporting the failure.
func (e *Engine) openShard(ctx context.Context, x *shardExec) (shardSource, error) {
	if x.remote != nil {
		return e.openRemote(ctx, x)
	}
	c := e.shardCursor(ctx, x)
	return c, c.openShard()
}

// retryable reports whether ShardRetryThenPartial restarts a shard that
// failed with err: only once, only before any of its items entered the merge
// (a mid-stream restart could duplicate rows), and never for a cancellation —
// the gather's own early termination, or the caller's.
func (s *scatterRows) retryable(sh *scatterShard, err error) bool {
	return s.e.shardRetry == ShardRetryThenPartial && sh.attempts < 2 && sh.pulled == 0 && !s.canceled(err)
}

func (s *scatterRows) canceled(err error) bool {
	return s.sctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// next hands out the current item as a view of its source's buffer, valid
// until the gather pulls that shard again — which is never before the
// following next.
func (s *scatterRows) next() ([]byte, bool, error) {
	if s.mode == gatherAgg {
		return s.nextAgg()
	}
	for {
		if s.hi >= 0 && s.merged >= s.hi {
			return nil, false, nil // window full: finalize cancels the rest
		}
		ok, err := s.nextMerged()
		if err != nil {
			return nil, false, err
		}
		if s.start != nil && !s.check(ok) {
			s.fallback()
			continue
		}
		if !ok {
			if s.learn { // the window is empty: it has no start to remember
				s.stmt.forgetStart(s.window)
			}
			s.noteReach(len(s.shards))
			return nil, false, nil
		}
		s.merged++
		if s.merged == s.hi {
			s.noteReach(s.cur + 1)
		}
		if s.merged <= s.lo {
			if s.learn {
				s.noteSkipped()
			}
			continue // inside the global offset: skip
		}
		if s.learn {
			s.remember()
		}
		return s.shards[s.cur].src.Item(), true, nil
	}
}

// noteReach remembers, for a plain window, that this run needed the first n
// shards: the next run of its statement opens them at once, the others when
// its gather gets to them.
func (s *scatterRows) noteReach(n int) {
	if s.mode != gatherPlain || s.stmt == nil || n == s.reach {
		return
	}
	s.reach = n
	s.stmt.rememberStart(windowStart{window: s.window, reach: n})
}

// check verifies a bounded run (see windowStart) item by item until its first
// emission; ok and the current item are what nextMerged just returned. The
// first call comes after every shard's head, and so its count, is in: the
// merge then skips offset minus the reported counts. check returns false as
// soon as the run cannot be exact — more than offset items sort before the
// start, or fewer than offset−skip — and clears start once it is decided.
func (s *scatterRows) check(ok bool) bool {
	st := s.start
	if s.merged == 0 {
		for i := range s.shards {
			n, _ := s.shards[i].src.Before()
			s.reported = plan.AddSat(s.reported, n)
		}
		s.lo = st.window.offset - s.reported
		if s.lo < 0 {
			return false
		}
		s.hi = plan.AddSat(s.lo, st.window.count)
	}
	var before bool
	if ok {
		k, _ := s.shards[s.cur].src.Key()
		before = s.order.Before(k, st.key)
	}
	if ok && s.merged < s.lo {
		if before {
			s.beforeK++
		}
		return true
	}
	// The first emission, or the end of the stream: every item before the
	// start came off the merge.
	s.start = nil
	return !before && s.reported+s.beforeK >= st.window.offset-st.skip
}

// fallback abandons a bounded run that check rejected, before anything of it
// was emitted: it charges the run's costs to the query, as the drift path
// charges its abandoned replay, closes its sources, and scatters again
// unbounded, learning the window's start anew.
func (s *scatterRows) fallback() {
	s.readOut()
	s.cancel()
	for i := range s.shards {
		sh := &s.shards[i]
		<-sh.opened
		d := sh.rep
		if !sh.ended {
			d = sh.src.done()
		}
		sh.src.Close()
		s.spent.ExecTuples += d.stats.ExecTuples
		s.spent.SampleTuples += d.stats.SampleTuples
		s.spent.CumulativeIntermediate += d.stats.CumulativeIntermediate
		x := *sh.x
		x.start = nil
		s.shards[i] = scatterShard{x: &x}
	}
	s.sctx, s.cancel = context.WithCancel(s.parent)
	s.lo, s.hi = s.window.offset, plan.AddSat(s.window.offset, s.window.count)
	s.merged, s.cur, s.heads = 0, 0, nil
	s.start, s.reported, s.beforeK, s.learn = nil, 0, 0, true
	s.scatter(len(s.shards))
}

// noteSkipped follows, while the run learns its window's start, the run of
// skipped items that tie with the last one: the items the offset passes
// over are in order, so those tied with the window's first key end it.
func (s *scatterRows) noteSkipped() {
	k, _ := s.shards[s.cur].src.Key()
	if s.ties > 0 && k.Compare(s.tieKey) == 0 {
		s.ties++
		return
	}
	s.tieKey, s.ties = k, 1
	s.tieKey.Str = strings.Clone(k.Str) // a remote key's string is a view of its stream's buffer
}

// remember records the window's start at its first item.
func (s *scatterRows) remember() {
	s.learn = false
	k, _ := s.shards[s.cur].src.Key()
	ws := windowStart{window: s.window, key: k}
	ws.key.Str = strings.Clone(k.Str)
	if s.ties > 0 && k.Compare(s.tieKey) == 0 {
		ws.skip = s.ties
	}
	s.stmt.rememberStart(ws)
}

// nextMerged advances the merged shard order by one item and points cur at
// its shard: shard concatenation for plain queries, k-way key merge for
// ordered ones.
func (s *scatterRows) nextMerged() (bool, error) {
	if s.mode == gatherOrdered {
		return s.nextOrdered()
	}
	for ; s.cur < len(s.shards); s.cur++ {
		if ok, err := s.pull(s.cur); err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// nextOrdered k-way merges the shard sources by order key. Each source's
// current item is its head: every source is pulled once before the first
// emission, afterwards only the one the previous item came from — on this
// call, not the previous one, since that item had to stay in its source's
// buffer until now. The strict better-than comparison leaves ties with the
// earliest shard, which — shards partitioning the corpus in document order,
// per-shard sorts being stable — makes the merge output byte-identical to a
// stable sort over the single-catalog corpus.
func (s *scatterRows) nextOrdered() (bool, error) {
	if s.heads == nil {
		s.heads = make([]bool, len(s.shards))
		for i := range s.shards {
			if err := s.fill(i); err != nil {
				return false, err
			}
		}
	} else if err := s.fill(s.cur); err != nil {
		return false, err
	}
	best := -1
	var bestKey plan.Key
	for i, ok := range s.heads {
		if !ok {
			continue
		}
		k, _ := s.shards[i].src.Key()
		if best == -1 || s.order.Before(k, bestKey) {
			best, bestKey = i, k
		}
	}
	if best == -1 {
		return false, nil
	}
	s.cur, s.heads[best] = best, false
	return true, nil
}

// fill pulls shard i's next head.
func (s *scatterRows) fill(i int) error {
	ok, err := s.pull(i)
	s.heads[i] = ok
	return err
}

// pull advances shard i by one item, first waiting for its open — or, for a
// shard scatter did not start, opening it inline with what the window still
// needs as its window. ok = false means the stream ended: a shard that failed
// surfaces its error as the stream error — unless ShardRetryThenPartial
// restarts it (inline, nothing of it merged yet) or gives it up as a partial
// completion, which ends it cleanly (finalize records the error in the
// shard's stats).
func (s *scatterRows) pull(i int) (bool, error) {
	sh := &s.shards[i]
	if sh.opened == nil {
		if err := s.parent.Err(); err != nil {
			return false, err
		}
		sh.opened = make(chan struct{})
		sh.x.window = &plan.LimitSpec{Count: s.hi - s.merged}
		s.open(sh)
		close(sh.opened)
	}
	select {
	case <-sh.opened:
	case <-s.parent.Done():
		return false, s.parent.Err()
	}
	for !sh.ended {
		if sh.src.Next() {
			sh.pulled++
			return true, nil
		}
		d := sh.src.done()
		if d.err != nil && s.retryable(sh, d.err) {
			s.open(sh)
			continue
		}
		if d.err != nil && s.e.shardRetry == ShardRetryThenPartial && !s.canceled(d.err) {
			d.partial, d.stats.Truncated = true, true
		}
		sh.ended, sh.rep = true, d
	}
	if sh.rep.err != nil && !sh.rep.partial {
		s.failed = true
		return false, sh.rep.err
	}
	return false, nil
}

// nextAgg pulls every shard to its end, merges the partial-aggregate states
// algebraically and renders the single item into aggBuf.
func (s *scatterRows) nextAgg() ([]byte, bool, error) {
	if s.aggDone {
		return nil, false, nil
	}
	s.aggDone = true
	var merged plan.AggState
	for i := range s.shards {
		for { // an aggregate shard streams no items, only its fold state
			ok, err := s.pull(i)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
		}
		if d := &s.shards[i].rep; !d.partial { // policy: merge the shards that answered
			merged.Merge(d.agg)
		}
	}
	item, _ := merged.Render(s.aggKind)
	s.aggBuf = append(s.aggBuf[:0], item...)
	return s.aggBuf, true, nil
}

// Reading out window-cut remote streams (see readOut) stops at whichever
// comes first of readOutBytes per stream — the most net/http's server reads
// of an unread request body to keep its connection — and readOutBudget per
// query, well above the time a shard server takes to send a window's rest
// (0.2 ms at p99 on roxmark's scatter-remote, 2 vCPU).
const (
	readOutBytes  = 256 << 10
	readOutBudget = 5 * time.Millisecond
)

// readOut finishes the remote streams the merge no longer needs, so that
// their connections go back to the transport's idle pool: under HTTP/1.1 a
// response closed before its end costs its TCP connection, and the next
// request dials a new one. A stream qualifies only when its rest is small
// and its reader is not awaited elsewhere: the window was pushed down (the
// shard sends at most its window's count of items and its done line), its open
// completed, it has not ended, the scatter ended without an error, and the
// caller's context is live. Its bytes are discarded unparsed, so its report
// stays that of a canceled shard. Everything else — and every stream that
// hits a cap — is aborted by finalize's cancel, as before. Once a plain
// window remembers its reach, the shards past the one that fills it are never
// opened, so this matters for ordered windows and for cold plain windows.
func (s *scatterRows) readOut() {
	if s.failed || s.parent.Err() != nil {
		return
	}
	var stop *time.Timer
	for i := range s.shards {
		sh := &s.shards[i]
		select {
		case <-sh.opened:
		default:
			continue // still opening (the cancel aborts it), or never opened
		}
		r, ok := sh.src.(*remoteShard)
		if !ok || sh.ended || sh.x.window == nil || s.sctx.Err() != nil {
			continue
		}
		if stop == nil {
			stop = time.AfterFunc(readOutBudget, s.cancel)
			defer stop.Stop()
		}
		r.readOut(readOutBytes)
	}
}

// finalize ends the scatter: read out the bounded remote streams the merge
// no longer needs, cancel the rest of the shard work, wait for the opens
// still in flight, close every source, and roll the per-shard statistics up
// into the query's Stats — in shard (result) order, truncated shards
// included, so observability survives early termination.
func (s *scatterRows) finalize(st *Stats) {
	s.readOut()
	s.cancel()
	st.ExecTuples += s.spent.ExecTuples
	st.SampleTuples += s.spent.SampleTuples
	st.CumulativeIntermediate += s.spent.CumulativeIntermediate
	completed := 0
	allHit := true
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.opened == nil { // never reached: no work, and the union is not covered
			st.Truncated = true
			st.Shards = append(st.Shards, ShardStats{Shard: sh.x.shard, Stats: Stats{Truncated: true}})
			continue
		}
		<-sh.opened // an open in flight aborts at its next interrupt poll
		d := sh.rep
		if !sh.ended {
			d = sh.src.done()
		}
		sh.src.Close()
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
		ss := ShardStats{Shard: sh.x.shard, Stats: d.stats}
		if d.partial {
			ss.Err = d.err.Error()
		}
		st.Shards = append(st.Shards, ss)
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
	st.ElapsedNS = s.sw.Elapsed()
}
