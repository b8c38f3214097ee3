package rox

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/conc"
	"repro/internal/metrics"
)

// Pool is a bounded-concurrency front end over one shared Engine: at most
// Workers queries evaluate at a time, further callers wait (or bail out when
// their context is canceled). Because an Engine is safe for concurrent
// queries, the pool adds no locking around evaluation — it only bounds how
// many run simultaneously, which keeps a query server's memory footprint
// proportional to the worker count instead of the request count.
//
// Admission runs through the same conc.Limiter primitive that bounds the
// engine's scatter-gather shard fan-out. The two limits compose instead of
// multiplying: a pooled query over an N-shard collection holds one pool slot
// while its shard evaluations contend on the engine-wide shard limiter, so
// total shard evaluations stay bounded by the engine's cap no matter how many
// pool workers scatter at once.
//
// Execute returns a streaming cursor whose admission slot stays held until
// the cursor finishes — exhaustion, failure, Close, or (for a cursor leaked
// without Close) the runtime cleanup that garbage collection triggers — so a
// slow or abandoned consumer cannot grow the pool past its bound, and a
// leaked cursor cannot shrink it permanently.
//
// The pool also adds each finished query's Stats into a shared
// metrics.Aggregator, giving servers fleet-wide statistics for free. A
// query's Stats count everything it paid for — local and remote shards, a
// drifted replay, an abandoned bounded run — so the fleet totals do too.
type Pool struct {
	eng *Engine
	lim *conc.Limiter
	agg metrics.Aggregator
}

// NewPool returns a pool over eng admitting at most workers concurrent
// queries; workers <= 0 defaults to GOMAXPROCS.
func NewPool(eng *Engine, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{eng: eng, lim: conc.NewLimiter(workers)}
}

// Engine returns the underlying engine (for loading documents).
func (p *Pool) Engine() *Engine { return p.eng }

// Workers returns the admission bound.
func (p *Pool) Workers() int { return p.lim.Cap() }

// Aggregator returns the pool's shared cost aggregate across all finished
// queries.
func (p *Pool) Aggregator() *metrics.Aggregator { return &p.agg }

// acquire takes a worker slot, honoring cancellation while waiting. The
// limiter's error wraps ctx.Err(), so errors.Is(err, context.Canceled) holds
// for callers (and HTTP layers mapping cancellation to 503).
func (p *Pool) acquire(ctx context.Context) error {
	if err := p.lim.Acquire(ctx); err != nil {
		return fmt.Errorf("rox: queued query canceled: %w", err)
	}
	return nil
}

func (p *Pool) release() { p.lim.Release() }

// Execute evaluates a Request on a pool worker and returns its streaming
// cursor, waiting for a free slot if all are busy — Engine.Execute behind an
// admission slot, so a Request{Prepared: p} runs the statement (prepared on
// this pool's engine) with no recompilation. The slot is released when the
// cursor finishes — drain it or Close it; an un-Closed cursor that gets
// garbage collected releases the slot through its leak cleanup. ctx cancels
// the wait, the evaluation and the stream.
func (p *Pool) Execute(ctx context.Context, req Request) (*Rows, error) {
	if err := p.acquire(ctx); err != nil {
		return nil, err
	}
	return p.adopt(p.eng.Execute(ctx, req))
}

// adopt ties an Execute outcome to the already-held admission slot: failures
// release it immediately, cursors carry it until they finish, at which point
// the query's final Stats add to the pool aggregate.
func (p *Pool) adopt(rows *Rows, err error) (*Rows, error) {
	if err != nil {
		p.agg.ObserveError()
		p.release()
		return nil, err
	}
	rows.c.onFinish(func(st Stats, ferr error) {
		if ferr != nil {
			p.agg.ObserveError()
		} else {
			p.agg.Observe(st.ExecTuples, st.SampleTuples)
		}
		p.release()
	})
	return rows, nil
}
