// Package conc holds the concurrency primitives the engine shares between
// executions.
//
// Limiter bounds concurrency. Both the query-admission pool (rox.Pool) and the
// scatter-gather shard executor gate work through a Limiter; because the shard
// executor's Limiter lives on the engine (not per query), a pooled query over
// an N-shard collection can never fan out to workers × shards goroutines —
// total in-flight shard evaluations stay bounded by one engine-wide cap.
//
// Recycler hands one execution's working memory to the next: the edge merges'
// scratch (internal/plan) and the hash join's build arrays (internal/ops). It
// holds what is handed back only weakly, so it never adds to the live heap.
package conc

import (
	"context"
	"fmt"
)

// Limiter is a counting semaphore with context-aware acquisition. The zero
// value is not usable; call NewLimiter.
type Limiter struct {
	sem chan struct{}
}

// NewLimiter returns a limiter admitting at most n concurrent holders
// (minimum 1).
func NewLimiter(n int) *Limiter {
	if n < 1 {
		n = 1
	}
	return &Limiter{sem: make(chan struct{}, n)}
}

// Cap returns the admission bound.
func (l *Limiter) Cap() int { return cap(l.sem) }

// InUse returns the number of currently held slots (a monitoring snapshot;
// it may be stale by the time the caller reads it).
func (l *Limiter) InUse() int { return len(l.sem) }

// Acquire takes a slot, honoring cancellation while waiting. An
// already-canceled context is rejected deterministically — select would
// otherwise admit it half the time when a slot is free, wasting a worker on
// work nobody is waiting for. Every successful Acquire must be paired with
// exactly one Release.
func (l *Limiter) Acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("conc: canceled while queued: %w", err)
	}
	select {
	case l.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("conc: canceled while queued: %w", ctx.Err())
	}
}

// TryAcquire takes a slot if one is free without blocking, reporting success.
func (l *Limiter) TryAcquire() bool {
	select {
	case l.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot taken by Acquire or TryAcquire.
func (l *Limiter) Release() { <-l.sem }
