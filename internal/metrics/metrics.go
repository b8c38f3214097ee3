// Package metrics provides lightweight cost accounting shared by all physical
// operators. ROX's evaluation distinguishes work done while *sampling* (the
// optimizer probing candidate operators) from work done while *executing* the
// chosen operators; every operator charges its tuple work to the current
// phase of a Recorder.
//
// The cost unit is the tuple: a deterministic work unit (one input or output
// tuple touched by an operator). It is platform independent and is what the
// paper's cost column in Table 1 describes. Wall-clock time is measured where
// it is reported, with a Stopwatch.
package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Phase labels which side of the optimize/execute divide work is charged to.
type Phase int

const (
	// PhaseExecute is work that any plan executing the query would do.
	PhaseExecute Phase = iota
	// PhaseSample is optimizer overhead: index counting, drawing samples,
	// cut-off operator probes during weighing and chain sampling.
	PhaseSample
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseExecute:
		return "execute"
	case PhaseSample:
		return "sample"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Cost is an accumulated amount of work.
type Cost struct {
	Tuples int64 // deterministic work units (tuples touched)
}

// Add accumulates other into c.
func (c *Cost) Add(other Cost) { c.Tuples += other.Tuples }

// Sub returns c minus other.
func (c Cost) Sub(other Cost) Cost { return Cost{Tuples: c.Tuples - other.Tuples} }

// String renders the cost compactly.
func (c Cost) String() string { return fmt.Sprintf("{tuples=%d}", c.Tuples) }

// Recorder accumulates cost per phase. The zero value is ready to use and
// charges to PhaseExecute. Recorder is deliberately lock-free and therefore
// not safe for concurrent use: every query evaluation owns exactly one (the
// per-query plan.Env carries it), and the query reports what it charged in
// its Stats — the one figure an Aggregator adds up across queries.
//
// Every operator is handed its evaluation's Recorder, so the Recorder also
// carries the evaluation's cancellation hook: an operator loop that produces
// many tuples polls it once per PollEvery of them (Poll) and stops early when
// it fails, leaving its caller to return the error (Stopped).
type Recorder struct {
	phase Phase
	costs [2]Cost

	// Interrupt, when non-nil, is the evaluation's cancellation hook; a
	// non-nil return aborts the evaluation with that error. Context-based
	// cancellation plugs in here (ctx.Err).
	Interrupt func() error
	stopped   error // the first error Interrupt returned
}

// PollEvery is how many tuples an operator loop produces between two polls
// of its Recorder's Interrupt: often enough that a deadline stops a large
// join within milliseconds, rarely enough that the polls do not show.
const PollEvery = 4096

// NewRecorder returns a Recorder charging to PhaseExecute.
func NewRecorder() *Recorder { return &Recorder{} }

// Phase returns the currently active phase.
func (r *Recorder) Phase() Phase { return r.phase }

// SetPhase switches the active phase and returns the previous one, so callers
// can restore it with defer:
//
//	prev := rec.SetPhase(metrics.PhaseSample)
//	defer rec.SetPhase(prev)
func (r *Recorder) SetPhase(p Phase) Phase {
	prev := r.phase
	r.phase = p
	return prev
}

// ChargeTuples records n tuple work units against the active phase.
func (r *Recorder) ChargeTuples(n int) {
	if r == nil {
		return
	}
	r.costs[r.phase].Tuples += int64(n)
}

// CheckInterrupt polls Interrupt and returns its error, or nil when no hook
// is installed. The first error is latched: later calls, and Stopped, return
// it without polling again.
func (r *Recorder) CheckInterrupt() error {
	if r == nil {
		return nil
	}
	if r.stopped == nil && r.Interrupt != nil {
		r.stopped = r.Interrupt()
	}
	return r.stopped
}

// Poll is the long loops' interrupt check: once a loop's count of tuples n
// has reached *next it polls (CheckInterrupt) and moves *next on by
// PollEvery. It reports whether the loop must stop. A loop starts with
// *next = PollEvery, so a short one never polls.
func (r *Recorder) Poll(n int, next *int) bool {
	if n < *next {
		return false
	}
	*next = n + PollEvery
	return r.CheckInterrupt() != nil
}

// Stopped returns the error a CheckInterrupt poll latched, or nil, without
// polling. An operator a poll stopped early returns partial output; its
// caller checks Stopped and returns the error instead of using it.
func (r *Recorder) Stopped() error {
	if r == nil {
		return nil
	}
	return r.stopped
}

// CostOf returns the accumulated cost of phase p.
func (r *Recorder) CostOf(p Phase) Cost {
	if r == nil {
		return Cost{}
	}
	return r.costs[p]
}

// Total returns the combined cost of all phases.
func (r *Recorder) Total() Cost {
	if r == nil {
		return Cost{}
	}
	t := r.costs[PhaseExecute]
	t.Add(r.costs[PhaseSample])
	return t
}

// Aggregator adds up the costs that finished queries report. Unlike
// Recorder it is safe for concurrent use: a query server observes each
// finished query into one shared Aggregator and reports fleet totals from it.
type Aggregator struct {
	mu      sync.Mutex
	queries int64
	errors  int64
	costs   [2]Cost
}

// Observe counts one finished query that reported exec execution and sample
// sampling tuples.
func (a *Aggregator) Observe(exec, sample int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queries++
	a.costs[PhaseExecute].Tuples += exec
	a.costs[PhaseSample].Tuples += sample
}

// ObserveError counts a failed query.
func (a *Aggregator) ObserveError() {
	a.mu.Lock()
	a.errors++
	a.mu.Unlock()
}

// Queries returns the number of observed queries (errors excluded).
func (a *Aggregator) Queries() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queries
}

// Errors returns the number of observed failed queries.
func (a *Aggregator) Errors() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.errors
}

// CostOf returns the aggregated cost of phase p.
func (a *Aggregator) CostOf(p Phase) Cost {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.costs[p]
}

// CacheCounters is the concurrency-safe event accounting of a plan cache:
// exact hits, stale-generation hits that revalidated, misses, drift
// invalidations, evictions and installs. It lives in metrics (next to the
// Recorder/Aggregator family) so servers can report cache behavior alongside
// tuple costs; the plan cache itself owns one and bumps it on every lookup.
type CacheCounters struct {
	hits, staleHits, misses, drifts, evictions, installs, invalidations atomic.Int64
}

// Hit counts an exact (fingerprint, generation) cache hit.
func (c *CacheCounters) Hit() { c.hits.Add(1) }

// StaleHit counts a same-fingerprint lookup hit from an older catalog
// generation. The replay-and-verify that follows may still drift (counted
// separately via Drift), so a stale hit is not necessarily a served result —
// HitRate accounts for that.
func (c *CacheCounters) StaleHit() { c.staleHits.Add(1) }

// Miss counts a lookup that found no usable entry.
func (c *CacheCounters) Miss() { c.misses.Add(1) }

// Drift counts an entry invalidated because a replay's observed
// cardinalities drifted from its expectations.
func (c *CacheCounters) Drift() { c.drifts.Add(1) }

// Eviction counts an entry dropped by the LRU capacity bound.
func (c *CacheCounters) Eviction() { c.evictions.Add(1) }

// Install counts a plan installed (or replaced) in the cache.
func (c *CacheCounters) Install() { c.installs.Add(1) }

// Invalidation counts an entry removed because its replay failed against a
// freshly compiled graph (distinct from drift, which is a cardinality
// verdict on a successful replay).
func (c *CacheCounters) Invalidation() { c.invalidations.Add(1) }

// CacheSnapshot is a point-in-time copy of a CacheCounters.
type CacheSnapshot struct {
	Hits, StaleHits, Misses, Drifts, Evictions, Installs, Invalidations int64
}

// Snapshot returns a consistent-enough copy of the counters (each counter is
// read atomically; the set is not a single atomic cut, which is fine for
// monitoring).
func (c *CacheCounters) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:          c.hits.Load(),
		StaleHits:     c.staleHits.Load(),
		Misses:        c.misses.Load(),
		Drifts:        c.drifts.Load(),
		Evictions:     c.evictions.Load(),
		Installs:      c.installs.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// HitRate returns the fraction of lookups actually served from the cache:
// exact hits plus stale-generation hits, minus the lookups that found an
// entry but fell back to a full optimizer run anyway — drifted replays and
// replay-failure invalidations — over total lookups. 0 before any lookup.
func (s CacheSnapshot) HitRate() float64 {
	total := s.Hits + s.StaleHits + s.Misses
	if total == 0 {
		return 0
	}
	served := s.Hits + s.StaleHits - s.Drifts - s.Invalidations
	if served < 0 {
		served = 0
	}
	return float64(served) / float64(total)
}

// Stopwatch measures wall-clock time from Start:
//
//	sw := metrics.Start()
//	... do work ...
//	elapsed := sw.Elapsed()
type Stopwatch struct{ t0 time.Time }

// Start begins timing.
func Start() Stopwatch { return Stopwatch{t0: time.Now()} }

// Elapsed reports time since Start.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.t0) }
