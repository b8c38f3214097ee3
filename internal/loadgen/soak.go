// soak.go is the chaos half of the harness: sustained queries racing shard
// reloads, live ingest commits, mid-stream client cancellations, and (via a
// caller-supplied hook) remote-endpoint kills and restarts. The soak does
// not check query results
// — corpus mutation makes them moving targets — it checks the protocol
// invariant that every stream ends in a terminal line and the server never
// wedges: a truncated stream or a stalled hook is a hard failure.
package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// SoakConfig drives one soak run.
type SoakConfig struct {
	// BaseURL is the server under soak.
	BaseURL string
	// Client is the HTTP client (default: fresh client, no timeout).
	Client *http.Client
	// Duration bounds the run.
	Duration time.Duration
	// Workers is the number of concurrent query loops (default 4).
	Workers int
	// Params builds the i-th query's parameters (i is a global counter).
	Params func(i int64) url.Values
	// CancelEvery cancels every n-th query's context shortly after dispatch,
	// aborting its stream mid-read (0 disables).
	CancelEvery int64
	// CancelAfter is how long a to-be-canceled query runs first (default
	// 2ms).
	CancelAfter time.Duration
	// Reload, when set, is called in its own loop every ReloadEvery
	// (default 50ms) — typically a POST to /collections/load swapping a
	// shard under the running queries.
	Reload      func(ctx context.Context, i int64) error
	ReloadEvery time.Duration
	// Chaos, when set, is called in its own loop every ChaosEvery (default
	// 300ms) — typically killing and restarting a remote shard endpoint.
	Chaos      func(ctx context.Context, i int64) error
	ChaosEvery time.Duration
	// Ingest, when set, is called in its own loop every IngestEvery (default
	// 30ms) — typically an append+commit batch through
	// /collections/{name}/ingest, racing the readers with live catalog
	// publishes (and WAL fsyncs when the server has a durable ingest dir).
	Ingest      func(ctx context.Context, i int64) error
	IngestEvery time.Duration
}

// SoakStats is a soak run's outcome.
type SoakStats struct {
	Queries     int64 // dispatched
	OK          int64 // full streams ending in stats
	CleanErrors int64 // refusals and error terminals — acceptable under chaos
	Canceled    int64 // aborted by the cancellation loop (transport errors)
	Truncated   int64 // broken streams: no terminal line, a contract breach, a transport error
	Reloads     int64
	ChaosRounds int64
	Ingests     int64
	// Failures holds the first few hard failures (truncations, hook
	// errors); empty means the soak passed.
	Failures []string
}

// addFailure records a bounded number of hard failures.
func (s *SoakStats) addFailure(mu *sync.Mutex, msg string) {
	mu.Lock()
	defer mu.Unlock()
	const maxFailures = 10
	if len(s.Failures) < maxFailures {
		s.Failures = append(s.Failures, msg)
	}
}

// Soak runs queries, reloads and chaos concurrently until Duration elapses
// (or ctx is canceled), then drains. The returned stats carry the verdict;
// the error is only for harness-level misuse.
func Soak(ctx context.Context, cfg SoakConfig) (*SoakStats, error) {
	if cfg.Params == nil {
		return nil, fmt.Errorf("loadgen: SoakConfig.Params is required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.CancelAfter <= 0 {
		cfg.CancelAfter = 2 * time.Millisecond
	}
	if cfg.ReloadEvery <= 0 {
		cfg.ReloadEvery = 50 * time.Millisecond
	}
	if cfg.ChaosEvery <= 0 {
		cfg.ChaosEvery = 300 * time.Millisecond
	}
	if cfg.IngestEvery <= 0 {
		cfg.IngestEvery = 30 * time.Millisecond
	}

	stats := &SoakStats{}
	var mu sync.Mutex
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	stop := time.AfterFunc(cfg.Duration, cancelRun)
	defer stop.Stop()

	var wg sync.WaitGroup
	var seq atomic.Int64
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for runCtx.Err() == nil {
				i := seq.Add(1) - 1
				atomic.AddInt64(&stats.Queries, 1)
				qctx, qcancel := context.WithCancel(runCtx)
				wantCancel := cfg.CancelEvery > 0 && i%cfg.CancelEvery == cfg.CancelEvery-1
				var abort *time.Timer
				if wantCancel {
					abort = time.AfterFunc(cfg.CancelAfter, qcancel)
				}
				res, err := StreamQuery(qctx, cfg.Client, cfg.BaseURL, cfg.Params(i))
				if abort != nil {
					abort.Stop()
				}
				switch {
				case err != nil && (qctx.Err() != nil || runCtx.Err() != nil):
					atomic.AddInt64(&stats.Canceled, 1)
				case err != nil:
					// A transport failure or a broken stream without a
					// cancellation: under chaos against the *frontend* this
					// is a hard failure — the server under soak must stay
					// reachable and keep the stream contract.
					atomic.AddInt64(&stats.Truncated, 1)
					stats.addFailure(&mu, fmt.Sprintf("query %d: %v", i, err))
				case res.Truncated():
					atomic.AddInt64(&stats.Truncated, 1)
					stats.addFailure(&mu, fmt.Sprintf("query %d: stream truncated after %d items", i, len(res.Items)))
				case res.OK():
					atomic.AddInt64(&stats.OK, 1)
				default:
					atomic.AddInt64(&stats.CleanErrors, 1)
				}
				qcancel()
			}
		}()
	}

	runLoop := func(every time.Duration, counter *int64, name string, f func(context.Context, int64) error) {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for i := int64(0); ; i++ {
			select {
			case <-runCtx.Done():
				return
			case <-tick.C:
			}
			if err := f(runCtx, i); err != nil {
				if runCtx.Err() != nil {
					return
				}
				stats.addFailure(&mu, fmt.Sprintf("%s %d: %v", name, i, err))
				continue
			}
			atomic.AddInt64(counter, 1)
		}
	}
	if cfg.Reload != nil {
		wg.Add(1)
		go runLoop(cfg.ReloadEvery, &stats.Reloads, "reload", cfg.Reload)
	}
	if cfg.Chaos != nil {
		wg.Add(1)
		go runLoop(cfg.ChaosEvery, &stats.ChaosRounds, "chaos", cfg.Chaos)
	}
	if cfg.Ingest != nil {
		wg.Add(1)
		go runLoop(cfg.IngestEvery, &stats.Ingests, "ingest", cfg.Ingest)
	}
	wg.Wait()
	return stats, nil
}
