// Package loadgen is the chaos soak behind cmd/roxload and TestSoakChaos:
// sustained queries racing shard reloads, live ingest commits, mid-stream
// client cancellations and (through a caller-supplied hook) remote-endpoint
// kills and restarts. It also holds the one strict NDJSON reader,
// StreamQuery, which the soak and internal/scenario's runner share. See the
// "Load harness and the perf gate" section of DESIGN.md.
//
// The soak does not check query results — corpus mutation makes them moving
// targets — it checks the protocol invariant that every stream ends in a
// terminal line and the server never wedges: a truncated stream or a failed
// reload or ingest is a hard failure. A soak in which no stream succeeded, or
// no reload, ingest, cancellation or chaos round landed, fails too: it
// exercised nothing.
package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// IngestDoc is the document the soak appends its <entry n="…"/> batches to
// through the ingest endpoint. It survives a restart of a server with a
// durable ingest directory, so a kill-and-recover check counts its entries
// (TestSoakChaos, scripts/soak_smoke.sh).
const IngestDoc = "soak-log.xml"

// The soak's fixed shape: query loops, how often a query is canceled
// mid-stream and how long it runs first, and the periods of the reload,
// ingest and chaos loops.
const (
	soakWorkers = 4
	cancelEvery = 7
	cancelAfter = 2 * time.Millisecond
	reloadEvery = 50 * time.Millisecond
	ingestEvery = 30 * time.Millisecond
	chaosEvery  = 300 * time.Millisecond
	maxFailures = 10
)

// SoakConfig drives one soak run.
type SoakConfig struct {
	// BaseURL is the server under soak.
	BaseURL string
	// Collection is the sharded people collection the queries read and the
	// reloads swap a soak.xml shard of.
	Collection string
	// Duration bounds the run.
	Duration time.Duration
	// Chaos, when set, is called in its own loop — typically killing and
	// restarting a remote shard endpoint behind BaseURL.
	Chaos func(ctx context.Context, i int64) error
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
	// errors) and the soak's vacuity verdicts; empty means the soak passed.
	Failures []string
}

// String is the counters on one line.
func (s *SoakStats) String() string {
	return fmt.Sprintf("%d queries (%d ok, %d clean errors, %d canceled, %d truncated), %d reloads, %d ingests, %d chaos rounds",
		s.Queries, s.OK, s.CleanErrors, s.Canceled, s.Truncated, s.Reloads, s.Ingests, s.ChaosRounds)
}

// addFailure records a bounded number of hard failures.
func (s *SoakStats) addFailure(mu *sync.Mutex, msg string) {
	mu.Lock()
	defer mu.Unlock()
	if len(s.Failures) < maxFailures {
		s.Failures = append(s.Failures, msg)
	}
}

// Soak runs queries, reloads, ingests and chaos concurrently until Duration
// elapses (or ctx is canceled), then drains. The returned stats carry the
// verdict; the error is only for harness-level misuse.
func Soak(ctx context.Context, cfg SoakConfig) (*SoakStats, error) {
	if cfg.Collection == "" {
		return nil, fmt.Errorf("loadgen: SoakConfig.Collection is required")
	}
	// A transport of its own, so the soak leaves no idle connection behind.
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	stats := &SoakStats{}
	var mu sync.Mutex
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	stop := time.AfterFunc(cfg.Duration, cancelRun)
	defer stop.Stop()

	var wg sync.WaitGroup
	var seq atomic.Int64
	for range soakWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for runCtx.Err() == nil {
				i := seq.Add(1) - 1
				atomic.AddInt64(&stats.Queries, 1)
				qctx, qcancel := context.WithCancel(runCtx)
				var abort *time.Timer
				if i%cancelEvery == cancelEvery-1 {
					abort = time.AfterFunc(cancelAfter, qcancel)
				}
				res, err := StreamQuery(qctx, client, cfg.BaseURL, queryParams(cfg.Collection, i))
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
	wg.Add(2)
	go runLoop(reloadEvery, &stats.Reloads, "reload", func(ctx context.Context, i int64) error {
		return post(ctx, client, cfg.BaseURL+"/v1/collections/load?"+url.Values{
			"name":   {cfg.Collection},
			"shard":  {"soak.xml"},
			"create": {"1"},
		}.Encode(), reloadXML(i))
	})
	go runLoop(ingestEvery, &stats.Ingests, "ingest", func(ctx context.Context, i int64) error {
		return post(ctx, client, cfg.BaseURL+"/v1/collections/"+IngestDoc+"/ingest?create=1", ingestXML(i))
	})
	if cfg.Chaos != nil {
		wg.Add(1)
		go runLoop(chaosEvery, &stats.ChaosRounds, "chaos", cfg.Chaos)
	}
	wg.Wait()

	// The vacuity verdict: a soak that never completed a stream, or in
	// which a loop never landed, proved nothing about the server.
	for _, c := range []struct {
		n    int64
		what string
	}{
		{stats.OK, "fully successful streams"},
		{stats.Reloads, "shard reloads"},
		{stats.Ingests, "ingest commits"},
		{stats.Canceled, "mid-stream cancellations"},
	} {
		if c.n == 0 {
			stats.Failures = append(stats.Failures, "no "+c.what+" during the soak")
		}
	}
	if cfg.Chaos != nil && stats.ChaosRounds == 0 {
		stats.Failures = append(stats.Failures, "no chaos rounds completed during the soak")
	}
	return stats, nil
}

// queryParams is the i-th query: an ordered window over the collection whose
// offset walks the result, so the workers read different pages.
func queryParams(coll string, i int64) url.Values {
	return url.Values{
		"q":      {`for $p in collection("` + coll + `")//person order by $p/age return $p limit 20`},
		"offset": {strconv.FormatInt(5*(i%13), 10)},
	}
}

// reloadXML is the i-th soak.xml shard. Its content varies with i, so every
// reload is a real replacement that queries race, not a no-op.
func reloadXML(i int64) string {
	return fmt.Sprintf(`<people><person id="soak%d"><name>soak</name><age>%d</age><salary>%d</salary></person></people>`,
		i, 20+i%60, 1000+i%500)
}

// ingestXML is the i-th batch appended to IngestDoc: the first creates it.
func ingestXML(i int64) string {
	if i == 0 {
		return `<soaklog><entry n="0"/></soaklog>`
	}
	return fmt.Sprintf(`<entry n="%d"/>`, i)
}

// post sends one XML body and reads the answer to its end, so the connection
// is kept; anything but 200 is an error carrying the server's message.
func post(ctx context.Context, client *http.Client, u, xml string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(xml))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/xml")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	_ = readSmall(resp.Body, &body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body.Error)
	}
	return nil
}
