// Command roxload is the open-loop load generator for roxserve: it offers a
// fixed arrival rate of weighted query classes (top-k, paginated window,
// aggregate, full scatter, cache-hit replay) against /v1/query, records
// per-class p50/p90/p99 in HDR-style histograms, samples the server's
// goroutine and heap health, and writes a machine-readable report (-out).
//
// Usage:
//
//	roxload -addr http://127.0.0.1:8080 -collection ppl -rate 200 -duration 10s -out report.json
//
// Soak mode trades the fixed-rate report for sustained chaos — concurrent
// queries, shard reloads through /collections/load, live ingest commits
// through /collections/{name}/ingest, and mid-stream client cancellations —
// and fails on any protocol violation (a stream without a terminal line, an
// unreachable frontend):
//
//	roxload -addr http://127.0.0.1:8080 -collection ppl -soak -duration 30s
//
// See the "Load harness and the perf gate" section of DESIGN.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the roxserve under load")
	coll := flag.String("collection", "ppl", "collection the query classes address")
	rate := flag.Float64("rate", 200, "total arrival rate, queries per second")
	duration := flag.Duration("duration", 10*time.Second, "length of the arrival phase")
	maxInFlight := flag.Int("max-inflight", 256, "in-flight cap; arrivals past it are dropped and counted")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	note := flag.String("note", "", "note stored in the report")
	soak := flag.Bool("soak", false, "run the chaos soak instead of the fixed-rate report")
	soakCancelEvery := flag.Int64("soak-cancel-every", 7, "soak: cancel every n-th query mid-stream (0 disables)")
	soakWorkers := flag.Int("soak-workers", 4, "soak: concurrent query loops")
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var err error
	if *soak {
		err = runSoak(ctx, *addr, *coll, *duration, *soakWorkers, *soakCancelEvery)
	} else {
		err = runLoad(ctx, *addr, *coll, *rate, *duration, *maxInFlight, *out, *note)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "roxload:", err)
		os.Exit(1)
	}
}

// classes are the weighted query populations the harness offers. The mix
// leans on the serving-relevant shapes: small ordered windows (top-k and
// pagination) dominate, full scatters are rare, and a repeated identical
// query keeps the plan cache hot.
func classes(coll string) []loadgen.Class {
	q := func(text string, extra ...string) func(int64) url.Values {
		return func(int64) url.Values {
			v := url.Values{}
			v.Set("q", text)
			for i := 0; i+1 < len(extra); i += 2 {
				v.Set(extra[i], extra[i+1])
			}
			return v
		}
	}
	c := func(body string) string {
		return `for $p in collection("` + coll + `")//person ` + body
	}
	return []loadgen.Class{
		{Name: "topk", Weight: 3, Params: q(c(`order by $p/salary descending return $p limit 10`))},
		{Name: "paginate", Weight: 3, Params: func(i int64) url.Values {
			v := url.Values{}
			v.Set("q", c(`order by $p/age return $p`))
			v.Set("limit", "10")
			v.Set("offset", strconv.FormatInt(10*(i%17), 10))
			return v
		}},
		{Name: "aggregate", Weight: 2, Params: q(c(`return sum($p/salary)`))},
		{Name: "scatter", Weight: 1, Params: q(c(`return $p limit 200`))},
		{Name: "replay", Weight: 3, Params: q(c(`order by $p/age return $p limit 5`))},
	}
}

func runLoad(ctx context.Context, addr, coll string, rate float64, duration time.Duration, maxInFlight int, out, note string) error {
	cfg := loadgen.Config{
		BaseURL:     addr,
		Rate:        rate,
		Duration:    duration,
		Classes:     classes(coll),
		MaxInFlight: maxInFlight,
	}
	rs, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}
	report := loadgen.BuildReport(cfg, rs)
	report.Note = note
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// runSoak drives the chaos harness against an external server: queries with
// periodic mid-stream cancels racing shard reloads through
// /collections/load and append+commit batches through the ingest endpoint
// (WAL-backed when the server runs with -waldir, so commits fsync under the
// readers). (Remote-endpoint kill/restart chaos needs control over the
// shard servers' listeners and lives in the in-process soak test, where the
// race detector can watch both sides.)
func runSoak(ctx context.Context, addr, coll string, duration time.Duration, workers int, cancelEvery int64) error {
	client := &http.Client{}
	stats, err := loadgen.Soak(ctx, loadgen.SoakConfig{
		BaseURL:     addr,
		Client:      client,
		Duration:    duration,
		Workers:     workers,
		CancelEvery: cancelEvery,
		Params: func(i int64) url.Values {
			v := url.Values{}
			v.Set("q", `for $p in collection("`+coll+`")//person order by $p/age return $p limit 20`)
			v.Set("offset", strconv.FormatInt(5*(i%13), 10))
			return v
		},
		Reload: func(ctx context.Context, i int64) error {
			return reloadShard(ctx, client, addr, coll, i)
		},
		Ingest: func(ctx context.Context, i int64) error {
			return ingestEntry(ctx, client, addr, i)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("soak: %d queries (%d ok, %d clean errors, %d canceled), %d reloads, %d ingests\n",
		stats.Queries, stats.OK, stats.CleanErrors, stats.Canceled, stats.Reloads, stats.Ingests)
	if len(stats.Failures) > 0 {
		for _, f := range stats.Failures {
			fmt.Fprintln(os.Stderr, "soak failure:", f)
		}
		return fmt.Errorf("%d hard failures (%d truncated streams)", len(stats.Failures), stats.Truncated)
	}
	return nil
}

// ingestEntry appends one audit entry to a soak-owned document through the
// live-ingest endpoint and commits it, so queries race incremental publishes
// (and WAL fsyncs when the server has a durable ingest dir). The document
// survives a server restart when -waldir is set — the CLI soak's
// kill-and-recover check counts its entries after a warm restart.
func ingestEntry(ctx context.Context, client *http.Client, addr string, i int64) error {
	frag := fmt.Sprintf(`<entry n="%d"/>`, i)
	if i == 0 {
		frag = `<soaklog><entry n="0"/></soaklog>`
	}
	u := addr + "/v1/collections/soak-log.xml/ingest?create=1"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(frag))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/xml")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var body struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		return fmt.Errorf("ingest status %d: %s", resp.StatusCode, body.Error)
	}
	return nil
}

// reloadShard swaps one soak-owned shard of the collection so queries race a
// catalog publish. The shard's content varies with i, so every reload is a
// real replacement, not a no-op.
func reloadShard(ctx context.Context, client *http.Client, addr, coll string, i int64) error {
	xml := fmt.Sprintf(`<people><person id="soak%d"><name>soak</name><age>%d</age><salary>%d</salary></person></people>`,
		i, 20+i%60, 1000+i%500)
	u := addr + "/v1/collections/load?" + url.Values{
		"name":   {coll},
		"shard":  {"soak.xml"},
		"create": {"1"},
	}.Encode()
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
	if resp.StatusCode != http.StatusOK {
		var body struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		return fmt.Errorf("reload status %d: %s", resp.StatusCode, body.Error)
	}
	return nil
}
