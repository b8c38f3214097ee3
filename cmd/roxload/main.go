// Command roxload soaks a running roxserve: concurrent ordered, paginated
// queries over a people collection race shard reloads through
// /v1/collections/load, append+commit batches through
// /v1/collections/{doc}/ingest (WAL-backed when the server runs with
// -waldir, so commits fsync under the readers) and mid-stream client
// cancellations. It exits 1 on any protocol violation — a stream without a
// terminal line, an unreachable frontend, a failed reload or ingest — and
// on a soak that exercised nothing: no successful stream, reload, ingest or
// cancellation. Remote-endpoint kill/restart chaos needs control over the
// shard servers' listeners and lives in the in-process TestSoakChaos.
//
// Usage:
//
//	roxload -addr http://127.0.0.1:8080 -collection ppl -duration 30s
//
// scripts/soak_smoke.sh runs it against a fresh roxserve and then checks a
// kill -9 and warm restart on the same -waldir. See the "Load harness and
// the perf gate" section of DESIGN.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the roxserve under soak")
	coll := flag.String("collection", "ppl", "people collection the queries read and the reloads swap a shard of")
	duration := flag.Duration("duration", 10*time.Second, "how long the soak runs")
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	stats, err := loadgen.Soak(ctx, loadgen.SoakConfig{BaseURL: *addr, Collection: *coll, Duration: *duration})
	if err != nil {
		fmt.Fprintln(os.Stderr, "roxload:", err)
		os.Exit(1)
	}
	fmt.Println("soak:", stats)
	for _, f := range stats.Failures {
		fmt.Fprintln(os.Stderr, "soak failure:", f)
	}
	if len(stats.Failures) > 0 {
		os.Exit(1)
	}
}
