package loadgen

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
)

// restartableServer is an HTTP server on a fixed loopback port that chaos
// can kill (dropping live connections) and rebind, like a crashing and
// recovering shard replica.
type restartableServer struct {
	addr    string
	handler http.Handler
	mu      sync.Mutex
	srv     *http.Server
}

func newRestartableServer(t *testing.T, handler http.Handler) *restartableServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &restartableServer{addr: ln.Addr().String(), handler: handler}
	rs.start(ln)
	t.Cleanup(rs.kill)
	return rs
}

func (r *restartableServer) start(ln net.Listener) {
	srv := &http.Server{Handler: r.handler}
	r.mu.Lock()
	r.srv = srv
	r.mu.Unlock()
	go srv.Serve(ln)
}

// kill closes the listener and every live connection.
func (r *restartableServer) kill() {
	r.mu.Lock()
	srv := r.srv
	r.srv = nil
	r.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// restart rebinds the original port (retrying briefly — the OS may lag the
// close) and serves again.
func (r *restartableServer) restart() error {
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		ln, err = net.Listen("tcp", r.addr)
		if err == nil {
			r.start(ln)
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("rebind %s: %w", r.addr, err)
}

// TestSoakChaos is the serving-grade stress contract, designed to run under
// -race: a loopback coordinator+shard cluster soaked with concurrent
// queries, mid-stream client cancellations, shard reloads through
// /collections/load, live ingest commits through /collections/{name}/ingest
// (WAL-backed, so every commit fsyncs under the readers), and one shard
// endpoint being killed and restarted. The pass condition is protocol
// integrity, not results: every 200-stream ends in a terminal line, the
// frontend never becomes unreachable, no hook wedges and every loop landed
// (Soak's own verdict) — plus a kill-and-recover epilogue: a fresh engine
// replays the soak's WAL and must see every acknowledged ingest batch.
// ROX_SOAK=1 stretches the run for the nightly workflow.
func TestSoakChaos(t *testing.T) {
	duration := 1500 * time.Millisecond
	if os.Getenv("ROX_SOAK") != "" {
		duration = 30 * time.Second
	}

	// Two shard servers, two shards each; B is the chaos victim.
	mkShardServer := func(base int) http.Handler {
		eng := rox.NewEngine(rox.WithSeed(1))
		for s := 0; s < 2; s++ {
			name := fmt.Sprintf("ppl-%d.xml", base+s)
			if err := eng.LoadSource(rox.FromXML(name, peopleXML((base+s)*50, 50))); err != nil {
				t.Fatal(err)
			}
		}
		return serve.New(rox.NewPool(eng, 4), serve.Config{Role: "shard"})
	}
	srvA := httptest.NewServer(mkShardServer(0))
	t.Cleanup(srvA.Close)
	srvB := newRestartableServer(t, mkShardServer(2))

	// The coordinator degrades to partial results while B is down — a
	// failing replica must soften a search result, not break the frontend.
	coord := rox.NewEngine(rox.WithSeed(1), rox.WithShardRetry(rox.ShardRetryThenPartial))
	err := coord.LoadCollectionRemote(t.Context(), "ppl", []rox.Endpoint{
		{URL: srvA.URL, Shards: []string{"ppl-0.xml", "ppl-1.xml"}},
		{URL: "http://" + srvB.addr, Shards: []string{"ppl-2.xml", "ppl-3.xml"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	if _, err := coord.OpenIngestDir(walDir); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(serve.New(rox.NewPool(coord, 8), serve.Config{}))
	t.Cleanup(front.Close)

	stats, err := Soak(t.Context(), SoakConfig{
		BaseURL:    front.URL,
		Collection: "ppl",
		Duration:   duration,
		Chaos: func(ctx context.Context, i int64) error {
			srvB.kill()
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(40 * time.Millisecond):
			}
			return srvB.restart()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range stats.Failures {
		t.Error("soak failure:", f)
	}
	t.Log("soak:", stats)

	// Kill-and-recover: drop the soaked engine, replay its WAL into a fresh
	// one. Every acknowledged commit must be there — an HTTP 200 from the
	// ingest endpoint is a durability promise — and the recovered document
	// must hold exactly one entry per replayed batch. (Replay may exceed the
	// acknowledged count: a batch committed while its response was in flight
	// at shutdown is durable but uncounted.)
	front.Close()
	if err := coord.Ingest().Close(); err != nil {
		t.Fatal(err)
	}
	recovered := rox.NewEngine(rox.WithSeed(1))
	replayed, err := recovered.OpenIngestDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if int64(replayed) < stats.Ingests {
		t.Errorf("recovery replayed %d batches, but %d ingests were acknowledged", replayed, stats.Ingests)
	}
	rows, err := recovered.Execute(t.Context(), rox.Request{Query: `for $e in doc("` + IngestDoc + `")//entry return count($e)`})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprint(replayed); len(res.Items) != 1 || res.Items[0] != want {
		t.Errorf("recovered %s holds %v entries, want [%s]", IngestDoc, res.Items, want)
	}
}

// peopleXML builds one deterministic people shard.
func peopleXML(base, n int) string {
	var sb strings.Builder
	sb.WriteString("<people>")
	for i := 0; i < n; i++ {
		id := base + i
		fmt.Fprintf(&sb, `<person id="p%05d"><name>n%d</name><age>%d</age><salary>%d</salary></person>`,
			id, id, 20+(id*7)%50, 1000+(id*37)%900)
	}
	sb.WriteString("</people>")
	return sb.String()
}

// fakeServer answers the soak's reloads and ingests with 200 and hands the
// n-th query (from 0) to query.
func fakeServer(t *testing.T, query func(w http.ResponseWriter, n int64)) *httptest.Server {
	t.Helper()
	var queries atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/query", func(w http.ResponseWriter, r *http.Request) {
		query(w, queries.Add(1)-1)
	})
	mux.HandleFunc("POST /v1/collections/", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("{}\n"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestSoakFailsWhenEveryQueryIsRefused: a server that refuses every query —
// or a soak aimed at a collection it does not hold — answers each with a
// clean error, and reloads and ingests still land. That soak exercised no
// stream, so it fails.
func TestSoakFailsWhenEveryQueryIsRefused(t *testing.T) {
	ts := fakeServer(t, func(w http.ResponseWriter, _ int64) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"unknown collection \"ppl\""}` + "\n"))
	})
	stats, err := Soak(t.Context(), SoakConfig{BaseURL: ts.URL, Collection: "ppl", Duration: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OK != 0 || stats.CleanErrors == 0 || stats.Reloads == 0 || stats.Ingests == 0 {
		t.Fatalf("soak against a refusing server: %v", stats)
	}
	if !slices.Contains(stats.Failures, "no fully successful streams during the soak") {
		t.Errorf("soak with no successful stream passed; failures: %q", stats.Failures)
	}
}

// TestSoakCountsTruncatedStreams: a 200 stream that ends without a terminal
// line breaks the stream contract, so the soak counts it as truncated and
// fails, although every other stream succeeds.
func TestSoakCountsTruncatedStreams(t *testing.T) {
	ts := fakeServer(t, func(w http.ResponseWriter, n int64) {
		_, _ = w.Write([]byte(`{"item":"<person/>"}` + "\n"))
		if n%3 != 2 {
			_, _ = w.Write([]byte(`{"stats":{"rows":1}}` + "\n"))
		}
	})
	stats, err := Soak(t.Context(), SoakConfig{BaseURL: ts.URL, Collection: "ppl", Duration: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated == 0 || stats.OK == 0 {
		t.Errorf("every third stream truncated: %v", stats)
	}
	if !slices.ContainsFunc(stats.Failures, func(f string) bool { return strings.Contains(f, "stream truncated") }) {
		t.Errorf("truncated streams were not hard failures; failures: %q", stats.Failures)
	}
}
