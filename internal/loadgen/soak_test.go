package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
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
// frontend never becomes unreachable, and no hook wedges — plus a
// kill-and-recover epilogue: a fresh engine replays the soak's WAL and must
// see every acknowledged ingest batch. ROX_SOAK=1 stretches the run for the
// nightly workflow.
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
	client := front.Client()

	stats, err := Soak(t.Context(), SoakConfig{
		BaseURL:     front.URL,
		Client:      client,
		Duration:    duration,
		Workers:     6,
		CancelEvery: 5,
		Params: func(i int64) url.Values {
			v := url.Values{}
			v.Set("q", `for $p in collection("ppl")//person order by $p/age return $p`)
			v.Set("limit", "15")
			v.Set("offset", strconv.FormatInt(5*(i%11), 10))
			return v
		},
		Reload: func(ctx context.Context, i int64) error {
			return postShard(ctx, client, front.URL, "ppl", "soak.xml",
				fmt.Sprintf(`<people><person id="s%d"><name>soak</name><age>%d</age><salary>%d</salary></person></people>`,
					i, 20+i%60, 1000+i%500))
		},
		ReloadEvery: 40 * time.Millisecond,
		Chaos: func(ctx context.Context, i int64) error {
			srvB.kill()
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(40 * time.Millisecond):
			}
			return srvB.restart()
		},
		ChaosEvery: 250 * time.Millisecond,
		Ingest: func(ctx context.Context, i int64) error {
			frag := fmt.Sprintf(`<entry n="%d"/>`, i)
			if i == 0 {
				frag = `<log><entry n="0"/></log>`
			}
			return postIngest(ctx, client, front.URL, "ingest-log.xml", frag)
		},
		IngestEvery: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range stats.Failures {
		t.Error("soak failure:", f)
	}
	if stats.OK == 0 {
		t.Error("no fully successful streams during soak")
	}
	if stats.Reloads == 0 {
		t.Error("no shard reloads landed")
	}
	if stats.ChaosRounds == 0 {
		t.Error("no chaos kill/restart rounds completed")
	}
	if stats.Canceled == 0 {
		t.Error("no queries were canceled mid-stream")
	}
	if stats.Ingests == 0 {
		t.Error("no ingest batches were committed")
	}
	t.Logf("soak: %d queries — %d ok, %d clean errors, %d canceled, %d truncated; %d reloads, %d chaos rounds, %d ingests",
		stats.Queries, stats.OK, stats.CleanErrors, stats.Canceled, stats.Truncated, stats.Reloads, stats.ChaosRounds, stats.Ingests)

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
	rows, err := recovered.Execute(t.Context(), rox.Request{Query: `for $e in doc("ingest-log.xml")//entry return count($e)`})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprint(replayed); len(res.Items) != 1 || res.Items[0] != want {
		t.Errorf("recovered ingest-log.xml holds %v entries, want [%s]", res.Items, want)
	}
}

// postIngest appends one fragment to a document through the ingest endpoint
// and commits it (the endpoint commits per request).
func postIngest(ctx context.Context, client *http.Client, base, target, xml string) error {
	u := base + "/v1/collections/" + url.PathEscape(target) + "/ingest?create=1"
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
		return fmt.Errorf("ingest status %d: %s", resp.StatusCode, body.Error)
	}
	return nil
}

// postShard swaps one shard of a collection over the load endpoint.
func postShard(ctx context.Context, client *http.Client, base, coll, shard, xml string) error {
	u := base + "/v1/collections/load?" + url.Values{
		"name":   {coll},
		"shard":  {shard},
		"create": {"1"},
	}.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(xml))
	if err != nil {
		return err
	}
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
