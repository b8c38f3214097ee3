package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/testutil"
)

// chunked writes a JSON value and, a moment later, its encoder's newline as
// a chunk of its own — as when a body outgrows the server's response buffer:
// a decoder that returns after the value leaves the rest of the body unread.
func chunked(w http.ResponseWriter, v string) {
	_, _ = w.Write([]byte(v))
	w.(http.Flusher).Flush()
	time.Sleep(time.Millisecond)
	_, _ = w.Write([]byte("\n"))
}

// TestClientKeepsConnection: a refused query and a /v1/stats sample are read
// to their end before their bodies close, so sequential calls share one
// keep-alive connection instead of dialing one each.
func TestClientKeepsConnection(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/query", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		chunked(w, `{"error":"parse error"}`)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		chunked(w, `{"goroutines":7,"heap_bytes":1024}`)
	})
	ts := httptest.NewUnstartedServer(mux)
	conns := testutil.CountConns(ts)
	ts.Start()
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	const n = 10
	ctx := context.Background()
	for i := range n {
		res, err := StreamQuery(ctx, client, ts.URL, url.Values{"q": {"for"}})
		if err != nil || res.Status != http.StatusBadRequest || res.ErrMsg != "parse error" {
			t.Fatalf("query %d: %+v, %v", i, res, err)
		}
		h, err := FetchHealth(ctx, client, ts.URL)
		if err != nil || h.Goroutines != 7 {
			t.Fatalf("health %d: %+v, %v", i, h, err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("%d sequential refusals and health samples opened %d connections, want 1", 2*n, got)
	}
}
