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

// TestClientKeepsConnection: a refused query is read to its end before its
// body closes, and so is a successful stream, so sequential calls of either
// kind share one keep-alive connection instead of dialing one each.
func TestClientKeepsConnection(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/query", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("q") != "ok" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			chunked(w, `{"error":"parse error"}`)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write([]byte(`{"item":"<a/>"}` + "\n"))
		chunked(w, `{"stats":{"rows":1}}`)
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
			t.Fatalf("refused query %d: %+v, %v", i, res, err)
		}
		res, err = StreamQuery(ctx, client, ts.URL, url.Values{"q": {"ok"}})
		if err != nil || !res.OK() || len(res.Items) != 1 {
			t.Fatalf("query %d: %+v, %v", i, res, err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("%d sequential refusals and streams opened %d connections, want 1", 2*n, got)
	}
}

// TestStreamQueryRejectsBrokenStreams: the reader enforces the stream
// contract, so a harness never counts a broken response as a success or a
// clean refusal — a line after the terminal stats line, a line with no item,
// stats or error member, and a refusal without an {"error"} envelope are each
// an error. A well-formed stream reads to its items and its terminal.
func TestStreamQueryRejectsBrokenStreams(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		body   string
	}{
		{"item after stats", http.StatusOK, `{"item":"<a/>"}` + "\n" + `{"stats":{"rows":1}}` + "\n" + `{"item":"<b/>"}` + "\n"},
		{"unknown line", http.StatusOK, `{"item":"<a/>"}` + "\n" + `{"x":1}` + "\n" + `{"stats":{"rows":1}}` + "\n"},
		{"refusal without envelope", http.StatusServiceUnavailable, "service unavailable\n"},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(tc.status)
			_, _ = w.Write([]byte(tc.body))
		}))
		res, err := StreamQuery(context.Background(), ts.Client(), ts.URL, url.Values{"q": {"q"}})
		ts.Close()
		if err == nil {
			t.Errorf("%s: accepted as %+v, want an error", tc.name, res)
		}
	}

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"item":"<a/>"}` + "\n" + `{"item":"<b/>"}` + "\n" + `{"stats":{"rows":2}}` + "\n"))
	}))
	defer ts.Close()
	res, err := StreamQuery(context.Background(), ts.Client(), ts.URL, url.Values{"q": {"q"}})
	if err != nil || !res.OK() || len(res.Items) != 2 || res.Items[0] != "<a/>" || res.Items[1] != "<b/>" {
		t.Errorf("well-formed stream: %+v, %v", res, err)
	}
}
