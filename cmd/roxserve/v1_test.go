package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro"
	"repro/internal/serve"
	"repro/internal/shardrpc"
)

// TestV1Aliases: /v1/ is the only route namespace — every endpoint answers
// under the prefix and its once-aliased unprefixed path is gone.
func TestV1Aliases(t *testing.T) {
	ts := testServer(t)
	paths := []string{
		"/healthz",
		"/stats",
		"/cache",
		"/collections",
		"/shards",
		"/query?q=" + url.QueryEscape(`for $p in doc("people.xml")//person/name return $p`),
	}
	for _, p := range paths {
		for prefix, want := range map[string]int{"": http.StatusNotFound, "/v1": http.StatusOK} {
			resp, err := http.Get(ts.URL + prefix + p)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("GET %s%s: status %d, want %d", prefix, p, resp.StatusCode, want)
			}
		}
	}
}

// TestShardRole: the shard role serves the shard-execution and observability
// surface but not /query — a shard server is not a client-facing query
// endpoint.
func TestShardRole(t *testing.T) {
	eng := rox.NewEngine(rox.WithSeed(7))
	if err := eng.LoadSource(rox.FromXML("people.xml", peopleXML)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(rox.NewPool(eng, 2), 1<<20, "", "shard"))
	t.Cleanup(ts.Close)

	for _, p := range []string{"/query?q=x", "/v1/query?q=x"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on a shard server: status %d, want 404", p, resp.StatusCode)
		}
	}
	out := getJSON(t, ts.URL+"/v1/healthz", http.StatusOK)
	if out["status"] != "ok" {
		t.Errorf("shard-role healthz = %v", out["status"])
	}
	var inv shardrpc.ShardList
	resp, err := http.Get(ts.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	if len(inv.Shards) != 1 || inv.Shards[0].Name != "people.xml" || inv.Shards[0].Generation == 0 {
		t.Errorf("shard inventory = %+v", inv.Shards)
	}
}

// TestCoordinatorOverShardServer is the two-process cluster in miniature: a
// shard-server handler serves documents, a coordinator engine registers them
// as a remote collection, and a coordinator handler answers /v1/query with
// the scattered result.
func TestCoordinatorOverShardServer(t *testing.T) {
	shardEng := rox.NewEngine(rox.WithSeed(7))
	if err := shardEng.LoadSource(rox.FromXML("ppl-0.xml", peopleXML)); err != nil {
		t.Fatal(err)
	}
	shardSrv := httptest.NewServer(newHandler(rox.NewPool(shardEng, 2), 1<<20, "", "shard"))
	t.Cleanup(shardSrv.Close)

	coordEng := rox.NewEngine(rox.WithSeed(7))
	if err := loadRemoteCollectionSpec(context.Background(), coordEng, "ppl="+shardSrv.URL); err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(newHandler(rox.NewPool(coordEng, 2), 1<<20, "", "standalone"))
	t.Cleanup(coord.Close)

	q := url.QueryEscape(`for $p in collection("ppl")//person/name return $p`)
	out := getJSON(t, coord.URL+"/v1/query?q="+q, http.StatusOK)
	items, _ := out["items"].([]any)
	if len(items) != 3 {
		t.Fatalf("items = %v, want the 3 remote persons", out["items"])
	}
	if items[0] != "<name>ann</name>" {
		t.Errorf("items[0] = %v", items[0])
	}
}

// TestLoadRemoteCollectionSpecErrors covers the -remote-collection parser.
func TestLoadRemoteCollectionSpecErrors(t *testing.T) {
	eng := rox.NewEngine()
	for _, spec := range []string{"", "noequals", "=http://x", "name=", "name=,,"} {
		if err := loadRemoteCollectionSpec(context.Background(), eng, spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestStatusForRemote: remote shard failures map onto gateway statuses — a
// shard server's 4xx becomes the client's 400, everything else 502.
func TestStatusForRemote(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{&shardrpc.RemoteError{Status: http.StatusNotFound, Endpoint: "http://s", Msg: "no shard"}, http.StatusBadRequest},
		{&shardrpc.RemoteError{Status: http.StatusBadRequest, Endpoint: "http://s", Msg: "bad query"}, http.StatusBadRequest},
		{&shardrpc.RemoteError{Status: http.StatusInternalServerError, Endpoint: "http://s", Msg: "boom"}, http.StatusBadGateway},
		{&url.Error{Op: "Post", URL: "http://s", Err: errors.New("connection refused")}, http.StatusBadGateway},
	}
	for _, tc := range cases {
		if got := serve.StatusFor(tc.err); got != tc.want {
			t.Errorf("serve.StatusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
	// Wrapped (as the engine wraps shard failures) classifies the same.
	wrapped := &shardrpc.RemoteError{Status: http.StatusNotFound, Endpoint: "http://s", Msg: "no shard"}
	if got := serve.StatusFor(wrapErr(wrapped)); got != http.StatusBadRequest {
		t.Errorf("wrapped RemoteError = %d, want 400", got)
	}
}

// wrapErr wraps like the engine's shard-failure message does.
func wrapErr(err error) error {
	return &wrappedErr{err}
}

type wrappedErr struct{ err error }

func (w *wrappedErr) Error() string { return "rox: shard: " + w.err.Error() }
func (w *wrappedErr) Unwrap() error { return w.err }

// TestQueryDeadShardGateway: end-to-end status mapping — a coordinator whose
// remote shard endpoint is down answers /v1/query with 502.
func TestQueryDeadShardGateway(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	coordEng := rox.NewEngine()
	if err := coordEng.LoadCollectionRemote(context.Background(), "ppl",
		[]rox.Endpoint{{URL: deadURL, Shards: []string{"ppl-0.xml"}}}); err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(newHandler(rox.NewPool(coordEng, 2), 1<<20, "", "standalone"))
	t.Cleanup(coord.Close)

	q := url.QueryEscape(`for $p in collection("ppl")//person return $p`)
	resp, err := http.Get(coord.URL + "/v1/query?q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d (%s), want 502", resp.StatusCode, strings.TrimSpace(string(body)))
	}
}
