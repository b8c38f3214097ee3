// Benchmarks for the distributed scatter-gather path: a coordinator engine
// executing collection queries against shard servers over the loopback HTTP
// wire (httptest servers running the real shardrpc handlers). Compare against
// the in-process scatter benches (BenchmarkCollectionScatter*) to read the
// wire tax:
//
//	go test -bench 'Scatter' -benchtime 3s
package rox

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/datagen"
	"repro/internal/shardrpc"
)

// remoteScatterEngine builds a coordinator whose "xmark" collection lives
// entirely on one loopback shard server holding the default XMark corpus
// split into the given number of shards.
func remoteScatterEngine(b *testing.B, shards, cacheSize int) *Engine {
	b.Helper()
	server := NewEngine(WithSeed(1))
	for _, d := range datagen.XMarkShards(datagen.DefaultXMarkConfig(), shards) {
		_ = server.LoadSource(FromDocument(d))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shards", shardrpc.HandleInventory(server))
	mux.HandleFunc("POST /v1/shards/{shard}/execute", shardrpc.HandleExecute(server))
	ts := httptest.NewServer(mux)
	b.Cleanup(ts.Close)

	coord := NewEngine(WithSeed(1), WithPlanCache(cacheSize))
	if err := coord.LoadCollectionRemote(context.Background(), "xmark",
		[]Endpoint{{URL: ts.URL}}); err != nil {
		b.Fatal(err)
	}
	return coord
}

// BenchmarkRemoteScatterCold runs the full per-shard ROX sampling loop on the
// shard server for every iteration (coordinator cache disabled): 4 remote
// optimizations streamed back over NDJSON plus the coordinator's merge.
func BenchmarkRemoteScatterCold(b *testing.B) {
	e := remoteScatterEngine(b, 4, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := collectRows(e.Execute(context.Background(), Request{Query: scatterBenchQuery}))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Rows == 0 {
			b.Fatal("remote scatter returned no rows")
		}
	}
}

// BenchmarkRemoteScatterCached is the steady-state distributed hot path:
// every shard server replays its cached plan with zero sampling, and the
// items stream back through the ordered gather.
func BenchmarkRemoteScatterCached(b *testing.B) {
	e := remoteScatterEngine(b, 4, DefaultPlanCacheSize)
	prep, err := e.Prepare(scatterBenchQuery)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil { // warm coordinator + server caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep}))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.SampleTuples != 0 {
			b.Fatalf("cached remote scatter sampled %d tuples", res.Stats.SampleTuples)
		}
	}
}

// BenchmarkRemoteScatterAggregate measures a distributed aggregate on the
// cached hot path: each shard server folds its partial sum locally and ships
// only the exact fold state; the coordinator merges four states.
func BenchmarkRemoteScatterAggregate(b *testing.B) {
	e := remoteScatterEngine(b, 4, DefaultPlanCacheSize)
	prep, err := e.Prepare(`for $a in collection("xmark")//open_auction return sum($a/initial)`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil { // warm coordinator + server caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep}))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Rows != 1 {
			b.Fatalf("aggregate Rows = %d, want 1", res.Stats.Rows)
		}
	}
}

// BenchmarkRemoteScatterLimit: the page-one window over remote shards — the
// gather fills its 10-item window and cancels the in-flight remote streams,
// so most of each shard's output never crosses the wire.
func BenchmarkRemoteScatterLimit(b *testing.B) {
	e := remoteScatterEngine(b, 4, DefaultPlanCacheSize)
	prep, err := e.Prepare(`for $p in collection("xmark")//person return $p limit 10`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep})); err != nil { // warm coordinator + server caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := collectRows(e.Execute(context.Background(), Request{Prepared: prep}))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Rows != 10 {
			b.Fatalf("Rows = %d, want 10", res.Stats.Rows)
		}
	}
}
