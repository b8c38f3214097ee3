// Package shardrpc is the wire protocol of the distributed scatter-gather:
// the JSON types, NDJSON framing, HTTP client and HTTP handler through which
// a coordinator engine executes one shard of a collection query on a remote
// roxserve running in shard-server role.
//
// The protocol ships the query, not the data: a request carries the query
// text, the shard's slice of the limit window (and, for a deep ordered page,
// where the window starts), and the coordinator's plan-cache fingerprint;
// the response streams serialized result items (with their order-by keys
// when the query sorts), or a single exact partial-aggregate fold state,
// followed by one done report carrying per-shard stats. Plans do not travel: the shard server discovers, caches
// and replays them against its own data, as a standalone engine does — a
// plan is valid for the data it was sampled on, and generation stamps are
// counters of one process. Everything rides NDJSON over a single POST so the
// coordinator can merge streams incrementally and abort a remote shard by
// closing the response body.
//
// Two endpoints, mounted under /v1/ by cmd/roxserve:
//
//	GET  /v1/shards                        → ShardList (inventory + generations)
//	POST /v1/shards/{shard}/execute        → NDJSON stream: item lines, one done line
//
// A stream has three line shapes: {"item":"…"} (with a "key" member when the
// query sorts), {"done":{…}}, and — first, only when the request carried a
// bound (ExecRequest.Bound) — {"before":n}, the count of the shard's rows
// that sort before the bound. The handler writes them member by member,
// items without HTML escaping, so an XML item costs its own bytes plus its
// quote and control escapes; the client's Stream scans them by hand, with
// encoding/json only for the done report. Both forms of item line — escaped
// or not — are plain JSON, so any JSON reader interoperates with either side.
// The engine behind the handler compiles each query text once and reuses the
// statement across requests.
//
// Errors before the stream starts use an HTTP status plus an {"error": ...}
// JSON envelope; failures after streaming began arrive in-band as the done
// report's error field. See the "Shard-server wire contract" section of
// DESIGN.md.
//
// Remote ingest has no wire of its own: Client.Ingest posts a batch's XML to
// the shard server's public POST /v1/collections/{doc}/ingest, the endpoint
// every other writer uses.
package shardrpc

import (
	"fmt"
	"time"

	"repro/internal/ndjson"
	"repro/internal/plan"
)

// ExecRequest is the body of POST /v1/shards/{shard}/execute.
type ExecRequest struct {
	// Collection is the collection name of the coordinator's query; the
	// compiled graph is rebound from it to the target shard document.
	Collection string `json:"collection"`
	// Query is the XQuery text, compiled on the shard server (compilation is
	// deterministic, so coordinator and server build the same graph).
	Query string `json:"query"`
	// ShardLimit caps how many rows this shard's tail may produce
	// (coordinator offset+count); 0 means unlimited. It always replaces any
	// limit clause of the query text — the coordinator may have overridden
	// the text's window programmatically, so the text is not authoritative.
	ShardLimit int `json:"shard_limit,omitempty"`
	// Bound, when set, is a remembered window start: the order-by key of
	// the first item the coordinator's window returned on an earlier run.
	// The server then counts the rows that sort before it (keys alone, in
	// the query's direction), reports that count on the stream's leading
	// {"before":n} line, and ships only rows that do not sort before it —
	// at most BoundLimit of them. The coordinator still sends ShardLimit,
	// for a server that predates Bound: decoding drops the member, and that
	// server streams its first ShardLimit rows, with no leading line. Only a
	// query with order by and no aggregate takes a bound.
	Bound *plan.Key `json:"bound,omitempty"`
	// BoundLimit caps the rows a bounded shard ships from the bound on: the
	// window's count plus the items tied with the bound that fall before the
	// window (0 = unlimited). Without Bound it is ignored.
	BoundLimit int `json:"bound_limit,omitempty"`
	// Fingerprint is the coordinator's base plan-cache key for this query
	// shape; the server derives its per-shard key from it exactly like the
	// in-process path, sparing itself a graph hash per request ("" lets the
	// server key on its own).
	Fingerprint string `json:"fingerprint,omitempty"`
}

// AppendKey appends a merge key's JSON object member by member, byte for
// byte what a json.Encoder with HTML escaping off writes for k — the form of
// every member of an item line: the execute handler writes one per item.
func AppendKey(dst []byte, k plan.Key) []byte {
	dst = append(dst, '{')
	if k.Present {
		dst = append(dst, `"p":true,`...)
	}
	if k.IsNum {
		dst = append(dst, `"n":true,`...)
	}
	dst = ndjson.AppendFloat(append(dst, `"f":`...), k.Num)
	if k.Str != "" {
		dst = ndjson.AppendString(append(dst, `,"s":`...), k.Str, false)
	}
	return append(dst, '}')
}

// Agg is a wire-encoded partial-aggregate fold state. The partials slice is
// the exact-sum expansion; every element is finite, so the transfer is exact
// and merging transferred states is bit-for-bit the same as merging local
// ones.
type Agg struct {
	Count    int64     `json:"count"`
	Min      float64   `json:"min,omitempty"`
	Max      float64   `json:"max,omitempty"`
	Partials []float64 `json:"partials,omitempty"`
}

// AggFromState encodes a fold state for the wire.
func AggFromState(st *plan.AggState) *Agg {
	return &Agg{Count: st.Count, Min: st.Min, Max: st.Max, Partials: st.Partials()}
}

// State decodes the wire fold state.
func (a *Agg) State() *plan.AggState {
	return plan.RestoreAggState(a.Count, a.Min, a.Max, a.Partials)
}

// Stats reports how a query evaluation spent its work — the engine's one
// query record (rox.Stats is an alias) and its one JSON form: the stats of a
// buffered /v1/query body, of an NDJSON stream's terminal stats line, and of
// a shard server's done report, which the coordinator takes as it is into
// its ShardStats rollup. Every scalar member is always present; older shard
// servers omitted the zero-valued ones, which decode to the same zeros.
type Stats struct {
	// Rows is the number of result items actually returned — for a collected
	// Result it equals len(Result.Items); for a streaming cursor it is the
	// number of items Next handed out. Aggregate queries (count, sum,
	// avg, min, max) return 1, the single aggregate item; a limit/offset
	// window counts post-truncation.
	Rows int `json:"rows"`
	// Scanned is the result cardinality before any limit/offset window: the
	// distinct sorted join output the evaluation produced (for aggregates,
	// the tuples the fold consumed). Scanned == Rows whenever no window,
	// early Close or cancellation truncated the stream. For collection
	// queries it sums over the shards that completed their join.
	Scanned int `json:"scanned"`
	// Truncated reports that not every scanned row was returned: a
	// limit/offset window, an early-terminating scatter-gather merge, a
	// mid-stream cancellation or an early cursor Close cut the stream short.
	Truncated bool `json:"truncated"`
	// ElapsedNS is the wall-clock evaluation time, sampling included; it
	// travels as integer nanoseconds.
	ElapsedNS time.Duration `json:"elapsed_ns"`
	// ExecTuples and SampleTuples split the deterministic tuple work
	// between query execution and optimizer sampling. A plan-cache hit
	// replays with SampleTuples == 0.
	ExecTuples   int64 `json:"exec_tuples"`
	SampleTuples int64 `json:"sample_tuples"`
	// CumulativeIntermediate sums all intermediate result cardinalities.
	CumulativeIntermediate int64 `json:"cumulative_intermediate"`
	// Plan renders the executed edge order.
	Plan string `json:"plan"`
	// CacheHit reports that this evaluation replayed a cached plan instead
	// of running the sampling optimizer.
	CacheHit bool `json:"cache_hit"`
	// Reoptimized reports that a cached plan was replayed but its observed
	// cardinalities drifted beyond the engine's drift ratio, so the query
	// was re-optimized from scratch (the returned results come from that
	// fresh ROX run). For collection queries it is set when any shard
	// re-optimized.
	Reoptimized bool `json:"reoptimized"`
	// Shards breaks a collection query down per shard, in shard (result)
	// order; nil for single-document queries and in a shard's own done
	// report. The top-level tuple and intermediate counters are the sums
	// over the shards; CacheHit is set only when every shard replayed a
	// cached plan.
	Shards []ShardStats `json:"shards,omitempty"`
}

// ShardStats is one shard's share of a scatter-gather evaluation: which shard,
// and the full per-shard Stats of the independent ROX run over it (each shard
// discovers its own plan from its own samples, so Plan, CacheHit and
// Reoptimized genuinely differ between shards).
type ShardStats struct {
	Shard string `json:"shard"`
	Stats Stats  `json:"stats"`
	// Err records a shard the ShardRetryThenPartial policy completed
	// without: the failure that exhausted the shard's retry, rendered as a
	// string. Empty on every other path — under the default fail-fast
	// policy a shard failure fails the query instead.
	Err string `json:"error,omitempty"`
}

// Done is a shard execution's end-of-stream report: the last message of every
// execute response stream.
type Done struct {
	// Error, when non-empty, reports a failure after streaming began (errors
	// before any output use the HTTP status + error envelope instead).
	Error string `json:"error,omitempty"`
	// Stats is the shard-side cost breakdown of this execution.
	Stats *Stats `json:"stats,omitempty"`
	// Agg is the partial-aggregate fold state for aggregate queries (such
	// streams carry no item lines).
	Agg *Agg `json:"agg,omitempty"`
}

// ShardInfo is one entry of a shard server's document inventory.
type ShardInfo struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
}

// ShardList is the body of GET /v1/shards: every document the server can
// execute shard requests against, sorted by name.
type ShardList struct {
	Shards []ShardInfo `json:"shards"`
}

// errorEnvelope is the JSON body of a non-200 response, matching roxserve's
// error envelope.
type errorEnvelope struct {
	Error string `json:"error"`
}

// RemoteError is a shard-server request that failed: with an HTTP error
// status — the server rejected it (4xx — bad query, unknown shard) or failed
// serving it (5xx) — or, Status 200, with an execute stream that broke after
// it (cut before its done line, or carrying a malformed line). The
// coordinator surfaces it typed so API layers can map client-side remote
// rejections back to client errors and the rest to gateway faults.
type RemoteError struct {
	Status   int
	Endpoint string
	Msg      string
}

// Error renders the failure with endpoint and status.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("shardrpc: %s responded %d: %s", e.Endpoint, e.Status, e.Msg)
}

// StatusError attaches an HTTP status to a server-side execution failure, so
// the handler can map Executor errors onto the envelope without inspecting
// error strings.
type StatusError struct {
	Status int
	Err    error
}

// Error renders the wrapped failure.
func (e *StatusError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped failure to errors.Is/As.
func (e *StatusError) Unwrap() error { return e.Err }
