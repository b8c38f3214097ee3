// Package shardrpc is the wire protocol of the distributed scatter-gather:
// the JSON types, NDJSON framing, HTTP client and HTTP handler through which
// a coordinator engine executes one shard of a collection query on a remote
// roxserve running in shard-server role.
//
// The protocol ships the query, not the data: a request carries the query
// text, the shard's slice of the limit window and the coordinator's
// plan-cache fingerprint; the response streams serialized result items (with
// their order-by keys when the query sorts), or a single exact
// partial-aggregate fold state, followed by one done report carrying
// per-shard stats. Plans do not travel: the shard server discovers, caches
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
// A stream has two line shapes, {"item":"…"} (with a "key" member when the
// query sorts) and {"done":{…}}. The handler writes them member by member,
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
	// Fingerprint is the coordinator's base plan-cache key for this query
	// shape; the server derives its per-shard key from it exactly like the
	// in-process path, sparing itself a graph hash per request ("" lets the
	// server key on its own).
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Key is a wire-encoded order-by merge key. All numeric keys are finite by
// construction (xmltree.ParseNumber accepts nothing else), so the float64
// JSON round-trip is exact and the coordinator's k-way merge compares exactly
// the keys the shard sorted by.
type Key struct {
	Present bool    `json:"p,omitempty"`
	Num     bool    `json:"n,omitempty"`
	F       float64 `json:"f"`
	S       string  `json:"s,omitempty"`
}

// KeyFromPlan encodes a merge key for the wire.
func KeyFromPlan(k plan.Key) Key {
	return Key{Present: k.Present, Num: k.IsNum, F: k.Num, S: k.Str}
}

// AppendJSON appends the key's JSON object member by member, byte for byte
// what a json.Encoder with HTML escaping off writes for k — the form of every
// member of an item line: the execute handler writes one per item.
func (k Key) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	if k.Present {
		dst = append(dst, `"p":true,`...)
	}
	if k.Num {
		dst = append(dst, `"n":true,`...)
	}
	dst = ndjson.AppendFloat(append(dst, `"f":`...), k.F)
	if k.S != "" {
		dst = ndjson.AppendString(append(dst, `,"s":`...), k.S, false)
	}
	return append(dst, '}')
}

// ToPlan decodes the wire key.
func (k Key) ToPlan() plan.Key {
	return plan.Key{Present: k.Present, IsNum: k.Num, Num: k.F, Str: k.S}
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

// Stats is the one JSON form of rox.Stats (rox.Stats.Wire converts): the
// stats of a buffered /v1/query body, of an NDJSON stream's terminal stats
// line, and of a shard server's done report, which the coordinator folds into
// its ShardStats rollup. Every scalar member is always present; older shard
// servers omitted the zero-valued ones, which decode to the same zeros.
type Stats struct {
	Rows                   int          `json:"rows"`
	Scanned                int          `json:"scanned"`
	Truncated              bool         `json:"truncated"`
	ElapsedNS              int64        `json:"elapsed_ns"`
	ExecTuples             int64        `json:"exec_tuples"`
	SampleTuples           int64        `json:"sample_tuples"`
	CumulativeIntermediate int64        `json:"cumulative_intermediate"`
	Plan                   string       `json:"plan"`
	CacheHit               bool         `json:"cache_hit"`
	Reoptimized            bool         `json:"reoptimized"`
	Shards                 []ShardStats `json:"shards,omitempty"`
}

// ShardStats is one shard's entry in the per-shard breakdown of a
// scatter-gather evaluation. A shard's own done report never carries one.
type ShardStats struct {
	Shard string `json:"shard"`
	Stats Stats  `json:"stats"`
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
