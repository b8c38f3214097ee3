package shardrpc

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/ndjson"
	"repro/internal/plan"
)

// maxExecBody bounds the execute request body: query text plus a
// fingerprint is small; anything larger is malformed.
const maxExecBody = 1 << 20

// Executor is the engine-side contract the shard-server handlers run against.
// rox.Engine implements it; defining it here keeps the wire layer free of an
// import cycle with the engine package.
type Executor interface {
	// ExecuteShard starts one shard execution and returns its run. Errors
	// before any output should carry an HTTP status via StatusError (plain
	// errors map to 500). The caller must Close the run on every path.
	ExecuteShard(ctx context.Context, shard string, req *ExecRequest) (ShardRun, error)
	// ShardInventory lists the documents this server executes shard requests
	// against, sorted by name, each with its own generation stamp.
	ShardInventory() []ShardInfo
}

// ShardRun is one in-flight shard execution on the serving side: a pull
// cursor over the shard's serialized items plus the final done report.
type ShardRun interface {
	// Next advances to the next item; false ends the item sequence.
	Next() bool
	// Item returns the current serialized item, valid until the next Next.
	Item() []byte
	// Key returns the current item's order-by merge key; ok is false when
	// the query does not sort (no keys travel).
	Key() (plan.Key, bool)
	// Before returns, for a run bounded by ExecRequest.Bound, how many of
	// its rows sort before the bound; ok is false for an unbounded run.
	// Valid once Next was called.
	Before() (n int, ok bool)
	// Done returns the end-of-stream report; valid after Next returned
	// false. It blocks until the execution's own report is in.
	Done() Done
	// Close aborts the execution and releases its resources. Idempotent
	// with respect to a completed run.
	Close()
}

// HandleInventory serves GET /shards.
func HandleInventory(exec Executor) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, ShardList{Shards: exec.ShardInventory()})
	}
}

// HandleExecute serves POST /shards/{shard}/execute: decode the request,
// start the shard run, stream its items as NDJSON messages (through the shared
// line writer: the coordinator's merge sees an item within its flush bound of
// it being produced, with no flush per item), and always end with the done
// report. Failures before the first byte use the HTTP status +
// error envelope; once streaming began, errors travel in-band in the done
// report. The handler must be registered on a pattern with a {shard} path
// wildcard.
func HandleExecute(exec Executor) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		shard := r.PathValue("shard")
		if shard == "" {
			writeError(w, http.StatusBadRequest, "missing shard name")
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxExecBody))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading request: "+err.Error())
			return
		}
		var req ExecRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
			return
		}
		run, err := exec.ExecuteShard(r.Context(), shard, &req)
		if err != nil {
			status := http.StatusInternalServerError
			var se *StatusError
			if errors.As(err, &se) {
				status = se.Status
			}
			writeError(w, status, err.Error())
			return
		}
		defer run.Close()

		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		lw := ndjson.NewWriter(w)
		defer lw.Close()
		// XML is mostly angle brackets: escaped, every one would cost six
		// bytes on the wire and an unescape at the coordinator.
		lw.SetEscapeHTML(false)
		writeRun(lw, run)
	}
}

// writeRun streams a shard run's lines: a bounded run's count of rows before
// its bound first — the first Next ran the join, so the count is known, and
// the coordinator's merge reads it with the shard's head — then one line per
// item, written member by member — the item, then its key when the query
// sorts — and the done report last.
func writeRun(lw *ndjson.Writer, run ShardRun) {
	more := run.Next()
	if n, ok := run.Before(); ok && lw.Field("before", n) != nil {
		return
	}
	var key []byte
	for ; more; more = run.Next() {
		var err error
		if k, ok := run.Key(); ok {
			key = AppendKey(key[:0], k)
			err = lw.ItemRaw(run.Item(), "key", key)
		} else {
			err = lw.Item(run.Item())
		}
		if err != nil {
			// The coordinator went away (window filled, query canceled): stop
			// producing; the handler's deferred Close aborts the execution.
			return
		}
	}
	// A failed write leaves no one to report to: the coordinator is gone.
	_ = lw.Field("done", run.Done())
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorEnvelope{Error: msg})
}
