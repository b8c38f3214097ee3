// Package serve implements the roxserve HTTP API as an importable handler.
//
// cmd/roxserve is a thin shell around this package — flag parsing, corpus
// loading and process lifecycle — while the request surface itself (query
// evaluation, NDJSON streaming, collection loading and the shard-execution
// wire protocol, all under the versioned /v1/ prefix) lives here so test
// harnesses can boot the exact production handler in-process: the scenario
// runner (internal/scenario) diffs a loopback coordinator+shard cluster
// against a single server, and the soak harness (internal/loadgen) drives
// concurrent query + reload + kill/restart traffic under the race detector.
// See the "Load harness and the perf gate" section of DESIGN.md.
//
// A Handler also owns the drain lifecycle: Drain cancels the context of
// every in-flight request, so streaming NDJSON responses end with a terminal
// {"error": ...} line — a client can always distinguish a drained stream
// from a complete one (which ends with {"stats": ...}) and from a truncated
// one (no terminal line at all).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro"
	"repro/internal/metrics"
	"repro/internal/ndjson"
	"repro/internal/shardrpc"
)

// Config configures a Handler.
type Config struct {
	// MaxBody bounds POST bodies (queries and shard uploads) in bytes;
	// 0 means DefaultMaxBody.
	MaxBody int64
	// CorpusDir confines server-side ?file= shard loads; "" disables them.
	CorpusDir string
	// Role selects the surface: "standalone" (default) serves everything,
	// "shard" drops /query — a shard server executes shard requests for a
	// coordinator but is not a client-facing query endpoint.
	Role string
}

// DefaultMaxBody is the POST body bound used when Config.MaxBody is zero.
const DefaultMaxBody = 1 << 20

// Handler is the roxserve HTTP API over a query pool. It serves every
// endpoint under the stable /v1/ prefix, and supports draining: after Drain,
// in-flight requests see their context canceled so streams terminate promptly
// with a clean error.
type Handler struct {
	mux         *http.ServeMux
	drainCtx    context.Context
	drainCancel context.CancelCauseFunc
}

// ErrDraining is the cancellation cause Drain attaches to in-flight request
// contexts.
var ErrDraining = errors.New("server draining")

// New builds the HTTP API over a query pool.
//
//roxvet:ctxroot the drain context is the handler's own lifecycle root; request cancellation still flows from each request's context.
func New(pool *rox.Pool, cfg Config) *Handler {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	drainCtx, drainCancel := context.WithCancelCause(context.Background())
	h := &Handler{
		mux:         http.NewServeMux(),
		drainCtx:    drainCtx,
		drainCancel: drainCancel,
	}
	h.register(pool, cfg)
	return h
}

// ServeHTTP dispatches with a request context that is additionally canceled
// when the handler drains, so no endpoint outlives Drain.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	// AfterFunc runs on its own goroutine even when the handler has already
	// drained; a request arriving after Drain must not win that race.
	if h.drainCtx.Err() != nil {
		cancel(context.Cause(h.drainCtx))
	}
	stop := context.AfterFunc(h.drainCtx, func() {
		cancel(context.Cause(h.drainCtx))
	})
	defer stop()
	h.mux.ServeHTTP(w, r.WithContext(ctx))
}

// Drain cancels the context of every in-flight request (and all future
// ones). In-flight NDJSON streams end with a terminal {"error": ...} line
// instead of being cut mid-item when the listener closes; buffered queries
// return 503. Call it when the process begins shutting down, after giving
// fast requests a grace period to finish on their own.
func (h *Handler) Drain() { h.drainCancel(ErrDraining) }

// register wires every endpoint, all under the versioned /v1/ prefix — the
// only namespace the server has. CorpusDir confines server-side ?file= shard
// loads; "" disables them — the server binds all interfaces by default, so an
// unrestricted ?file= would hand every HTTP client a read primitive over any
// file the process can open.
func (h *Handler) register(pool *rox.Pool, cfg Config) {
	maxBody, corpusDir := cfg.MaxBody, cfg.CorpusDir
	h.mux.HandleFunc("GET /v1/shards", shardrpc.HandleInventory(pool.Engine()))
	h.mux.HandleFunc("POST /v1/shards/{shard}/execute", shardrpc.HandleExecute(pool.Engine()))
	h.mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":    "ok",
			"documents": pool.Engine().Documents(),
		})
	})
	h.mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		agg := pool.Aggregator()
		exec, sample := agg.CostOf(metrics.PhaseExecute), agg.CostOf(metrics.PhaseSample)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		writeJSON(w, http.StatusOK, map[string]any{
			"queries": agg.Queries(),
			"errors":  agg.Errors(),
			"workers": pool.Workers(),
			"execute": map[string]int64{"tuples": exec.Tuples, "ops": exec.Ops},
			"sample":  map[string]int64{"tuples": sample.Tuples, "ops": sample.Ops},
			// Process health the load harness samples during a run: a
			// goroutine count that grows monotonically under steady traffic
			// is a leak, heap_bytes bounds the working set.
			"goroutines": runtime.NumGoroutine(),
			"heap_bytes": ms.HeapAlloc,
			"ingest":     ingestStatsJSON(pool.Engine()),
		})
	})
	h.mux.HandleFunc("/v1/cache", func(w http.ResponseWriter, r *http.Request) {
		cs := pool.Engine().CacheStats()
		writeJSON(w, http.StatusOK, map[string]any{
			"enabled":       cs.Enabled,
			"size":          cs.Size,
			"capacity":      cs.Capacity,
			"hits":          cs.Counters.Hits,
			"stale_hits":    cs.Counters.StaleHits,
			"misses":        cs.Counters.Misses,
			"drifts":        cs.Counters.Drifts,
			"evictions":     cs.Counters.Evictions,
			"installs":      cs.Counters.Installs,
			"invalidations": cs.Counters.Invalidations,
			"hit_rate":      cs.Counters.HitRate(),
		})
	})
	if cfg.Role != "shard" {
		h.mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
			serveQuery(pool, maxBody, w, r)
		})
	}
	h.mux.HandleFunc("/v1/collections", func(w http.ResponseWriter, r *http.Request) {
		eng := pool.Engine()
		type collInfo struct {
			Name   string   `json:"name"`
			Shards []string `json:"shards"`
		}
		out := []collInfo{}
		for _, name := range eng.Collections() {
			shards, err := eng.CollectionShards(name)
			if err != nil {
				continue // raced with nothing: collections are never removed
			}
			out = append(out, collInfo{Name: name, Shards: shards})
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"collections": out,
			"ingest":      ingestStatsJSON(eng),
		})
	})
	h.mux.HandleFunc("/v1/collections/load", func(w http.ResponseWriter, r *http.Request) {
		serveCollectionLoad(pool, maxBody, corpusDir, w, r)
	})
	h.mux.HandleFunc("POST /v1/collections/{name}/ingest", func(w http.ResponseWriter, r *http.Request) {
		serveIngest(pool, maxBody, corpusDir, w, r)
	})
}

// ingestStatsJSON shapes the engine's ingest statistics for /stats and
// /collections: WAL health, overlay sizes, and lifetime event counts.
func ingestStatsJSON(eng *rox.Engine) map[string]any {
	st := eng.Ingest().Stats()
	return map[string]any{
		"durable":          st.Durable,
		"wal_path":         st.WALPath,
		"wal_bytes":        st.WALSize,
		"wal_age_ns":       st.WALAge.Nanoseconds(),
		"pending_docs":     st.PendingDocs,
		"delta_docs":       st.DeltaDocs,
		"delta_nodes":      st.DeltaNodes,
		"last_commit_seq":  st.LastCommitSeq,
		"last_commit_gen":  st.LastCommitGen,
		"appends":          st.Appends,
		"commits":          st.Commits,
		"compactions":      st.Compactions,
		"replayed_batches": st.ReplayedBatches,
	}
}

// serveIngest appends one batch of XML fragments to a collection or document
// and commits it: POST /collections/{name}/ingest with the fragment XML as
// the body, or ?file=PATH to ingest a file confined to the corpus directory
// (same trust rules as /collections/load). The target may be a loaded
// collection (fragments route round-robin across its shards; a remote
// shard's share is forwarded at commit as one body to this same endpoint on
// its shard server), a loaded document, or — with &create=1 — a new document
// name. The whole body is parsed before any of it is appended, so a malformed
// element anywhere leaves nothing behind. Each request is one committed batch:
// after the 200, the appends are durable (when a WAL is attached) and
// visible to new queries; in-flight queries keep their snapshot.
func serveIngest(pool *rox.Pool, maxBody int64, corpusDir string, w http.ResponseWriter, r *http.Request) {
	eng := pool.Engine()
	name := r.PathValue("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing collection or document name"))
		return
	}
	// Mirror /collections/load: a mistyped target must not silently create a
	// junk document — ingesting into a brand-new name is an explicit opt-in.
	if create := r.URL.Query().Get("create"); create != "1" && create != "true" {
		if _, err := eng.CollectionShards(name); err != nil && !slices.Contains(eng.Documents(), name) {
			writeError(w, http.StatusNotFound,
				fmt.Errorf("no collection or document %q loaded (pass &create=1 to create a document)", name))
			return
		}
	}
	var xml string
	if file := r.URL.Query().Get("file"); file != "" {
		path, err := resolveCorpusPath(corpusDir, file)
		if err != nil {
			writeError(w, http.StatusForbidden, err)
			return
		}
		body, err := os.ReadFile(path)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("read fragment file %s: %w", file, err))
			return
		}
		xml = string(body)
	} else {
		body, ok := readBody(w, r, maxBody, "fragment")
		if !ok {
			return
		}
		xml = string(body)
	}
	if strings.TrimSpace(xml) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty fragment: POST the XML to append (or pass ?file=)"))
		return
	}
	if err := eng.Append(name, xml); err != nil {
		// An append failure is the client's XML (parse error, pre-space
		// overflow) — except a latched durability failure, which is ours.
		status := http.StatusBadRequest
		if errors.Is(err, rox.ErrIngestBroken) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, fmt.Errorf("append to %q: %w", name, err))
		return
	}
	seq, err := eng.Commit(r.Context())
	if err != nil {
		writeError(w, StatusFor(err), fmt.Errorf("commit ingest into %q: %w", name, err))
		return
	}
	st := eng.Ingest().Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"target":     name,
		"status":     "committed",
		"seq":        seq,
		"generation": st.LastCommitGen,
		"durable":    st.Durable,
	})
}

// serveQuery evaluates one /query request, buffered JSON or NDJSON stream.
func serveQuery(pool *rox.Pool, maxBody int64, w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query() // parsed once: every parameter below reads it
	q := params.Get("q")
	if q == "" && (r.Method == http.MethodPost || r.Method == http.MethodPut) {
		body, ok := readBody(w, r, maxBody, "query")
		if !ok {
			return
		}
		q = string(body)
	}
	if strings.TrimSpace(q) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty query: pass ?q= or a request body"))
		return
	}
	req := rox.Request{Query: q}
	switch mode := params.Get("mode"); mode {
	case "", "rox":
	case "static":
		req.Static = true
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown mode %q (want rox or static)", mode))
		return
	}
	var err error
	if req.Limit, err = intParam(params, "limit"); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Offset, err = intParam(params, "offset"); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	streaming := false
	switch stream := params.Get("stream"); stream {
	case "":
	case "ndjson":
		streaming = true
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown stream format %q (want ndjson)", stream))
		return
	}
	rows, err := pool.Execute(r.Context(), req)
	if err != nil {
		writeError(w, StatusFor(err), err)
		return
	}
	defer rows.Close()
	if streaming {
		streamNDJSON(w, rows)
		return
	}
	writeBuffered(w, rows)
}

// serveCollectionLoad replaces (or appends) one shard of a collection, from
// the request body or from a file confined to corpusDir.
func serveCollectionLoad(pool *rox.Pool, maxBody int64, corpusDir string, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodPut {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST or PUT an XML shard body"))
		return
	}
	name := r.URL.Query().Get("name")
	shard := r.URL.Query().Get("shard")
	file := r.URL.Query().Get("file")
	if name == "" || (shard == "" && file == "") {
		writeError(w, http.StatusBadRequest, fmt.Errorf("pass ?name=COLLECTION&shard=DOCNAME (XML body) or ?name=COLLECTION&file=PATH"))
		return
	}
	// A mistyped collection name must not silently register a junk
	// collection (there is no removal API); creating one is an explicit
	// opt-in. Appending a new shard to an existing collection stays
	// allowed — that is the scale-out path.
	if create := r.URL.Query().Get("create"); create != "1" && create != "true" {
		if _, err := pool.Engine().CollectionShards(name); err != nil {
			writeError(w, http.StatusNotFound,
				fmt.Errorf("collection %q not loaded (pass &create=1 to create it): %w", name, err))
			return
		}
	}
	if file != "" {
		// Server-side file swap. A packed .roxd shard is memory-mapped and
		// its persistent indices attached — an O(1) swap with no body
		// upload, no re-shred and no index rebuild; the old mapping stays
		// valid for queries already streaming from it and is unmapped when
		// they finish. The shard keeps the document name stored in the
		// container (or, for XML files, &shard= / the base name).
		path, err := resolveCorpusPath(corpusDir, file)
		if err != nil {
			writeError(w, http.StatusForbidden, err)
			return
		}
		if shard == "" {
			shard = filepath.Base(file)
		}
		// rox.FromPath picks the format; the suffix here only words the reply.
		reply := map[string]any{"collection": name, "file": file, "status": "mapped"}
		verb := "load"
		if !strings.HasSuffix(path, ".roxd") {
			reply["shard"], reply["status"], verb = shard, "loaded", "parse"
		}
		if err := pool.Engine().LoadCollectionSource(name, rox.FromPath(shard, path)); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%s shard file %s: %w", verb, file, err))
			return
		}
		writeJSON(w, http.StatusOK, reply)
		return
	}
	body, ok := readBody(w, r, maxBody, "shard")
	if !ok {
		return
	}
	if len(strings.TrimSpace(string(body))) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty shard body: POST the shard XML"))
		return
	}
	// Copy-on-write load: safe while queries are in flight, and only this
	// shard's cached plans are invalidated.
	if err := pool.Engine().LoadCollectionSource(name, rox.FromXML(shard, string(body))); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parse shard %s: %w", shard, err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"collection": name,
		"shard":      shard,
		"status":     "loaded",
	})
}

// QueryResponse is the JSON shape of a successful buffered /query evaluation.
type QueryResponse struct {
	Items []string   `json:"items"`
	Stats QueryStats `json:"stats"`
}

// QueryStats is the JSON stats object of a /query response and of the
// terminal {"stats": ...} line of an NDJSON stream: the one stats object
// every wire carries, a shard server's done report included.
type QueryStats = shardrpc.Stats

// resolveCorpusPath confines a client-supplied ?file= path to the configured
// corpus directory. Relative paths are taken relative to corpusDir; absolute
// paths must land inside it. Both sides are resolved through filepath.Abs +
// EvalSymlinks before the containment check, so neither ".." segments nor a
// symlink planted inside the corpus directory can escape it. An empty
// corpusDir means server-side file loads are disabled entirely.
func resolveCorpusPath(corpusDir, file string) (string, error) {
	if corpusDir == "" {
		return "", fmt.Errorf("server-side file loads are disabled (start roxserve with -corpusdir)")
	}
	root, err := filepath.Abs(corpusDir)
	if err == nil {
		root, err = filepath.EvalSymlinks(root)
	}
	if err != nil {
		return "", fmt.Errorf("corpus directory %s: %w", corpusDir, err)
	}
	p := file
	if !filepath.IsAbs(p) {
		p = filepath.Join(root, p)
	}
	abs, err := filepath.Abs(p)
	if err != nil {
		return "", fmt.Errorf("file %q is outside the corpus directory", file)
	}
	switch resolved, rerr := filepath.EvalSymlinks(abs); {
	case rerr == nil:
		abs = resolved
	case errors.Is(rerr, os.ErrNotExist):
		// A path that does not exist cannot be read; the lexically cleaned
		// abs goes through the containment check below and the load itself
		// reports the missing file as a 400.
	default:
		return "", fmt.Errorf("file %q is outside the corpus directory", file)
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("file %q is outside the corpus directory", file)
	}
	return abs, nil
}

// readBody reads a POST body of at most maxBody bytes. On failure it has
// already replied — 413 "<what> body exceeds N bytes" past the bound, 400 on
// any other read error — and returns false.
func readBody(w http.ResponseWriter, r *http.Request, maxBody int64, what string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err == nil {
		return body, true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s body exceeds %d bytes", what, maxBody))
	} else {
		writeError(w, http.StatusBadRequest, err)
	}
	return nil, false
}

// intParam reads a non-negative integer query parameter ("" = 0).
func intParam(params url.Values, name string) (int, error) {
	s := params.Get(name)
	if s == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q: want a non-negative integer", name, s)
	}
	return n, nil
}

// streamNDJSON writes the cursor as newline-delimited JSON: one
// {"item": ...} object per result item as it comes off the engine (straight
// from the cursor's buffer through the shared line writer, whose bounded-delay
// flush is what lets slow consumers see progress), then a final
// {"stats": ...} object — or, if the stream fails after the 200 header is out,
// an {"error": ...} object as the last line. A stream with no terminal line
// was truncated; clients must treat it as failed, never as a short success.
func streamNDJSON(w http.ResponseWriter, rows *rox.Rows) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	lw := ndjson.NewWriter(w)
	defer lw.Close()
	for rows.Next() {
		if lw.Item(rows.ItemBytes()) != nil {
			return // client went away; rows.Close via the handler's defer
		}
	}
	// A failed terminal write leaves no one to report to: the client is gone.
	if err := rows.Err(); err != nil {
		_ = lw.Field("error", err.Error())
		return
	}
	rows.Close()
	_ = lw.Field("stats", rows.Stats().Wire())
}

// writeBuffered writes the cursor as one {"items":[…],"stats":…} body, byte
// for byte what encoding/json writes for a QueryResponse, each item rendered
// from the cursor's buffer by the encoder the stream uses. It buffers rather
// than streams the array: the status goes out only after the cursor ended, so
// a failure anywhere in the evaluation — a remote shard cut mid-stream (502),
// a drain (503) — is answered with its own status and error envelope, where a
// streamed array could only end a 200 early.
func writeBuffered(w http.ResponseWriter, rows *rox.Rows) {
	// A small result fits the first 4 KiB without regrowing the body.
	body := append(make([]byte, 0, 4<<10), `{"items":[`...)
	for n := 0; rows.Next(); n++ {
		if n > 0 {
			body = append(body, ',')
		}
		body = ndjson.AppendString(body, rows.ItemBytes(), true)
	}
	if err := rows.Err(); err != nil {
		writeError(w, StatusFor(err), err)
		return
	}
	stats, _ := json.Marshal(rows.Stats().Wire()) // numbers, strings, bools: cannot fail
	body = append(append(append(body, `],"stats":`...), stats...), '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write leaves no one to report to: the client is gone
}

// StatusFor classifies an evaluation error: cancellation → 503 (client went
// away, timed out, or the server is draining), a remote shard server's 4xx
// (it rejected the shard request as malformed or unknown) → 400, any other
// remote-shard failure (server unreachable, 5xx, mid-stream drop) → 502 so
// clients can tell a cluster fault from a coordinator fault, client mistakes
// (a malformed Request or unparsable query, an unknown document or
// collection, a static collection query, a non-numeric aggregate) → 400,
// anything else — a latched ingest durability failure first — is an
// engine-internal failure → 500 so monitoring sees it and clients know to
// retry. Every class is a typed error; no message text is matched.
func StatusFor(err error) int {
	var remote *shardrpc.RemoteError
	var uerr *url.Error
	switch {
	case errors.Is(err, rox.ErrIngestBroken):
		return http.StatusInternalServerError
	case errors.Is(err, rox.ErrInvalidRequest):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.As(err, &remote):
		if remote.Status >= 400 && remote.Status < 500 {
			return http.StatusBadRequest
		}
		return http.StatusBadGateway
	case errors.As(err, &uerr):
		return http.StatusBadGateway
	case errors.Is(err, rox.ErrNoSuchDocument) ||
		errors.Is(err, rox.ErrNoSuchCollection) ||
		errors.Is(err, rox.ErrStaticCollection) ||
		errors.Is(err, rox.ErrNonNumericAggregate):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("serve: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
