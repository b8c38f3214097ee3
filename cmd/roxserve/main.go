// Command roxserve is an HTTP XQuery server: it loads a corpus once into the
// engine's shared immutable catalog and serves concurrent queries over it
// through a bounded worker pool (rox.Pool). This is the "heavy traffic" entry
// point of the reproduction — every request gets its own per-query optimizer
// state while all requests share one set of documents and indices.
//
// Usage:
//
//	roxserve -doc people.xml -doc orders.xml                # serve two files
//	roxserve -demo                                          # built-in DBLP demo corpus
//	roxserve -addr :8080 -workers 8 -tau 100 -seed 1
//
// Endpoints (implemented in internal/serve; every path below lives under the
// versioned /v1/ prefix — GET /v1/query, GET /v1/healthz, ... — and nowhere
// else):
//
//	GET  /query?q=XQUERY[&mode=rox|static]   evaluate a query (or POST the
//	         [&limit=N][&offset=M]           query text as the request body);
//	         [&stream=ndjson]                limit/offset window the result
//	                                         with push-down into the engine,
//	                                         stream=ndjson streams one JSON
//	                                         object per item followed by a
//	                                         final {"stats": ...} line instead
//	                                         of buffering the full result
//	GET  /healthz                            liveness + loaded documents
//	GET  /stats                              aggregate evaluation statistics
//	                                         plus goroutine/heap samples
//	GET  /cache                              plan-cache size + hit/miss/drift
//	                                         counters
//	GET  /shards                             shard inventory: every loaded
//	                                         document with its generation stamp
//	                                         (what LoadCollectionRemote
//	                                         discovers)
//	POST /shards/{shard}/execute             execute one shard of a collection
//	                                         query and stream the result as
//	                                         NDJSON (the coordinator-facing
//	                                         wire protocol; see DESIGN.md
//	                                         "Shard-server wire contract")
//	GET  /collections                        registered collections + shards
//	POST /collections/load?name=C&shard=S    replace (or append) one shard of
//	                                         collection C from the XML body;
//	                                         404 unless C exists or &create=1
//	POST /collections/{name}/ingest          append the XML body (one or more
//	                                         top-level elements) to collection
//	                                         or document {name} and commit it
//	                                         as one batch: durable once the 200
//	                                         is out (with -waldir), visible to
//	                                         new queries, invisible to in-flight
//	                                         ones; ?file=PATH ingests a corpus
//	                                         file instead (same -corpusdir
//	                                         rules), &create=1 allows a new
//	                                         document name
//	POST /collections/load?name=C&file=PATH  swap in a shard from a file under
//	                                         -corpusdir (403 unless that flag is
//	                                         set; PATH is relative to it, or
//	                                         absolute but inside it): a packed
//	                                         .roxd shard is memory-mapped in
//	                                         O(1) (no body, no re-shred, no
//	                                         index rebuild), an XML file is
//	                                         parsed under &shard=S (default:
//	                                         its base name)
//
// Roles:
//
//	-role standalone   (default) the full surface above
//	-role shard        a shard server: everything except /query — it executes
//	                   shard requests for a remote coordinator but is not a
//	                   client-facing query endpoint
//
// A coordinator registers remote shards with
//
//	roxserve -remote-collection logs=http://shard1:8080,http://shard2:8080
//
// which asks each URL for its inventory (GET /v1/shards) and scatters
// collection("logs") queries over those servers, merging exactly as if the
// shards were local. Remote and local shards mix freely in one collection.
//
// Each -doc FILE is loaded under its base name, so doc("people.xml") refers
// to -doc path/to/people.xml. Files ending in .roxd are packed containers
// (cmd/roxpack, datagen -pack): memory-mapped under their stored document
// name, with their persistent value indices attached zero-copy.
//
// Sharded collections load with -collection NAME=GLOB, e.g.
//
//	datagen -kind xmark -shards 4 -pack -outdir corpus/
//	roxserve -collection xmark=corpus/xmark-*.roxd
//
// and are queried scatter-gather with collection("NAME") — every shard runs
// the full ROX sampling loop independently, so each discovers its own plan.
// Replacing one shard via /collections/load (safe while serving; loads are
// copy-on-write) invalidates only that shard's cached plans.
//
// Live ingest: -waldir DIR makes ingest durable. Appends are logged to a
// write-ahead log in DIR and each committed batch is fsynced before it is
// acknowledged, so on restart the server replays the WAL on top of the last
// compacted snapshots and resumes exactly where it crashed (uncommitted or
// torn tail records are discarded — they were never acknowledged).
// -compact-after N flattens the documents holding ingest deltas into fresh
// packed snapshots and truncates the WAL once the deltas hold N appended
// nodes. A shard swapped through /collections/load replaces what was
// committed to it; reloads are not logged, so a swap of a shard with durable
// state compacts at once and a restart answers what the live server did. See
// the "Live ingestion and the WAL" section of DESIGN.md.
//
// Lifecycle: -addr 127.0.0.1:0 binds an ephemeral port, and -portfile PATH
// publishes the bound address (written atomically) so scripts can discover
// it without racing on fixed port numbers. On SIGINT/SIGTERM the server
// stops accepting, gives in-flight requests -drain-grace to finish, then
// cancels them — a draining NDJSON stream always ends with a terminal
// {"error": ...} line, never a silent truncation.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/serve"
)

type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint(*m) }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

func main() {
	var docs, colls, remotes multiFlag
	flag.Var(&docs, "doc", "XML file to load (repeatable); addressed by base name")
	flag.Var(&colls, "collection", "NAME=GLOB sharded collection to load (repeatable); queried with collection(\"NAME\")")
	flag.Var(&remotes, "remote-collection", "NAME=URL1,URL2 collection served by remote shard servers (repeatable); shards discovered via GET /v1/shards")
	role := flag.String("role", "standalone", "server role: standalone (full query surface) or shard (shard-execution only, no /query)")
	addr := flag.String("addr", ":8080", "listen address (use 127.0.0.1:0 with -portfile for an ephemeral port)")
	portFile := flag.String("portfile", "", "write the bound listen address to this file once serving (for scripts using ephemeral ports)")
	workers := flag.Int("workers", 0, "max concurrent query evaluations (0 = GOMAXPROCS)")
	tau := flag.Int("tau", 100, "ROX sample size τ (at least 1)")
	seed := flag.Int64("seed", 1, "random seed for sampling (per query, reproducible)")
	demo := flag.Bool("demo", false, "load a generated miniature DBLP corpus instead of -doc files")
	maxBody := flag.Int64("max-body", 1<<20, "maximum POST body size in bytes")
	corpusDir := flag.String("corpusdir", "", "directory server-side ?file= shard loads are confined to (unset = file loads disabled)")
	cacheSize := flag.Int("cache", rox.DefaultPlanCacheSize, "plan-cache capacity in entries (0 disables caching)")
	drift := flag.Float64("drift", rox.DefaultDriftRatio, "cardinality drift ratio that re-optimizes a cached plan")
	walDir := flag.String("waldir", "", "durable ingest directory: replay its WAL on boot (warm restart) and log subsequent ingest there")
	compactAfter := flag.Int("compact-after", 0, "auto-compact the ingest deltas once they hold this many appended nodes (0 disables)")
	drainGrace := flag.Duration("drain-grace", 2*time.Second, "how long in-flight requests may finish after a shutdown signal before they are canceled")
	flag.Parse()
	if *tau < 1 { // a usage error, not a server whose every cold query fails
		fmt.Fprintf(os.Stderr, "roxserve: -tau %d: the sample size must be at least 1\n", *tau)
		flag.Usage()
		os.Exit(2)
	}

	cfg := serverConfig{
		docs: docs, colls: colls, remotes: remotes,
		role: *role, addr: *addr, portFile: *portFile,
		workers: *workers, tau: *tau, seed: *seed, demo: *demo,
		maxBody: *maxBody, cacheSize: *cacheSize, drift: *drift,
		corpusDir: *corpusDir, drainGrace: *drainGrace,
		walDir: *walDir, compactAfter: *compactAfter,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "roxserve:", err)
		os.Exit(1)
	}
}

// serverConfig carries the parsed flags into run.
type serverConfig struct {
	docs, colls, remotes []string
	role, addr, portFile string
	workers, tau         int
	seed                 int64
	demo                 bool
	maxBody              int64
	cacheSize            int
	drift                float64
	corpusDir            string
	drainGrace           time.Duration
	walDir               string
	compactAfter         int
}

func run(cfg serverConfig) error {
	if cfg.role != "standalone" && cfg.role != "shard" {
		return fmt.Errorf("bad -role %q: want standalone or shard", cfg.role)
	}
	if len(cfg.docs) == 0 && len(cfg.colls) == 0 && len(cfg.remotes) == 0 && !cfg.demo && cfg.walDir == "" {
		return fmt.Errorf("nothing to serve: pass -doc files, -collection or -remote-collection specs, -waldir, or -demo")
	}
	if cfg.corpusDir != "" {
		st, err := os.Stat(cfg.corpusDir)
		if err != nil {
			return fmt.Errorf("-corpusdir: %w", err)
		}
		if !st.IsDir() {
			return fmt.Errorf("-corpusdir %s: not a directory", cfg.corpusDir)
		}
	}
	eng := rox.NewEngine(rox.WithSampleSize(cfg.tau), rox.WithSeed(cfg.seed),
		rox.WithPlanCache(cfg.cacheSize), rox.WithDriftRatio(cfg.drift))
	if cfg.demo {
		loadDemo(eng)
	}
	for _, path := range cfg.docs {
		if err := loadDoc(eng, path); err != nil {
			return err
		}
	}
	for _, spec := range cfg.colls {
		if err := loadCollectionSpec(eng, spec); err != nil {
			return err
		}
	}
	if len(cfg.remotes) > 0 {
		// Discovery is a startup-time network call; bound it so a dead shard
		// server fails the boot promptly instead of hanging it.
		rctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, spec := range cfg.remotes {
			if err := loadRemoteCollectionSpec(rctx, eng, spec); err != nil {
				return err
			}
		}
	}
	if cfg.compactAfter > 0 {
		eng.Ingest().SetCompactAfter(cfg.compactAfter)
	}
	if cfg.walDir != "" {
		// After the corpus load, before serving: compacted snapshots replace
		// stale corpus files, then the WAL's committed batches replay on top.
		n, err := eng.OpenIngestDir(cfg.walDir)
		if err != nil {
			return fmt.Errorf("-waldir %s: %w", cfg.walDir, err)
		}
		if n > 0 {
			log.Printf("roxserve: replayed %d ingest batches from %s", n, cfg.walDir)
		}
	}
	pool := rox.NewPool(eng, cfg.workers)
	handler := newHandler(pool, cfg.maxBody, cfg.corpusDir, cfg.role)
	srv := &http.Server{Handler: handler}

	// Listen before publishing the address: once -portfile exists, the
	// server is accepting connections (health may still need a poll).
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.portFile != "" {
		if err := writePortFile(cfg.portFile, ln.Addr().String()); err != nil {
			ln.Close()
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("roxserve: serving %d documents on %s (%d workers)",
			len(eng.Documents()), ln.Addr(), pool.Workers())
		errc <- srv.Serve(ln)
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Printf("roxserve: shutting down (draining up to %s)", cfg.drainGrace)
		// Stop accepting and let in-flight requests finish on their own for
		// the grace period; after it, Drain cancels them so every NDJSON
		// stream still open terminates with a clean {"error": ...} line
		// instead of being cut mid-item when Shutdown's deadline closes the
		// connections.
		grace := time.AfterFunc(cfg.drainGrace, handler.Drain)
		defer grace.Stop()
		sctx, cancel := context.WithTimeout(context.Background(), cfg.drainGrace+10*time.Second)
		defer cancel()
		return srv.Shutdown(sctx)
	}
}

// newHandler builds the HTTP API over a query pool (the implementation lives
// in internal/serve so test harnesses boot the production handler
// in-process). Kept as a local constructor for the httptest suites.
func newHandler(pool *rox.Pool, maxBody int64, corpusDir, role string) *serve.Handler {
	return serve.New(pool, serve.Config{MaxBody: maxBody, CorpusDir: corpusDir, Role: role})
}

// writePortFile publishes the bound address atomically (write temp + rename)
// so a script polling for the file never reads a partial line.
func writePortFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return fmt.Errorf("-portfile: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("-portfile: %w", err)
	}
	return nil
}

// loadDoc registers one document from disk (rox.FromPath: a .roxd container
// is mapped under its stored name, anything else is XML named by its base
// name).
func loadDoc(eng *rox.Engine, path string) error {
	if err := eng.LoadSource(rox.FromPath("", path)); err != nil {
		return fmt.Errorf("load %s: %w", path, err)
	}
	return nil
}

// loadCollectionSpec loads one -collection NAME=GLOB spec: every matching
// file becomes a shard (rox.FromPath each, so packed and XML shards mix),
// registered in one catalog swap in sorted path order, which fixes the
// collection's result order.
func loadCollectionSpec(eng *rox.Engine, spec string) error {
	name, pattern, ok := strings.Cut(spec, "=")
	if !ok || name == "" || pattern == "" {
		return fmt.Errorf("bad -collection spec %q: want NAME=GLOB", spec)
	}
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return fmt.Errorf("bad -collection glob %q: %w", pattern, err)
	}
	if len(paths) == 0 {
		return fmt.Errorf("-collection %s: no files match %q", name, pattern)
	}
	sort.Strings(paths)
	srcs := make([]rox.Source, len(paths))
	for i, path := range paths {
		srcs[i] = rox.FromPath("", path)
	}
	if err := eng.LoadCollectionSource(name, srcs...); err != nil {
		return fmt.Errorf("-collection %s: %w", name, err)
	}
	return nil
}

// loadRemoteCollectionSpec registers one -remote-collection NAME=URL1,URL2
// spec: each URL is a shard server whose inventory (GET /v1/shards) becomes
// this collection's remote shards, registered in the order the URLs were
// given (the server lists its documents name-sorted, which fixes the
// collection's result order).
func loadRemoteCollectionSpec(ctx context.Context, eng *rox.Engine, spec string) error {
	name, list, ok := strings.Cut(spec, "=")
	if !ok || name == "" || list == "" {
		return fmt.Errorf("bad -remote-collection spec %q: want NAME=URL1,URL2", spec)
	}
	var eps []rox.Endpoint
	for _, u := range strings.Split(list, ",") {
		if u = strings.TrimSpace(u); u != "" {
			eps = append(eps, rox.Endpoint{URL: u})
		}
	}
	if len(eps) == 0 {
		return fmt.Errorf("bad -remote-collection spec %q: no endpoint URLs", spec)
	}
	if err := eng.LoadCollectionRemote(ctx, name, eps); err != nil {
		return fmt.Errorf("-remote-collection %s: %w", name, err)
	}
	return nil
}

// loadDemo fills the engine with a miniature generated DBLP corpus (four
// correlated venues — the paper's running example at toy scale).
func loadDemo(eng *rox.Engine) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.TagDivisor = 40
	var venues []datagen.Venue
	for _, name := range []string{"VLDB", "ICDE", "ICIP", "ADBIS"} {
		if v, ok := datagen.VenueByName(name); ok {
			venues = append(venues, v)
		}
	}
	for _, d := range datagen.GenerateDBLP(cfg, venues) {
		_ = eng.LoadSource(rox.FromDocument(d)) // a shredded document cannot fail to load
	}
}
