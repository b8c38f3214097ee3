package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	rox "repro"
	"repro/internal/serve"
)

// compactAfter is the ingest-mixed auto-compaction threshold in appended
// nodes. A write batch appends ≈70 nodes and a run acknowledges well over a
// thousand of them, so several compaction cycles complete inside one run.
const compactAfter = 6000

// server is one engine behind the production HTTP surface on its own
// loopback listener: the wiring of cmd/roxserve's run (engine → pool →
// serve.New → http.Server), hosted in this process so the benchmark can read
// MemStats and rusage around the measured phase.
type server struct {
	eng  *rox.Engine
	srv  *http.Server
	url  string
	done chan error
}

// startServer serves eng on a fresh loopback port. On the traced run tr wraps
// the production handler so every request it serves becomes a span named
// spanName; the end-to-end run passes nil and serves the handler bare.
func startServer(eng *rox.Engine, role string, tr *tracer, spanName string) (*server, error) {
	h := serve.New(rox.NewPool(eng, numClients), serve.Config{Role: role})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var handler http.Handler = h
	if tr != nil {
		handler = tr.wrapHandler(spanName, h)
	}
	s := &server{
		eng:  eng,
		srv:  &http.Server{Handler: handler},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for the serve goroutine.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// stack is a booted workload: the front server clients talk to, plus the
// shard servers behind it on scatter-remote.
type stack struct {
	front  *server
	shards []*server
	walDir string // ingest-mixed: this boot's private copy of the WAL dir
	// replayed is how many WAL batches the boot recovered, and replayDur how
	// long OpenIngestDir took to do it (ingest-mixed).
	replayed  int
	replayDur time.Duration
}

// engines lists every engine of the stack, front first.
func (s *stack) engines() []*rox.Engine {
	out := []*rox.Engine{s.front.eng}
	for _, sh := range s.shards {
		out = append(out, sh.eng)
	}
	return out
}

// stop tears the stack down: listeners first, then the ingest directory.
func (s *stack) stop() error {
	err := s.front.stop()
	// The coordinator's shard client is the engine's default one, on
	// http.DefaultTransport. Connections it dialled but never used sit in
	// the shard servers as new, and Shutdown waits five seconds for those.
	http.DefaultClient.CloseIdleConnections()
	for _, sh := range s.shards {
		if serr := sh.stop(); err == nil {
			err = serr
		}
	}
	if cerr := s.front.eng.Ingest().Close(); err == nil {
		err = cerr
	}
	return err
}

// inputs are the corpus files a workload boots from, resolved (and generated
// on first use) before any boot is timed.
type inputs struct {
	xmarkDir string
	dblp     []string
	walSrc   string
}

func resolveInputs(w *workload, c *corpus) (*inputs, error) {
	in := &inputs{}
	var err error
	if w.Name == "cold-dblp" {
		dir, err := c.dblp()
		if err != nil {
			return nil, err
		}
		in.dblp, err = dblpFiles(dir)
		return in, err
	}
	if in.xmarkDir, err = c.xmark(); err != nil {
		return nil, err
	}
	if w.Name == "ingest-mixed" {
		in.walSrc, err = c.wal(in.xmarkDir)
	}
	return in, err
}

// boot brings a workload's stack up from its corpus files and returns once
// one probe query has been answered over HTTP. This is what setup_s times:
// new engine(s) → load files (XML shred + index build, or packed mmap open;
// ingest-mixed also replays the pre-committed WAL) → listener(s) up → probe.
// scratch is a private directory for this boot's mutable state; tr is nil
// except on the traced run.
func boot(w *workload, in *inputs, scratch string, tr *tracer) (*stack, error) {
	st := &stack{}
	var err error
	switch w.Name {
	case "replay-xmark":
		eng := rox.NewEngine(rox.WithSeed(engineSeed))
		if err = eng.LoadFile("xmark.xml", filepath.Join(in.xmarkDir, "xmark.xml")); err != nil {
			return nil, err
		}
		st.front, err = startServer(eng, "standalone", tr, "serve.handler")
	case "cold-dblp":
		// The paper's setting: every query is new to the optimizer.
		eng := rox.NewEngine(rox.WithSeed(engineSeed), rox.WithPlanCache(0))
		for _, path := range in.dblp {
			if err = eng.LoadFile(filepath.Base(path), path); err != nil {
				return nil, err
			}
		}
		st.front, err = startServer(eng, "standalone", tr, "serve.handler")
	case "scatter-remote":
		var eps []rox.Endpoint
		names := shardNames()
		for i := 0; i < numShards; i += 2 { // two servers, two shards each
			eng := rox.NewEngine(rox.WithSeed(engineSeed))
			for _, name := range names[i : i+2] {
				packed := strings.TrimSuffix(name, ".xml") + ".roxd"
				if err = eng.LoadPacked(filepath.Join(in.xmarkDir, packed)); err != nil {
					return nil, err
				}
			}
			sh, err := startServer(eng, "shard", tr, "rox.shard_server")
			if err != nil {
				return nil, err
			}
			st.shards = append(st.shards, sh)
			eps = append(eps, rox.Endpoint{URL: sh.url})
		}
		opts := []rox.Option{rox.WithSeed(engineSeed)}
		if tr != nil {
			// Same transport as the engine's default client, observed.
			opts = append(opts, rox.WithShardHTTPClient(&http.Client{
				Transport: &tracingTransport{t: tr, name: "shardrpc.roundtrip", base: http.DefaultTransport}}))
		}
		coord := rox.NewEngine(opts...)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = coord.LoadCollectionRemote(ctx, xmarkColl, eps)
		cancel()
		if err != nil {
			return nil, err
		}
		st.front, err = startServer(coord, "standalone", tr, "serve.handler")
	case "ingest-mixed":
		eng := rox.NewEngine(rox.WithSeed(engineSeed))
		if err = loadShardCollection(eng, in.xmarkDir); err != nil {
			return nil, err
		}
		eng.Ingest().SetCompactAfter(compactAfter)
		st.walDir = filepath.Join(scratch, "wal")
		t0 := time.Now()
		if st.replayed, err = eng.OpenIngestDir(st.walDir); err != nil {
			return nil, err
		}
		st.replayDur = time.Since(t0)
		st.front, err = startServer(eng, "standalone", tr, "serve.handler")
	default:
		return nil, fmt.Errorf("unknown workload %q", w.Name)
	}
	if err != nil {
		return nil, err
	}
	// The probe: the stack is up when it answers a real query.
	cl := newClient(st.front.url)
	v := w.Classes[0].Variants[0]
	if _, err := cl.query(v); err != nil {
		st.stop()
		return nil, fmt.Errorf("probe query: %w", err)
	}
	cl.close()
	return st, nil
}

// prepareScratch makes a fresh private directory for one boot and, for
// ingest-mixed, seeds it with a copy of the pre-committed WAL. It runs
// before the boot timer starts: copying the input is not set-up work.
func prepareScratch(w *workload, in *inputs, root string, n int) (string, error) {
	scratch := filepath.Join(root, fmt.Sprintf("boot-%d", n))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return "", err
	}
	if w.Name == "ingest-mixed" {
		if err := copyDir(in.walSrc, filepath.Join(scratch, "wal")); err != nil {
			return "", err
		}
	}
	return scratch, nil
}
