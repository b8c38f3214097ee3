package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval. Spans are recorded only from the benchmark's
// own files, around the calls it makes into each layer; the name's prefix up
// to the first dot is the layer (the repo package) the time belongs to.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`  // 0 = a root
	Request int                `json:"request"` // spans of one request share it
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"` // since the tracer was created
	EndNS   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

func (s *span) dur() int64 { return s.EndNS - s.StartNS }

// layer is the span's layer: its name up to the first dot.
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer, and a
// tracer that is switched off, record nothing: the end-to-end run boots its
// stack without one, and the traced run measures its own overhead by running
// the same traffic with the tracer off and then on.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request allocates a fresh request id.
func (t *tracer) request() int {
	if t == nil || !t.on.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// start opens a span and returns its id (0 from the disabled tracer).
func (t *tracer) start(parent, request int, name string) int {
	if t == nil || !t.on.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name})
	// The clock is read last so the bookkeeping above stays out of the span.
	t.spans[len(t.spans)-1].StartNS = int64(time.Since(t.t0))
	return len(t.spans)
}

// end closes a span, attaching counts when given.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
	t.spans[id-1].Counts = counts
}

// len reports how many spans were recorded.
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns every span's self time, indexed like spans: its duration
// minus the part of its interval that its direct children cover. Children
// may overlap one another (parallel shard calls) and are clipped to the
// parent, so the covered part is the length of the union of their intervals.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartNS, s.EndNS})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := int64(0), s.StartNS
		for _, k := range ivs {
			lo, hi := max(k.lo, reach), min(k.hi, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanTree indexes a run's spans once: self times and children by parent.
type spanTree struct {
	spans    []span
	self     []int64
	children map[int][]int
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, self: selfTimes(spans), children: make(map[int][]int)}
	for _, s := range spans {
		t.children[s.Parent] = append(t.children[s.Parent], s.ID)
	}
	return t
}

// layerSelf sums self time by layer over the subtree rooted at root (root's
// own self time included), in nanoseconds.
func (t *spanTree) layerSelf(root int) map[string]int64 {
	out := make(map[string]int64)
	var walk func(id int)
	walk = func(id int) {
		out[t.spans[id-1].layer()] += t.self[id-1]
		for _, c := range t.children[id] {
			walk(c)
		}
	}
	walk(root)
	return out
}

// The outside-in part of the trace: real spans at the boundaries the
// benchmark can reach without a hook in the engine — its own client, the
// http.Handler it hands to http.Server, and the http.Client it hands to the
// coordinator for shard calls. The parent link travels client → server in
// the spanHeader and server → outgoing shard call in the request context.

const spanHeader = "X-Roxmark-Span" // "<span id>:<request id>"

type spanRef struct{ span, request int }

type spanCtxKey struct{}

func (r spanRef) header() string { return strconv.Itoa(r.span) + ":" + strconv.Itoa(r.request) }

func parseSpanRef(h string) spanRef {
	a, b, ok := strings.Cut(h, ":")
	if !ok {
		return spanRef{}
	}
	span, _ := strconv.Atoi(a)
	request, _ := strconv.Atoi(b)
	return spanRef{span, request}
}

// wrapHandler records one span per request served by h while the tracer is
// on, as a child of the caller's span named in the header, and makes itself
// the parent of whatever outgoing calls the request's context reaches.
func (t *tracer) wrapHandler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref := parseSpanRef(r.Header.Get(spanHeader))
		if !t.on.Load() || ref.request == 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := t.start(ref.span, ref.request, name)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanRef{id, ref.request})))
		t.end(id, nil)
	})
}

// tracingTransport records one span per outgoing request made under a traced
// request's context: from RoundTrip until the response body is drained or
// closed, which is when a streamed shard response has fully arrived.
type tracingTransport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, _ := req.Context().Value(spanCtxKey{}).(spanRef)
	if !tt.t.on.Load() || ref.request == 0 {
		return tt.base.RoundTrip(req)
	}
	id := tt.t.start(ref.span, ref.request, tt.name)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, spanRef{id, ref.request}.header())
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.end(id, nil)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, id: id}
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first, counting
// the bytes and lines that crossed the wire.
type spanBody struct {
	io.ReadCloser
	t            *tracer
	id           int
	bytes, lines int
	ended        bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.bytes += n
	b.lines += bytes.Count(p[:n], []byte{'\n'})
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *spanBody) finish() {
	if !b.ended {
		b.ended = true
		b.t.end(b.id, map[string]float64{"bytes": float64(b.bytes), "lines": float64(b.lines)})
	}
}
