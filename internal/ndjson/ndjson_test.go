package ndjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// itemLineOracle is the line the writer replaced: what roxmark's oracle CRCs.
func itemLineOracle(t testing.TB, item []byte) []byte {
	line, err := json.Marshal(map[string]string{"item": string(item)})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// itemLineNoHTML is the line a json.Encoder with HTML escaping off writes:
// what the shard wire's item lines must be.
func itemLineNoHTML(t testing.TB, item []byte) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(map[string]string{"item": string(item)}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzAppendJSONString: an item line is byte for byte what encoding/json
// produces for the same item, whatever the bytes — HTML-escaped by default,
// and as a non-escaping json.Encoder writes it after SetEscapeHTML(false).
func FuzzAppendJSONString(f *testing.F) {
	for _, seed := range []string{
		"",
		"plain ascii",
		`<person id="p1">a &amp; b</person>`,
		"<>&",
		`quote " backslash \ slash /`,
		"ctl \x00\x01\x07\b\f\n\r\t\x1f\x7f",
		"sep \u2028 and \u2029 and \u2027\u202a",
		"truncated \xe2\x80",
		"truncated at end \xf0\x9f\x98",
		"invalid \xff\xfe\xc0\xaf",
		"surrogate \xed\xa0\x80",
		"repl \ufffd wide \U0001F600 \u00e9",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, item []byte) {
		rec := httptest.NewRecorder()
		lw := NewWriter(rec)
		defer lw.Close()
		// Twice: the second line is assembled over the first in the reused
		// buffer.
		for i := 0; i < 2; i++ {
			if err := lw.Item(item); err != nil {
				t.Fatal(err)
			}
		}
		want := itemLineOracle(t, item)
		want = append(want, want...)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("item %q:\n got %q\nwant %q", item, got, want)
		}

		rec = httptest.NewRecorder()
		raw := NewWriter(rec)
		defer raw.Close()
		raw.SetEscapeHTML(false)
		if err := raw.Item(item); err != nil {
			t.Fatal(err)
		}
		if got, want := rec.Body.Bytes(), itemLineNoHTML(t, item); !bytes.Equal(got, want) {
			t.Fatalf("item %q, HTML escaping off:\n got %q\nwant %q", item, got, want)
		}
	})
}

// TestFieldLinesMatchEncodingJSON: keyed item lines and terminal lines are the
// lines encoding/json wrote for the same message shapes.
func TestFieldLinesMatchEncodingJSON(t *testing.T) {
	type key struct {
		P bool    `json:"p,omitempty"`
		F float64 `json:"f"`
		S string  `json:"s,omitempty"`
	}
	type message struct {
		Item *string `json:"item,omitempty"`
		Key  *key    `json:"key,omitempty"`
	}
	item := `<a x="1">b & c</a>`
	k := key{P: true, F: 1e21, S: "<k>"}
	stats := map[string]any{"rows": 3, "plan": "a<b"}

	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, v := range []any{
		&message{Item: &item, Key: &k},
		map[string]any{"stats": stats},
		map[string]string{"error": "it <failed>"},
	} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	lw := NewWriter(rec)
	defer lw.Close()
	for _, err := range []error{
		lw.ItemRaw([]byte(item), "key", []byte(`{"p":true,"f":1e+21,"s":"\u003ck\u003e"}`)),
		lw.Field("stats", stats),
		lw.Field("error", "it <failed>"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Body.String(); got != want.String() {
		t.Fatalf("lines differ:\n got %q\nwant %q", got, want.String())
	}
}

// flushRecorder is a ResponseWriter that counts flushes and notes any use
// after the handler "returned".
type flushRecorder struct {
	mu       sync.Mutex
	body     bytes.Buffer
	flushes  int
	writeErr error

	returned  atomic.Bool
	lateUse   atomic.Bool
	flushGate chan struct{} // when non-nil, Flush parks until it is closed
	inFlush   chan struct{} // receives once per Flush entered
}

func (r *flushRecorder) Header() http.Header { return http.Header{} }
func (r *flushRecorder) WriteHeader(int)     {}

func (r *flushRecorder) Write(p []byte) (int, error) {
	if r.returned.Load() {
		r.lateUse.Store(true)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.writeErr != nil {
		return 0, r.writeErr
	}
	return r.body.Write(p)
}

func (r *flushRecorder) Flush() {
	if r.returned.Load() {
		r.lateUse.Store(true)
	}
	if r.inFlush != nil {
		r.inFlush <- struct{}{}
	}
	if r.flushGate != nil {
		<-r.flushGate
	}
	r.mu.Lock()
	r.flushes++
	r.mu.Unlock()
}

func (r *flushRecorder) flushCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flushes
}

// TestFlushBoundedDelay: a written line is flushed within the interval with
// no further write, lines written inside one dirty window share one flush,
// and a quiet writer arms nothing.
func TestFlushBoundedDelay(t *testing.T) {
	testutil.CheckGoroutines(t)
	rec := &flushRecorder{inFlush: make(chan struct{}, 4)}
	lw := NewWriter(rec)
	defer lw.Close()
	for i := 0; i < 3; i++ {
		if err := lw.Item([]byte("<a/>")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-rec.inFlush:
	case <-time.After(5 * time.Second):
		t.Fatal("written lines were never flushed")
	}
	time.Sleep(3 * flushInterval)
	if n := rec.flushCount(); n != 1 {
		t.Errorf("%d flushes for one dirty window, want 1", n)
	}
	// The next line opens the next window.
	if err := lw.Item([]byte("<b/>")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rec.inFlush:
	case <-time.After(5 * time.Second):
		t.Fatal("second window was never flushed")
	}
}

// TestNoFlushAfterClose: once Close returned the writer never touches the
// response again — the handler may have returned, and using a ResponseWriter
// after that is a data race inside net/http. Two ways in: a timer still
// pending at Close, and a flush already running when Close is called, which
// Close must wait out.
func TestNoFlushAfterClose(t *testing.T) {
	testutil.CheckGoroutines(t)

	t.Run("pending timer", func(t *testing.T) {
		for i := 0; i < 50; i++ {
			rec := &flushRecorder{}
			lw := NewWriter(rec)
			if err := lw.Item([]byte("<a/>")); err != nil {
				t.Fatal(err)
			}
			if i%2 == 1 {
				// Land Close on the timer's deadline as well as before it.
				time.Sleep(flushInterval - time.Millisecond)
			}
			lw.Close()
			rec.returned.Store(true)
			if i%10 == 0 {
				time.Sleep(2 * flushInterval)
			}
			if rec.lateUse.Load() {
				t.Fatal("response used after Close returned")
			}
		}
		time.Sleep(2 * flushInterval)
	})

	t.Run("flush in flight", func(t *testing.T) {
		rec := &flushRecorder{flushGate: make(chan struct{}), inFlush: make(chan struct{}, 1)}
		lw := NewWriter(rec)
		if err := lw.Item([]byte("<a/>")); err != nil {
			t.Fatal(err)
		}
		<-rec.inFlush // the timer's flush is now parked inside the response
		closed := make(chan struct{})
		go func() {
			lw.Close()
			rec.returned.Store(true)
			close(closed)
		}()
		select {
		case <-closed:
			t.Fatal("Close returned while a flush was still using the response")
		case <-time.After(3 * flushInterval):
		}
		close(rec.flushGate)
		<-closed
		if rec.lateUse.Load() {
			t.Fatal("response used after Close returned")
		}
	})
}

// TestFirstWriteErrorSticks: after a failed write every later line — the
// terminal one included — fails with the same error and leaves the response
// alone.
func TestFirstWriteErrorSticks(t *testing.T) {
	errGone := errors.New("client went away")
	rec := &flushRecorder{}
	lw := NewWriter(rec)
	defer lw.Close()
	if err := lw.Item([]byte("<a/>")); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	rec.writeErr = errGone
	rec.mu.Unlock()
	if err := lw.Item([]byte("<b/>")); !errors.Is(err, errGone) {
		t.Fatalf("failed write returned %v", err)
	}
	rec.mu.Lock()
	rec.writeErr = nil
	rec.mu.Unlock()
	if err := lw.Field("stats", 1); !errors.Is(err, errGone) {
		t.Errorf("terminal line after a failed write returned %v, want the first error", err)
	}
	if got, want := rec.body.String(), string(itemLineOracle(t, []byte("<a/>"))); got != want {
		t.Errorf("response holds %q, want only the line written before the failure", got)
	}
}
