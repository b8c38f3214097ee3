//go:build !race

package shardrpc

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/plan"
)

// loopReader serves the same bytes forever, allocating nothing.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.b[r.off:])
		n += c
		r.off = (r.off + c) % len(r.b)
	}
	return n, nil
}

// TestAllocGuardStreamScan: scanning an item line allocates nothing, with or
// without a key, escaped or not, and longer than the read buffer or not —
// the item and the key's string land in buffers the stream reuses. (The race
// detector changes what escapes; the file is excluded under -race.)
func TestAllocGuardStreamScan(t *testing.T) {
	item := `<open_auction id="a1"><initial>145.50</initial> "quoted" &amp; é` + "\n</open_auction>"
	for _, tc := range []struct {
		name string
		item string
		key  *plan.Key
	}{
		{"item", item, nil},
		{"numeric key", item, &plan.Key{Present: true, IsNum: true, Num: 145.5, Str: "145.50"}},
		{"string key", item, &plan.Key{Present: true, Str: `person "p1" <&>`}},
		{"long line", strings.Repeat(item, 40), &plan.Key{Present: true, IsNum: true, Num: -1.5e-9}},
	} {
		for _, html := range []bool{false, true} {
			run := &fakeRun{items: []string{tc.item}, done: Done{}}
			if tc.key != nil {
				run.keys = []plan.Key{*tc.key}
			}
			body := handlerStream(t, run, html)
			line := body[:bytes.IndexByte(body, '\n')+1]
			s := newStream(io.NopCloser(&loopReader{b: line}), "test")
			next := func() {
				if ok, err := s.Next(); !ok || err != nil {
					t.Fatalf("%s: ok=%v err=%v", tc.name, ok, err)
				}
			}
			next() // size the buffers
			if string(s.Item()) != tc.item {
				t.Fatalf("%s: item %q", tc.name, s.Item())
			}
			if got := testing.AllocsPerRun(100, next); got != 0 {
				t.Errorf("%s (html escaped %v): %.1f allocations per line, want 0", tc.name, html, got)
			}
		}
	}
}

// TestAllocGuardStreamRecycled: a stream's read buffer and its item and key
// buffers come from a pool and go back at Close, so opening, scanning and
// closing stream after stream allocates neither the 4 KiB reader nor the
// item buffer — what remains is the Stream itself and the done line's
// decode. Without the pool it is over 4 KiB more per stream.
func TestAllocGuardStreamRecycled(t *testing.T) {
	item := strings.Repeat(`<open_auction id="a1"><initial>145.50</initial></open_auction>`, 16)
	run := &fakeRun{
		items: []string{item, item, item},
		keys:  []plan.Key{{Present: true, Str: "k1"}, {Present: true, Str: "k2"}, {Present: true, Str: "k3"}},
		done:  Done{Stats: &Stats{Rows: 3}},
	}
	body := handlerStream(t, run, false)
	r := bytes.NewReader(body)
	rc := io.NopCloser(r)
	scan := func() {
		r.Reset(body)
		s := newStream(rc, "test")
		n := 0
		for {
			ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		s.Close()
		if n != 3 {
			t.Fatalf("scanned %d items, want 3", n)
		}
	}
	scan() // fill the pool
	var before, after runtime.MemStats
	const runs = 50
	runtime.ReadMemStats(&before)
	for range runs {
		scan()
	}
	runtime.ReadMemStats(&after)
	// 560 bytes when measured: the Stream and the decoded done report with
	// its stats.
	const ceiling = 1024
	if got := float64(after.TotalAlloc-before.TotalAlloc) / runs; got > ceiling {
		t.Errorf("open, scan and close: %.0f bytes per stream, ceiling %d (the read buffer alone is %d)", got, ceiling, streamBufSize)
	}
}
