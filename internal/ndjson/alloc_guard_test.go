//go:build !race

package ndjson

import (
	"bytes"
	"net/http"
	"testing"
)

// discardResponse is a ResponseWriter that drops what it is sent and cannot
// flush, so a Writer over it arms no timer.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestAllocGuardWriterRecycled: a Writer's line buffer comes from a pool at
// NewWriter and goes back at Close, so response after response allocates
// only the Writer — never a line buffer regrown from empty. (The race
// detector changes what escapes; the file is excluded under -race.)
func TestAllocGuardWriterRecycled(t *testing.T) {
	w := &discardResponse{h: http.Header{}}
	item := bytes.Repeat([]byte(`<person id="p1"><name>n1</name></person>`), 20)
	respond := func() {
		lw := NewWriter(w)
		for range 10 {
			if err := lw.Item(item); err != nil {
				t.Fatal(err)
			}
		}
		lw.Close()
	}
	respond() // fill the pool
	if got := testing.AllocsPerRun(100, respond); got > 1 {
		t.Errorf("a 10-line response: %.1f allocations, want 1 (the Writer)", got)
	}
}
