package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/shardrpc"
	"repro/internal/testutil"
	"repro/internal/xmltree"
)

// TestStreamLinesMatchEncodingJSON: an NDJSON response is, byte for byte, the
// lines encoding/json wrote for the same items — what roxmark's oracle CRCs —
// for document queries (items straight from the cursor's buffer) and
// collection queries (items from the gather).
func TestStreamLinesMatchEncodingJSON(t *testing.T) {
	eng := rox.NewEngine(rox.WithSeed(1))
	if err := eng.LoadSource(rox.FromXML("ppl.xml", peopleXML(0, 50, 0))); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if err := eng.LoadCollectionSource("ppl", rox.FromXML(fmt.Sprintf("ppl-%d.xml", s), peopleXML(s*100, 30, 0))); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(rox.NewPool(eng, 2), Config{}))
	defer ts.Close()
	for _, q := range []string{
		`for $p in doc("ppl.xml")//person return $p`,
		`for $p in doc("ppl.xml")//person return <r>{$p}</r> limit 7`,
		`for $p in doc("ppl.xml")//person return sum($p/salary)`,
		`for $p in collection("ppl")//person order by $p/age return $p limit 40`,
		`for $p in collection("ppl")//person return count($p)`,
	} {
		var buffered QueryResponse
		resp, err := http.Get(queryURL(ts.URL, q))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&buffered)
		resp.Body.Close()
		if err != nil || len(buffered.Items) == 0 {
			t.Fatalf("%s: buffered response: %v, %d items", q, err, len(buffered.Items))
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		for _, it := range buffered.Items {
			if err := enc.Encode(map[string]string{"item": it}); err != nil {
				t.Fatal(err)
			}
		}

		resp, err = http.Get(queryURL(ts.URL, q, "stream", "ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(body, want.Bytes()) {
			t.Fatalf("%s: item lines differ from encoding/json's:\n got %q\nwant %q", q, body, want.Bytes())
		}
		var tail struct{ Stats *QueryStats }
		if err := json.Unmarshal(body[want.Len():], &tail); err != nil || tail.Stats == nil {
			t.Fatalf("%s: after the items comes %q, want one stats line (%v)", q, body[want.Len():], err)
		}
		if tail.Stats.Rows != len(buffered.Items) {
			t.Errorf("%s: stats line reports %d rows, streamed %d", q, tail.Stats.Rows, len(buffered.Items))
		}
	}
}

// TestBufferedMatchesEncodingJSON: a buffered /v1/query body, written item by
// item through the stream's encoder, is byte for byte what encoding/json
// writes for the same QueryResponse — items that need escaping (<, >, &, a
// quote, a tab, U+2028), an empty result, an empty aggregate item, a
// constructor return, an ordered collection gather — and the status still
// waits for the end of the evaluation: a remote shard that cuts its stream
// after one item answers 502 with the error envelope, never a short 200.
func TestBufferedMatchesEncodingJSON(t *testing.T) {
	eng := rox.NewEngine(rox.WithSeed(1))
	// Text and attribute values serialize a tab as a character reference; a
	// comment keeps its tab.
	esc, err := xmltree.Parse("esc.xml", strings.NewReader(
		"<r><e id=\"e1\">a &lt; b &gt; c &amp; d<!--tab\there-->sep\u2028end</e><e id=\"e2\"><v>1</v></e></r>"),
		xmltree.ParseOptions{KeepComments: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadSource(rox.FromDocument(esc)); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if err := eng.LoadCollectionSource("ppl", rox.FromXML(fmt.Sprintf("ppl-%d.xml", s), peopleXML(s*100, 30, 0))); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(rox.NewPool(eng, 2), Config{}))
	defer ts.Close()
	for _, tc := range []struct {
		q     string
		items int
		chars string // what the first item must contain
	}{
		{`for $e in doc("esc.xml")//e return $e`, 2, "<>&\"\t\u2028"},
		{`for $e in doc("esc.xml")//nothing return $e`, 0, ""},
		{`for $e in doc("esc.xml")//e return avg($e/missing)`, 1, ""},
		{`for $e in doc("esc.xml")//e return <r>{$e}</r>`, 2, "<>&\"\t\u2028"},
		{`for $p in collection("ppl")//person order by $p/age descending return $p limit 40`, 40, "<>\""},
	} {
		resp, err := http.Get(queryURL(ts.URL, tc.q))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, content type %q, %v: %s", tc.q, resp.StatusCode, resp.Header.Get("Content-Type"), err, body)
		}
		var decoded QueryResponse
		if err := json.Unmarshal(body, &decoded); err != nil || len(decoded.Items) != tc.items {
			t.Fatalf("%s: %d items, want %d (%v): %s", tc.q, len(decoded.Items), tc.items, err, body)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(decoded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%s: body differs from encoding/json's:\n got %s\nwant %s", tc.q, body, want.Bytes())
		}
		if tc.items == 0 && !bytes.HasPrefix(body, []byte(`{"items":[],`)) {
			t.Errorf("%s: empty result renders as %s, want an empty array", tc.q, body)
		}
		for _, c := range tc.chars {
			if !strings.ContainsRune(decoded.Items[0], c) {
				t.Errorf("%s: item %q does not contain %q: its escape goes untested", tc.q, decoded.Items[0], c)
			}
		}
		if tc.items == 1 && decoded.Items[0] != "" {
			t.Errorf("%s: aggregate over nothing = %q, want the empty item", tc.q, decoded.Items[0])
		}
	}

	shard := http.NewServeMux()
	shard.HandleFunc("POST /v1/shards/{shard}/execute", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		json.NewEncoder(w).Encode(map[string]string{"item": "<x>first</x>"})
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // the connection drops before the done line
	})
	shardSrv := httptest.NewServer(shard)
	defer shardSrv.Close()
	coord := rox.NewEngine()
	if err := coord.LoadCollectionRemote(context.Background(), "c",
		[]rox.Endpoint{{URL: shardSrv.URL, Shards: []string{"c-0.xml"}}}); err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(New(rox.NewPool(coord, 2), Config{}))
	defer cs.Close()
	resp, err := http.Get(queryURL(cs.URL, `for $x in collection("c")//x return $x`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&envelope); resp.StatusCode != http.StatusBadGateway || err != nil || envelope["error"] == "" {
		t.Errorf("remote stream cut after one item: status %d, body %v (%v), want 502 with an error envelope", resp.StatusCode, envelope, err)
	}
}

// TestStreamFlushesWhileSourceStalls pins "slow consumers see progress" for
// /v1/query?stream=ndjson as a property, not a syscall per item: the row source
// (a remote shard) yields one item and then stalls, and that item's line must
// reach the client within the line writer's flush bound while the handler is
// still parked in rows.Next. (The deadline here is far above the bound; what it
// tells apart is "flushed by the timer" from "flushed when the handler
// returns".)
func TestStreamFlushesWhileSourceStalls(t *testing.T) {
	testutil.CheckGoroutines(t)
	release := make(chan struct{})
	shard := http.NewServeMux()
	shard.HandleFunc("POST /v1/shards/{shard}/execute", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		item := "<x>first</x>"
		json.NewEncoder(w).Encode(map[string]string{"item": item})
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		json.NewEncoder(w).Encode(map[string]shardrpc.Done{"done": {Stats: &shardrpc.Stats{Rows: 1}}})
	})
	shardSrv := httptest.NewServer(shard)
	defer shardSrv.Close()

	eng := rox.NewEngine()
	if err := eng.LoadCollectionRemote(context.Background(), "c",
		[]rox.Endpoint{{URL: shardSrv.URL, Shards: []string{"c-0.xml"}}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(rox.NewPool(eng, 2), Config{}))
	defer ts.Close()

	resp, err := http.Get(queryURL(ts.URL, `for $x in collection("c")//x return $x`, "stream", "ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	lines := make(chan string, 2)
	go func() {
		defer close(lines)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			lines <- line
		}
	}()
	select {
	case line := <-lines:
		if want := `{"item":"\u003cx\u003efirst\u003c/x\u003e"}` + "\n"; line != want {
			t.Fatalf("first line = %q, want %q", line, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the item line never reached the client while the row source was stalled")
	}
	close(release) // the handler was parked in Next until now
	var last string
	for line := range lines {
		last = line
	}
	if !bytes.HasPrefix([]byte(last), []byte(`{"stats":`)) {
		t.Fatalf("stream ended with %q, want the stats line", last)
	}
}

// discardResponse is a flushable ResponseWriter that keeps nothing, so an
// allocation count over the handler counts the handler.
type discardResponse struct {
	h     http.Header
	bytes int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.bytes += len(p); return len(p), nil }
func (d *discardResponse) Flush()                      {}

// newScanHandler serves roxmark's scan class over the default XMark document.
func newScanHandler(tb testing.TB) *Handler {
	tb.Helper()
	eng := rox.NewEngine(rox.WithSeed(1))
	_ = eng.LoadSource(rox.FromDocument(datagen.XMark(datagen.DefaultXMarkConfig())))
	return New(rox.NewPool(eng, 2), Config{})
}

// scan runs the scan through the handler, limit items as an NDJSON stream
// (stream "ndjson") or a buffered body (stream ""), and returns the response
// size.
func scan(tb testing.TB, h *Handler, stream, limit string) int {
	req := httptest.NewRequest(http.MethodGet,
		queryURL("", `for $p in doc("xmark.xml")//person[.//province] return $p`, "stream", stream, "limit", limit), nil)
	w := &discardResponse{h: http.Header{}}
	h.ServeHTTP(w, req)
	if w.bytes == 0 {
		tb.Fatal("empty response")
	}
	return w.bytes
}

// BenchmarkStreamNDJSON is the serve layer's probe: one replayed 200-item scan
// per iteration from request to the last response byte, through the handler,
// the cursor's item buffer and the line writer.
func BenchmarkStreamNDJSON(b *testing.B) {
	h := newScanHandler(b)
	scan(b, h, "ndjson", "200") // optimize once; every iteration replays
	b.ReportAllocs()
	b.ResetTimer()
	size := 0
	for i := 0; i < b.N; i++ {
		size = scan(b, h, "ndjson", "200")
	}
	b.SetBytes(int64(size))
	b.ReportMetric(200*float64(b.N)/b.Elapsed().Seconds(), "items/s")
}
