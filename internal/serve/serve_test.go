package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro"
)

// queryURL builds a /v1/query URL with a properly escaped query text.
func queryURL(base, q string, params ...string) string {
	v := url.Values{}
	v.Set("q", q)
	for i := 0; i+1 < len(params); i += 2 {
		v.Set(params[i], params[i+1])
	}
	return base + "/v1/query?" + v.Encode()
}

// peopleXML builds one shard of deterministic people data. pad inflates each
// item so a full scan overflows socket buffers and the stream stays live
// long enough for a mid-stream drain to land.
func peopleXML(base, n, pad int) string {
	var sb strings.Builder
	sb.WriteString("<people>")
	for i := 0; i < n; i++ {
		id := base + i
		fmt.Fprintf(&sb, `<person id="p%05d"><name>n%d</name><age>%d</age><salary>%d</salary><bio>%s</bio></person>`,
			id, id, 20+(id*7)%50, 1000+(id*37)%900, strings.Repeat("x", pad))
	}
	sb.WriteString("</people>")
	return sb.String()
}

// newPeopleHandler builds the production handler over a 4-shard collection.
func newPeopleHandler(t *testing.T, pad int) *Handler {
	t.Helper()
	eng := rox.NewEngine(rox.WithSeed(1))
	for s := 0; s < 4; s++ {
		if err := eng.LoadCollectionSource("ppl", rox.FromXML(fmt.Sprintf("ppl-%d.xml", s), peopleXML(s*100, 100, pad))); err != nil {
			t.Fatal(err)
		}
	}
	return New(rox.NewPool(eng, 4), Config{})
}

// newPeopleServer boots the production handler over a 4-shard collection.
func newPeopleServer(t *testing.T, pad int) (*Handler, *httptest.Server) {
	t.Helper()
	h := newPeopleHandler(t, pad)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return h, ts
}

// socketBuffer is the kernel buffer size asked for on either end of a
// connection a test needs to stay mid-stream. The kernel may double it, and
// the two ends then hold a few hundred KiB, a fraction of a 4 MB stream;
// a few KiB would do too, but stall the stream on TCP's zero-window probes.
const socketBuffer = 64 << 10

// smallSendListener gives every accepted connection a small send buffer.
type smallSendListener struct{ net.Listener }

func (l smallSendListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		err = tc.SetWriteBuffer(socketBuffer)
	}
	return c, err
}

// smallReceiveClient returns a client whose connections have a small
// receive buffer.
func smallReceiveClient(t *testing.T) *http.Client {
	var d net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := d.DialContext(ctx, network, addr)
		if tc, ok := c.(*net.TCPConn); ok {
			err = tc.SetReadBuffer(socketBuffer)
		}
		return c, err
	}}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// ndjsonLines reads an NDJSON stream to EOF, returning the decoded line
// kinds in order ("item", "stats", "error").
func ndjsonLines(t *testing.T, r *bufio.Scanner) (kinds []string, lastErr string) {
	t.Helper()
	for r.Scan() {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(r.Bytes(), &obj); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", r.Text(), err)
		}
		switch {
		case obj["item"] != nil:
			kinds = append(kinds, "item")
		case obj["stats"] != nil:
			kinds = append(kinds, "stats")
		case obj["error"] != nil:
			kinds = append(kinds, "error")
			json.Unmarshal(obj["error"], &lastErr)
		default:
			t.Fatalf("NDJSON line with unknown keys: %q", r.Text())
		}
	}
	if err := r.Err(); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	return kinds, lastErr
}

// TestDrainTerminatesStreamCleanly is the shutdown-under-load contract: a
// client streaming NDJSON when the server drains receives a terminal
// {"error": ...} line — the stream is explicitly failed, not truncated in a
// way a naive client could misread as a short success.
func TestDrainTerminatesStreamCleanly(t *testing.T) {
	// ~4MB of items against socketBuffer on either end: the handler is still
	// writing when Drain fires, however large the loopback defaults are.
	h := newPeopleHandler(t, 10*1024)
	ts := httptest.NewUnstartedServer(h)
	ts.Listener = smallSendListener{ts.Listener}
	ts.Start()
	t.Cleanup(ts.Close)
	resp, err := smallReceiveClient(t).Get(queryURL(ts.URL, `for $p in collection("ppl")//person return $p`, "stream", "ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	if !strings.Contains(sc.Text(), `"item"`) {
		t.Fatalf("first line is not an item: %q", sc.Text())
	}
	h.Drain()
	kinds, errLine := ndjsonLines(t, sc)
	if len(kinds) == 0 {
		t.Fatal("stream ended immediately after drain with no terminal line")
	}
	last := kinds[len(kinds)-1]
	if last != "error" {
		t.Fatalf("drained stream ended with %q line, want \"error\" (kinds: %v)", last, tail(kinds, 5))
	}
	if errLine == "" {
		t.Fatal("terminal error line carries no message")
	}
	for _, k := range kinds[:len(kinds)-1] {
		if k != "item" {
			t.Fatalf("unexpected %q line before the terminal error", k)
		}
	}
}

func tail(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}

// TestDrainFailsNewRequests: after Drain every request — buffered queries
// included — is refused with 503, the same classification as a client
// cancellation, so load balancers stop routing here.
func TestDrainFailsNewRequests(t *testing.T) {
	h, ts := newPeopleServer(t, 0)
	h.Drain()
	resp, err := http.Get(queryURL(ts.URL, `for $p in collection("ppl")//person return count($p)`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query status = %d, want 503", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["error"] == "" {
		t.Error("post-drain refusal carries no error message")
	}
}

// TestCompleteStreamEndsWithStats pins the happy-path terminal line, the
// other half of the truncation-detection contract.
func TestCompleteStreamEndsWithStats(t *testing.T) {
	_, ts := newPeopleServer(t, 0)
	resp, err := http.Get(queryURL(ts.URL, `for $p in collection("ppl")//person return $p`, "stream", "ndjson", "limit", "5"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	kinds, _ := ndjsonLines(t, sc)
	want := []string{"item", "item", "item", "item", "item", "stats"}
	if len(kinds) != len(want) {
		t.Fatalf("stream lines = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("stream lines = %v, want %v", kinds, want)
		}
	}
}

// TestInvalidRequestIsClientError: a window on an aggregate return is the
// client's mistake — rox.ErrInvalidRequest — so both the buffered and the
// NDJSON /v1/query answer 400 with the error, never 500; StatusFor maps the
// sentinel itself, whatever the wrapping.
func TestInvalidRequestIsClientError(t *testing.T) {
	_, ts := newPeopleServer(t, 0)
	const q = `for $p in collection("ppl")//person return count($p)`
	for _, stream := range []string{"", "ndjson"} {
		resp, err := http.Get(queryURL(ts.URL, q, "limit", "5", "stream", stream))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("stream=%q: decode error body: %v", stream, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], "aggregate") {
			t.Errorf("stream=%q: status %d, body %v; want 400 naming the aggregate", stream, resp.StatusCode, body)
		}
	}
	if got := StatusFor(fmt.Errorf("page 2: %w", rox.ErrInvalidRequest)); got != http.StatusBadRequest {
		t.Errorf("StatusFor(wrapped ErrInvalidRequest) = %d, want 400", got)
	}
}

// TestCompileBoundIsClientError: a query nested past the compiler's
// predicate-depth cap, posted as a 300 KB body under the 1 MiB limit, is a
// 400 naming the cap.
func TestCompileBoundIsClientError(t *testing.T) {
	_, ts := newPeopleServer(t, 0)
	const levels = 100_000
	q := `for $p in collection("ppl")//person` + strings.Repeat("[a", levels) + strings.Repeat("]", levels) + ` return $p`
	resp, err := http.Post(ts.URL+"/v1/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], "MaxPredicateDepth") {
		t.Errorf("status %d, body %v; want 400 naming MaxPredicateDepth", resp.StatusCode, body)
	}
}

// TestStatsHealthFields: /v1/stats exports the process-health samples the
// load harness records (goroutine count, heap bytes).
func TestStatsHealthFields(t *testing.T) {
	_, ts := newPeopleServer(t, 0)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Goroutines int    `json:"goroutines"`
		HeapBytes  uint64 `json:"heap_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Goroutines < 1 {
		t.Errorf("goroutines = %d, want >= 1", stats.Goroutines)
	}
	if stats.HeapBytes == 0 {
		t.Error("heap_bytes = 0")
	}
}

// TestDrainUnderConcurrentLoad drains while many streams are in flight:
// every stream must end with a terminal line (stats if it finished before
// the drain landed, error otherwise) within the shutdown deadline.
func TestDrainUnderConcurrentLoad(t *testing.T) {
	h, ts := newPeopleServer(t, 2048)
	const n = 8
	type outcome struct {
		last string
		err  error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Get(queryURL(ts.URL, `for $p in collection("ppl")//person return $p`, "stream", "ndjson"))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			last := ""
			for sc.Scan() {
				switch {
				case strings.Contains(sc.Text(), `"stats"`):
					last = "stats"
				case strings.Contains(sc.Text(), `"error"`):
					last = "error"
				default:
					last = "item"
				}
			}
			results <- outcome{last: last, err: sc.Err()}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the streams start
	h.Drain()
	for i := 0; i < n; i++ {
		select {
		case o := <-results:
			if o.err != nil {
				t.Errorf("stream %d failed at transport level: %v", i, o.err)
			} else if o.last != "stats" && o.last != "error" {
				t.Errorf("stream %d ended on %q line, want stats or error terminal", i, o.last)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("drained streams did not terminate")
		}
	}
}

// TestPartialShardErrorOnTheWire: a shard the ShardRetryThenPartial policy
// gave up on carries its failure over HTTP, not just in the engine's Stats —
// the NDJSON terminal line and the buffered body both name the error in that
// shard's entry, and the live shard's entry carries none. Without it a
// client sees "truncated" with no reason.
func TestPartialShardErrorOnTheWire(t *testing.T) {
	shardServer := func(doc string, base int) *httptest.Server {
		eng := rox.NewEngine(rox.WithSeed(1))
		if err := eng.LoadSource(rox.FromXML(doc, peopleXML(base, 10, 0))); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(rox.NewPool(eng, 2), Config{Role: "shard"}))
		t.Cleanup(ts.Close)
		return ts
	}
	live, dead := shardServer("ppl-0.xml", 0), shardServer("ppl-1.xml", 100)
	dead.Close()
	coord := rox.NewEngine(rox.WithSeed(1), rox.WithShardRetry(rox.ShardRetryThenPartial))
	if err := coord.LoadCollectionRemote(t.Context(), "ppl", []rox.Endpoint{
		{URL: live.URL, Shards: []string{"ppl-0.xml"}},
		{URL: dead.URL, Shards: []string{"ppl-1.xml"}},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(rox.NewPool(coord, 2), Config{}))
	t.Cleanup(ts.Close)

	// wireStats is the part of a stats object under test, read without the
	// engine's types so the check sees exactly the bytes on the wire.
	type wireStats struct {
		Truncated bool `json:"truncated"`
		Shards    []struct {
			Shard string `json:"shard"`
			Error string `json:"error"`
		} `json:"shards"`
	}
	check := func(form string, st wireStats) {
		t.Helper()
		if !st.Truncated || len(st.Shards) != 2 {
			t.Fatalf("%s: stats %+v, want truncated with 2 shards", form, st)
		}
		for _, sh := range st.Shards {
			if dead := sh.Shard == "ppl-1.xml"; dead != (sh.Error != "") {
				t.Errorf("%s: shard %s error %q", form, sh.Shard, sh.Error)
			}
		}
	}
	const q = `for $p in collection("ppl")//person return $p`
	get := func(params ...string) []byte {
		t.Helper()
		resp, err := http.Get(queryURL(ts.URL, q, params...))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, err %v: %s", resp.StatusCode, err, body)
		}
		return body
	}

	lines := bytes.Split(bytes.TrimSpace(get("stream", "ndjson")), []byte("\n"))
	var terminal struct {
		Stats *wireStats `json:"stats"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &terminal); err != nil || terminal.Stats == nil {
		t.Fatalf("NDJSON terminal line %q: %v", lines[len(lines)-1], err)
	}
	check("ndjson", *terminal.Stats)

	var buffered struct {
		Items []string  `json:"items"`
		Stats wireStats `json:"stats"`
	}
	if err := json.Unmarshal(get(), &buffered); err != nil {
		t.Fatal(err)
	}
	if len(buffered.Items) != 10 {
		t.Errorf("buffered body has %d items, want the live shard's 10", len(buffered.Items))
	}
	check("buffered", buffered.Stats)
}

// TestQueryHugeWindow: a limit whose sum with the offset overflows int is a
// window to the end of the result, not a panic of the handler.
func TestQueryHugeWindow(t *testing.T) {
	_, ts := newPeopleServer(t, 0)
	for _, q := range []string{
		`for $p in collection("ppl")//person order by $p/age return $p`,
		`for $p in collection("ppl")//person return $p`,
	} {
		resp, err := http.Get(queryURL(ts.URL, q, "limit", "9223372036854775807", "offset", "1"))
		if err != nil {
			t.Fatal(err)
		}
		var qr QueryResponse
		err = json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || len(qr.Items) != 399 {
			t.Fatalf("%s: status %d, %d items (%v), want 200 and 399", q, resp.StatusCode, len(qr.Items), err)
		}
	}
}
