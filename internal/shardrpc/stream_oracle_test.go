package shardrpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ndjson"
	"repro/internal/plan"
)

// Message is one NDJSON line of an execute response as encoding/json sees
// it: an item (with its sort key when the query orders), the done report, or
// a bounded run's leading count. The client decoded every line into one
// through a json.Decoder before Stream scanned the lines itself; it stays as
// the scanner's oracle.
type Message struct {
	Item   *string   `json:"item,omitempty"`
	Key    *plan.Key `json:"key,omitempty"`
	Done   *Done     `json:"done,omitempty"`
	Before *int      `json:"before,omitempty"`
}

// line is one scanned stream line, kept past the scanner's next call.
type line struct {
	item    string
	key     plan.Key
	keyed   bool
	done    *Done
	before  int
	bounded bool // a leading before line
}

// oracleLines decodes a stream the way the client did before the scanner:
// json.Decoder → Message, up to and including the done report.
func oracleLines(body []byte) ([]line, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var out []line
	for {
		var m Message
		if err := dec.Decode(&m); err != nil {
			return out, err
		}
		switch {
		case m.Done != nil:
			return append(out, line{done: m.Done}), nil
		case m.Before != nil && m.Item == nil && len(out) == 0:
			out = append(out, line{before: *m.Before, bounded: true})
			continue
		case m.Item == nil:
			return out, errors.New("malformed stream message")
		}
		l := line{item: *m.Item}
		if m.Key != nil {
			l.key, l.keyed = *m.Key, true
		}
		out = append(out, l)
	}
}

// scanLines drains a stream through the scanner, copying what it must not
// keep (the item and the key's string alias the stream's buffers), and closes
// it: its buffers go back to the pool for the next stream.
func scanLines(body []byte) ([]line, error) {
	s := newStream(io.NopCloser(bytes.NewReader(body)), "test")
	defer s.Close()
	var out []line
	for {
		ok, err := s.Next()
		if err != nil {
			return out, err
		}
		if n, bounded := s.Before(); bounded && len(out) == 0 {
			out = append(out, line{before: n, bounded: true})
		}
		if !ok {
			return append(out, line{done: s.Done()}), nil
		}
		l := line{item: string(s.Item())}
		l.key, l.keyed = s.Key()
		l.key.Str = strings.Clone(l.key.Str)
		out = append(out, l)
	}
}

// sameLines compares two scans exactly: float keys by bits, done reports
// member by member.
func sameLines(a, b []line) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.item != y.item || x.keyed != y.keyed || x.before != y.before || x.bounded != y.bounded || x.key.Present != y.key.Present ||
			x.key.IsNum != y.key.IsNum || x.key.Str != y.key.Str ||
			math.Float64bits(x.key.Num) != math.Float64bits(y.key.Num) || !reflect.DeepEqual(x.done, y.done) {
			return false
		}
	}
	return true
}

// handlerStream is what the execute handler sends for run: through
// HandleExecute itself (unescaped items), or — html set — through the same
// line loop on an HTML-escaping writer, the item lines of older servers.
func handlerStream(t testing.TB, run ShardRun, html bool) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	if html {
		lw := ndjson.NewWriter(rec)
		writeRun(lw, run)
		lw.Close()
		return rec.Body.Bytes()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards/{shard}/execute", HandleExecute(&fakeExec{run: run}))
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shards/s.xml/execute",
		strings.NewReader(`{"collection":"c","query":"q"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// FuzzStreamScannerMatchesJSON: for any item bytes and keys the handler
// writes — unescaped, as it does now, or HTML-escaped, as older servers did,
// after a bounded run's leading count line or without one — the scanner
// returns exactly the count, items, keys and done report that
// encoding/json decodes from the same bytes — also when the stream scans
// through buffers recycled from a stream of other sizes, so nothing a
// previous stream left in them shows. Every truncation of the stream is an
// error, never a short success; a stream with one byte changed is an error
// or, if the scanner accepts it, exactly what encoding/json reads. Nothing
// panics.
func FuzzStreamScannerMatchesJSON(f *testing.F) {
	for _, seed := range []struct {
		item1, item2 string
		s            string
		num          float64
		flags        uint8
	}{
		{"<a/>", "<b>text</b>", "", 0, 0},
		{`<person id="p1">a &amp; b</person>`, "", "zebra", 0, keyedFlag | presentFlag},
		{"<k>145.50</k>", "<k>7</k>", "145.50", 145.5, keyedFlag | presentFlag | numFlag},
		{"<>&", `quote " backslash \ slash /`, `<k a="1">&</k> \ /`, 0, keyedFlag | presentFlag | htmlFlag},
		{"ctl \x00\x01\x07\b\f\n\r\t\x1f\x7f", "sep \u2028 and \u2029", "ctl \x00\x1f\x7f\b\f\n\r\t", -1.5e-9, keyedFlag | presentFlag | numFlag},
		{"invalid \xff\xfe\xc0\xaf", "truncated \xe2\x80", "invalid \xff\xc0\xaf truncated \xe2\x80", 1e21, keyedFlag | presentFlag | numFlag | htmlFlag},
		{"surrogate \xed\xa0\x80", "repl \ufffd wide \U0001F600 \u00e9", "caf\u00e9 \U0001F600", math.MaxFloat64, keyedFlag | presentFlag | numFlag},
		{strings.Repeat("<long line/>", 500), "short", strings.Repeat("s", 5000), math.SmallestNonzeroFloat64, keyedFlag | presentFlag | numFlag},
		{"<a/>", "<b/>", "p<q", 3, keyedFlag | presentFlag | numFlag | legacyDoneFlag},
		{"<a/>", "<b/>", "", 0, omittedZerosFlag},
		{"<k>7</k>", "<k>7</k>", "7", 7, keyedFlag | presentFlag | numFlag | boundedFlag},
		{"", "<a/>", "", 0, boundedFlag | htmlFlag},
	} {
		f.Add([]byte(seed.item1), []byte(seed.item2), seed.s, seed.num, seed.flags, uint16(7), uint16(3), byte('"'))
	}
	f.Fuzz(func(t *testing.T, item1, item2 []byte, s string, num float64, flags uint8, cut, flip uint16, to byte) {
		if math.IsNaN(num) || math.IsInf(num, 0) {
			t.Skip("keys are finite by construction; encoding/json rejects the rest")
		}
		run := &fakeRun{
			items: []string{string(item1), string(item2)},
			done:  Done{Stats: &Stats{Rows: 2, Scanned: 3, Plan: s}},
		}
		if flags&keyedFlag != 0 {
			k := plan.Key{Present: flags&presentFlag != 0, IsNum: flags&numFlag != 0, Num: num, Str: s}
			k2 := k
			k2.Str += "2" // a different string per line: the scanner reuses its buffer
			run.keys = []plan.Key{k, k2}
		}
		if flags&boundedFlag != 0 {
			run.before, run.bound = int(cut), true
		}
		body := handlerStream(t, run, flags&htmlFlag != 0)
		if flags&omittedZerosFlag != 0 {
			body = omittedZeros(body)
		}
		if flags&legacyDoneFlag != 0 {
			body = legacyDone(t, body)
		}

		want, err := oracleLines(body)
		if err != nil {
			t.Fatalf("oracle rejects the handler's stream %q: %v", body, err)
		}
		got, err := scanLines(body)
		if err != nil {
			t.Fatalf("scanner rejects the handler's stream %q: %v", body, err)
		}
		if !sameLines(got, want) {
			t.Fatalf("stream %q:\n scanner %+v\n  oracle %+v", body, got, want)
		}

		// The closed stream's buffers are in the pool. A stream of other
		// sizes — a longer item and key string, a line past the read
		// buffer — takes and returns them; body must scan the same again.
		other := handlerStream(t, &fakeRun{
			items: []string{string(item2) + strings.Repeat("~", streamBufSize), string(item1[:len(item1)/2])},
			keys:  []plan.Key{{Present: true, Str: s + strings.Repeat("s", 300)}, {Present: true, IsNum: true, Num: 1}},
			done:  Done{Stats: &Stats{Rows: 2}},
		}, flags&htmlFlag == 0)
		if _, err := scanLines(other); err != nil {
			t.Fatalf("scanner rejects the handler's stream %q: %v", other, err)
		}
		if again, err := scanLines(body); err != nil || !sameLines(again, want) {
			t.Fatalf("stream %q through recycled buffers:\n scanner %+v (%v)\n  oracle %+v", body, again, err, want)
		}

		if got, err := scanLines(body[:int(cut)%len(body)]); err == nil {
			t.Fatalf("stream truncated to %d of %d bytes scanned without error: %+v", int(cut)%len(body), len(body), got)
		}

		bad := bytes.Clone(body)
		bad[int(flip)%len(bad)] = to
		if got, err := scanLines(bad); err == nil {
			want, err := oracleLines(bad)
			if err != nil || !sameLines(got, want) {
				t.Fatalf("changed stream %q accepted by the scanner only:\n scanner %+v\n  oracle %+v (%v)", bad, got, want, err)
			}
		}
	})
}

// Fuzz flag bits: whether items carry keys, the key's two flags, whether
// the stream is written in the HTML-escaped form of older servers, whether
// its done line carries the plan members older servers wrote, whether it
// omits the zero-valued stats members older servers left out, and whether
// the run is bounded, leading with its count of rows before the bound.
const (
	keyedFlag uint8 = 1 << iota
	presentFlag
	numFlag
	htmlFlag
	legacyDoneFlag
	omittedZerosFlag
	boundedFlag
)

// omittedZeros rewrites body's done line into the form servers wrote before
// every stats member was always present: truncated, plan, cache_hit and
// reoptimized left out when zero.
func omittedZeros(body []byte) []byte {
	i := bytes.LastIndex(body, []byte(`{"done":`))
	done := body[i:]
	for _, zero := range []string{`"truncated":false,`, `"plan":"",`, `,"cache_hit":false`, `,"reoptimized":false`} {
		done = bytes.Replace(done, []byte(zero), nil, 1)
	}
	return append(bytes.Clone(body[:i]), done...)
}

// Servers that returned their plan wrote it in the done line, around the
// members this side reads: the document's generation stamp first, the
// executed plan's steps and per-edge cardinalities last.
const (
	legacyDoneHead = `{"done":{"generation":9,`
	legacyDoneTail = `,"plan":[{"edge":1},{"edge":0,"reverse":true,"alg":2}],"expected":{"0":4,"1":2}}}` + "\n"
)

// legacyDone rewrites body's done line into the form servers that returned
// their plan wrote.
func legacyDone(t testing.TB, body []byte) []byte {
	t.Helper()
	i := bytes.LastIndex(body, []byte(`{"done":{`))
	if i < 0 || !bytes.HasSuffix(body, []byte("}}\n")) {
		t.Fatalf("stream %q ends without a done line", body)
	}
	out := append(bytes.Clone(body[:i]), legacyDoneHead...)
	out = append(out, body[i+len(`{"done":{`):len(body)-len("}}\n")]...)
	return append(out, legacyDoneTail...)
}

// TestStreamScansBothItemForms: one run written with and without HTML
// escaping scans to the same lines, and the unescaped form is the shorter.
func TestStreamScansBothItemForms(t *testing.T) {
	run := func() *fakeRun {
		return &fakeRun{
			items: []string{`<open_auction id="a1"><initial>145.50</initial> &amp; é</open_auction>`, "<b/>"},
			keys:  []plan.Key{{Present: true, IsNum: true, Num: 145.5, Str: "145.50"}, {Present: true, Str: "<k>&"}},
			done:  Done{Stats: &Stats{Rows: 2}},
		}
	}
	plain, escaped := handlerStream(t, run(), false), handlerStream(t, run(), true)
	if len(plain) >= len(escaped) {
		t.Errorf("unescaped stream is %d bytes, escaped %d", len(plain), len(escaped))
	}
	a, err := scanLines(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scanLines(escaped)
	if err != nil {
		t.Fatal(err)
	}
	if !sameLines(a, b) || len(a) != 3 || a[0].item != run().items[0] || a[1].key.Str != "<k>&" {
		t.Errorf("forms scan differently:\n unescaped %+v\n   escaped %+v", a, b)
	}
}
