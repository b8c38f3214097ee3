package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/ndjson"
	"repro/internal/plan"
	"repro/internal/testutil"
)

// TestKeyRoundTrip: merge keys survive the wire bit-for-bit — the
// coordinator's k-way merge compares exactly what the shard sorted by.
func TestKeyRoundTrip(t *testing.T) {
	keys := []plan.Key{
		{},
		{Present: true, IsNum: true, Num: 0},
		{Present: true, IsNum: true, Num: -42.5},
		{Present: true, IsNum: true, Num: math.MaxFloat64},
		{Present: true, IsNum: true, Num: math.SmallestNonzeroFloat64},
		{Present: true, Str: "zebra"},
		{Present: true, Str: ""},
	}
	for i, k := range keys {
		b, err := json.Marshal(KeyFromPlan(k))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		var w Key
		if err := json.Unmarshal(b, &w); err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if got := w.ToPlan(); got != k {
			t.Errorf("key %d: round-trip %+v != %+v", i, got, k)
		}
	}
}

// FuzzKeyAppendJSON: a keyed item line written member by member is byte for
// byte the Message a json.Encoder with HTML escaping off writes (the
// coordinator's scanner reads those bytes), for every finite float and any
// string bytes.
func FuzzKeyAppendJSON(f *testing.F) {
	for _, seed := range []struct {
		p, n bool
		f    float64
		s    string
	}{
		{},
		{p: true, n: true, f: math.Copysign(0, -1), s: "-0"},
		{p: true, n: true, f: 145.5, s: "145.50"},
		{p: true, n: true, f: 1e21, s: "1e21"},
		{p: true, n: true, f: 999999999999999868928, s: "just below exponent form"},
		{p: true, n: true, f: 1e-6},
		{p: true, n: true, f: 9.99e-7, s: "9.99e-7"},
		{p: true, n: true, f: -1.5e-9},
		{p: true, n: true, f: 1e100},
		{p: true, n: true, f: math.MaxFloat64},
		{p: true, n: true, f: math.SmallestNonzeroFloat64},
		{p: true, s: "zebra"},
		{p: true, s: `<k a="1">&</k> \ /`},
		{p: true, s: "ctl \x00\x1f\x7f\b\f\n\r\t"},
		{p: true, s: "caf\u00e9 \u2028\u2029 \U0001F600 \ufffd"},
		{p: true, s: "invalid \xff\xc0\xaf truncated \xe2\x80"},
		{n: true, f: 3, s: "fields the engine never combines"},
	} {
		f.Add(seed.p, seed.n, seed.f, seed.s)
	}
	f.Fuzz(func(t *testing.T, p, n bool, num float64, s string) {
		if math.IsNaN(num) || math.IsInf(num, 0) {
			t.Skip("keys are finite by construction; encoding/json rejects the rest")
		}
		k := Key{Present: p, Num: n, F: num, S: s}
		item := "<a>" + s + "</a>"
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(Message{Item: &item, Key: &k}); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		lw := ndjson.NewWriter(rec)
		defer lw.Close()
		lw.SetEscapeHTML(false)
		if err := lw.ItemRaw([]byte(item), "key", k.AppendJSON(nil)); err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != want.String() {
			t.Fatalf("key %+v:\n got %q\nwant %q", k, got, want.String())
		}
		var back Message
		if err := json.Unmarshal(rec.Body.Bytes(), &back); err != nil {
			t.Fatal(err)
		}
		// An invalid byte does not survive any JSON encoder; the rest must.
		if utf8.ValidString(s) && (*back.Key != k || *back.Item != item) {
			t.Fatalf("round trip %+v != %+v", *back.Key, k)
		}
	})
}

// TestAggRoundTripExact: the partial-aggregate fold state transfers exactly —
// merging a state that crossed the wire is bit-for-bit the same as merging
// the local original, which is what keeps distributed sums grouping-invariant.
func TestAggRoundTripExact(t *testing.T) {
	var local plan.AggState
	for i := 0; i < 1000; i++ {
		// Values chosen to leave a multi-element exact-sum expansion.
		local.Add(0.1 + float64(i)*1e-13)
	}
	b, err := json.Marshal(AggFromState(&local))
	if err != nil {
		t.Fatal(err)
	}
	var w Agg
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	remote := w.State()

	var mergedLocal, mergedRemote plan.AggState
	mergedLocal.Add(3.25)
	mergedRemote.Add(3.25)
	mergedLocal.Merge(&local)
	mergedRemote.Merge(remote)
	li, _ := mergedLocal.Render(plan.AggSum)
	ri, _ := mergedRemote.Render(plan.AggSum)
	if li != ri {
		t.Errorf("merged renders differ: local %s, wire %s", li, ri)
	}
	if mergedLocal.Count != mergedRemote.Count {
		t.Errorf("counts differ: %d vs %d", mergedLocal.Count, mergedRemote.Count)
	}
}

// fakeRun is a scripted ShardRun.
type fakeRun struct {
	items  []string
	keys   []plan.Key
	done   Done
	pos    int
	closed bool
}

func (r *fakeRun) Next() bool {
	if r.pos >= len(r.items) {
		return false
	}
	r.pos++
	return true
}
func (r *fakeRun) Item() []byte { return []byte(r.items[r.pos-1]) }
func (r *fakeRun) Key() (plan.Key, bool) {
	if r.keys == nil {
		return plan.Key{}, false
	}
	return r.keys[r.pos-1], true
}
func (r *fakeRun) Done() Done { return r.done }
func (r *fakeRun) Close()     { r.closed = true }

// fakeExec is a scripted Executor.
type fakeExec struct {
	run     ShardRun
	execErr error
	gotReq  *ExecRequest
	shards  []ShardInfo
}

func (e *fakeExec) ExecuteShard(ctx context.Context, shard string, req *ExecRequest) (ShardRun, error) {
	e.gotReq = req
	if e.execErr != nil {
		return nil, e.execErr
	}
	return e.run, nil
}
func (e *fakeExec) ShardInventory() []ShardInfo { return e.shards }

// TestHandlerExecuteStream: the handler streams items as NDJSON messages and
// always ends with the done report; the client decodes the same sequence.
func TestHandlerExecuteStream(t *testing.T) {
	run := &fakeRun{
		items: []string{"<a/>", "<b/>"},
		keys:  []plan.Key{{Present: true, IsNum: true, Num: 1}, {Present: true, IsNum: true, Num: 2}},
		done:  Done{Stats: &Stats{Rows: 2, Scanned: 2}},
	}
	exec := &fakeExec{run: run}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards/{shard}/execute", HandleExecute(exec))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := NewClient(nil)
	stream, err := c.Execute(context.Background(), ts.URL, "s.xml",
		&ExecRequest{Collection: "c", Query: `q`, ShardLimit: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	var items []string
	for {
		ok, err := stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			d := stream.Done()
			if d.Stats == nil || d.Stats.Scanned != 2 {
				t.Errorf("done stats = %+v", d.Stats)
			}
			break
		}
		if _, keyed := stream.Key(); !keyed {
			t.Error("ordered item arrived without a key")
		}
		items = append(items, string(stream.Item()))
	}
	if !reflect.DeepEqual(items, run.items) {
		t.Errorf("items = %v, want %v", items, run.items)
	}
	if exec.gotReq.ShardLimit != 9 || exec.gotReq.Collection != "c" {
		t.Errorf("handler decoded request %+v", exec.gotReq)
	}
	if !run.closed {
		t.Error("handler did not close the run")
	}
}

// TestHandlerStatusErrors: pre-stream failures map StatusError onto the HTTP
// status + error envelope, and the client surfaces them as RemoteError.
func TestHandlerStatusErrors(t *testing.T) {
	for _, tc := range []struct {
		name       string
		execErr    error
		wantStatus int
	}{
		{"typed 404", &StatusError{Status: http.StatusNotFound, Err: errors.New("no such shard")}, http.StatusNotFound},
		{"typed 400", &StatusError{Status: http.StatusBadRequest, Err: errors.New("bad query")}, http.StatusBadRequest},
		{"untyped is 500", errors.New("boom"), http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exec := &fakeExec{execErr: tc.execErr}
			mux := http.NewServeMux()
			mux.HandleFunc("POST /v1/shards/{shard}/execute", HandleExecute(exec))
			ts := httptest.NewServer(mux)
			defer ts.Close()

			_, err := NewClient(nil).Execute(context.Background(), ts.URL, "s.xml", &ExecRequest{})
			var re *RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want *RemoteError", err)
			}
			if re.Status != tc.wantStatus {
				t.Errorf("status = %d, want %d", re.Status, tc.wantStatus)
			}
			if re.Msg != tc.execErr.Error() {
				t.Errorf("msg = %q, want %q", re.Msg, tc.execErr.Error())
			}
		})
	}
}

// TestHandlerInventory: the inventory round-trips through the client.
func TestHandlerInventory(t *testing.T) {
	exec := &fakeExec{shards: []ShardInfo{{Name: "a.xml", Generation: 1}, {Name: "b.xml", Generation: 4}}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shards", HandleInventory(exec))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	got, err := NewClient(nil).Shards(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, exec.shards) {
		t.Errorf("inventory = %+v, want %+v", got, exec.shards)
	}
}

// TestClientTruncatedStream: a stream that ends without a done report is an
// error, not a silently short result.
func TestClientTruncatedStream(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards/{shard}/execute", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		item := "<a/>"
		_ = json.NewEncoder(w).Encode(Message{Item: &item})
		// ...and no done line.
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	stream, err := NewClient(nil).Execute(context.Background(), ts.URL, "s.xml", &ExecRequest{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if ok, err := stream.Next(); err != nil || !ok || string(stream.Item()) != "<a/>" {
		t.Fatalf("first item: ok=%v item=%q err=%v", ok, stream.Item(), err)
	}
	if _, err := stream.Next(); err == nil {
		t.Fatal("truncated stream ended without an error")
	}
}

// TestClientShardNameEscaping: shard names with path metacharacters address
// the right route (and never escape it).
func TestClientShardNameEscaping(t *testing.T) {
	var gotShard string
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards/{shard}/execute", func(w http.ResponseWriter, r *http.Request) {
		gotShard = r.PathValue("shard")
		writeError(w, http.StatusNotFound, "nope")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	name := "odd shard?.xml"
	_, err := NewClient(nil).Execute(context.Background(), ts.URL, name, &ExecRequest{})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want 404 RemoteError", err)
	}
	if gotShard != name {
		t.Errorf("server saw shard %q, want %q", gotShard, name)
	}
}

// TestMessageWireShape pins the NDJSON line shapes — the wire contract
// documented in DESIGN.md ("Shard-server wire contract"): an item line with
// its XML unescaped, as a json.Encoder writes the Message after
// SetEscapeHTML(false), and the done line as encoding/json writes it.
func TestMessageWireShape(t *testing.T) {
	run := &fakeRun{
		items: []string{"<a/>"},
		keys:  []plan.Key{{Present: true, IsNum: true, Num: 1.5}},
		done:  Done{Stats: &Stats{Rows: 1, ElapsedNS: 2, ExecTuples: 3, SampleTuples: 0, CumulativeIntermediate: 4}},
	}
	want := `{"item":"<a/>","key":{"p":true,"n":true,"f":1.5}}` + "\n" +
		`{"done":{"stats":{"rows":1,"scanned":0,"truncated":false,"elapsed_ns":2,"exec_tuples":3,"sample_tuples":0,"cumulative_intermediate":4,"plan":"","cache_hit":false,"reoptimized":false}}}` + "\n"
	if got := string(handlerStream(t, run, false)); got != want {
		t.Errorf("stream\n got %s\nwant %s", got, want)
	}
}

// TestStreamDecodesLegacyDone: the done lines of older peers stream to this
// client as any other — their items arrive and their done line decodes, the
// members this side no longer reads ignored and the members it now always
// writes, where an older peer omitted them, decoded to their zero values.
func TestStreamDecodesLegacyDone(t *testing.T) {
	for _, tc := range []struct {
		name, done string
		want       Stats
	}{{
		// A peer that still returns its plan: the generation stamp, the
		// plan's steps, their cardinalities.
		name: "plan",
		done: legacyDoneHead + `"stats":{"rows":1,"scanned":4,"elapsed_ns":5,"exec_tuples":6,"sample_tuples":7,"cumulative_intermediate":8,"plan":"p"}` + legacyDoneTail,
		want: Stats{Rows: 1, Scanned: 4, ElapsedNS: 5, ExecTuples: 6, SampleTuples: 7, CumulativeIntermediate: 8, Plan: "p"},
	}, {
		// A peer that omitted truncated, plan, cache_hit and reoptimized
		// when they were zero.
		name: "omitted zeros",
		done: `{"done":{"stats":{"rows":1,"scanned":0,"elapsed_ns":2,"exec_tuples":3,"sample_tuples":0,"cumulative_intermediate":4}}}` + "\n",
		want: Stats{Rows: 1, ElapsedNS: 2, ExecTuples: 3, CumulativeIntermediate: 4},
	}} {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/shards/{shard}/execute", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_, _ = io.WriteString(w, `{"item":"<a/>","key":{"p":true,"n":true,"f":1}}`+"\n"+tc.done)
		})
		ts := httptest.NewServer(mux)
		stream, err := NewClient(ts.Client()).Execute(context.Background(), ts.URL, "s.xml",
			&ExecRequest{Collection: "c", Query: "q"})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok, err := stream.Next(); err != nil || !ok || string(stream.Item()) != "<a/>" {
			t.Fatalf("%s: item: ok=%v item=%q err=%v", tc.name, ok, stream.Item(), err)
		}
		if k, keyed := stream.Key(); !keyed || k.F != 1 {
			t.Errorf("%s: key = %+v (keyed %v), want 1", tc.name, k, keyed)
		}
		ok, err := stream.Next()
		if err != nil || ok {
			t.Fatalf("%s: done line: ok=%v err=%v", tc.name, ok, err)
		}
		if d := stream.Done(); d.Error != "" || d.Stats == nil || !reflect.DeepEqual(*d.Stats, tc.want) || d.Agg != nil {
			t.Errorf("%s: done = %+v, want stats %+v", tc.name, d, tc.want)
		}
		stream.Close()
		ts.Close()
	}
}

// TestHandlerLinesAreEncodedMessages: the handler writes its lines member by
// member through the shared line writer; each item line is byte for byte the
// Message a json.Encoder with HTML escaping off produces, keyed or not, and
// the done line the one encoding/json produces.
func TestHandlerLinesAreEncodedMessages(t *testing.T) {
	items := []string{`<a x="1">b & c</a>`, "sep\u2028 \xff"}
	for _, keys := range [][]plan.Key{nil, {{Present: true, IsNum: true, Num: 1e21}, {Present: true, Str: "<k>"}}} {
		done := Done{Stats: &Stats{Rows: 2, Scanned: 2, Plan: "a<b"}}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		for i := range items {
			m := Message{Item: &items[i]}
			if keys != nil {
				kw := KeyFromPlan(keys[i])
				m.Key = &kw
			}
			if err := enc.Encode(&m); err != nil {
				t.Fatal(err)
			}
		}
		if err := json.NewEncoder(&want).Encode(&Message{Done: &done}); err != nil {
			t.Fatal(err)
		}
		got := handlerStream(t, &fakeRun{items: items, keys: keys, done: done}, false)
		if string(got) != want.String() {
			t.Errorf("keys=%v: stream\n got %q\nwant %q", keys != nil, got, want.String())
		}
	}
}

// TestHandlerInventoryLarge: discovery reads an inventory far past the bound
// on error envelopes — 3 000 documents named like a packed shard set.
func TestHandlerInventoryLarge(t *testing.T) {
	shards := make([]ShardInfo, 3000)
	for i := range shards {
		shards[i] = ShardInfo{Name: fmt.Sprintf("shard-%05d.xml", i), Generation: uint64(i + 1)}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shards", HandleInventory(&fakeExec{shards: shards}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	got, err := NewClient(nil).Shards(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, shards) {
		t.Errorf("inventory of %d shards came back as %d", len(shards), len(got))
	}
}

// stallRun yields its items and then parks in Next until released — a shard
// whose row source stalled mid-stream.
type stallRun struct {
	fakeRun
	parked  chan struct{} // closed when Next parks
	release chan struct{}
}

func (r *stallRun) Next() bool {
	if r.fakeRun.Next() {
		return true
	}
	close(r.parked)
	<-r.release
	return false
}

// TestHandlerFlushesWhileRunStalls pins "slow consumers see progress" for the
// shard wire as a property, not a syscall per item: an item the handler wrote
// reaches the coordinator within the line writer's flush bound while the
// handler is still parked in the run's Next. (The deadline here is far above
// the bound; what it tells apart is "flushed by the timer" from "flushed only
// when the handler returns".)
func TestHandlerFlushesWhileRunStalls(t *testing.T) {
	testutil.CheckGoroutines(t)
	run := &stallRun{
		fakeRun: fakeRun{items: []string{"<a/>"}, done: Done{Stats: &Stats{Rows: 1}}},
		parked:  make(chan struct{}),
		release: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards/{shard}/execute", HandleExecute(&fakeExec{run: run}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	stream, err := NewClient(ts.Client()).Execute(context.Background(), ts.URL, "s.xml",
		&ExecRequest{Collection: "c", Query: "q"})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	type next struct {
		item string
		ok   bool
		err  error
	}
	lines := make(chan next, 1)
	go func() {
		ok, err := stream.Next()
		lines <- next{string(stream.Item()), ok, err}
	}()
	select {
	case got := <-lines:
		if got.err != nil {
			t.Fatal(got.err)
		}
		if !got.ok || got.item != "<a/>" {
			t.Fatalf("first line = %+v, want the item", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("item never reached the client while the run was stalled")
	}
	select {
	case <-run.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never parked in Next")
	}
	close(run.release)
	ok, err := stream.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d := stream.Done(); ok || d.Stats == nil || d.Stats.Rows != 1 {
		t.Fatalf("stream did not end with the done report: item %v, done %+v", ok, stream.Done())
	}
}

// TestSmallResponsesKeepConnection: the client reads its small responses —
// an ingest acknowledgement, the shard inventory up to its encoder's trailing
// newline, an error envelope — to their end before closing them, so
// sequential calls share one keep-alive connection instead of dialing one
// each.
func TestSmallResponsesKeepConnection(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, r *http.Request) {
		// The inventory, then its encoder's newline as a chunk of its own,
		// as when the list outgrows the server's response buffer: the JSON
		// decoder returns before the body's end.
		b, _ := json.Marshal(ShardList{Shards: []ShardInfo{{Name: "a.xml", Generation: 1}}})
		_, _ = w.Write(b)
		w.(http.Flusher).Flush()
		time.Sleep(time.Millisecond)
		_, _ = w.Write([]byte("\n"))
	})
	mux.HandleFunc("POST /v1/collections/{doc}/ingest", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		writeJSON(w, http.StatusOK, map[string]int{"appended": 1, "generation": 2})
	})
	mux.HandleFunc("POST /v1/shards/{shard}/execute", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "no such shard")
	})
	ts := httptest.NewUnstartedServer(mux)
	conns := testutil.CountConns(ts)
	ts.Start()
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := NewClient(&http.Client{Transport: tr})

	const n = 10
	ctx := context.Background()
	for i := range n {
		if err := c.Ingest(ctx, ts.URL, "c.xml", "<a/>"); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("%d sequential ingests opened %d connections, want 1", n, got)
	}
	for i := range n {
		if _, err := c.Shards(ctx, ts.URL); err != nil {
			t.Fatalf("inventory %d: %v", i, err)
		}
		var re *RemoteError
		if _, err := c.Execute(ctx, ts.URL, "nope.xml", &ExecRequest{}); !errors.As(err, &re) {
			t.Fatalf("execute %d: %v, want a RemoteError", i, err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("%d sequential ingests, inventories and refusals opened %d connections, want 1", 3*n, got)
	}
}
