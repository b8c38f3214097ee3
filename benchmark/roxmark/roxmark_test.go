package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}, {0.01, 1}, {0.1, 1}, {0.11, 2},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianGeomeanQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}
	// A class without samples reports 0 and must not zero the figure.
	if got := geomean([]float64{4, 0, 9}); !near(got, 6) {
		t.Errorf("geomean skipping an empty class = %v, want 6", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "serve.request", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "serve.handler", StartNS: 10, EndNS: 90},
		// Two shard calls in parallel: they overlap on [40,50].
		{ID: 3, Parent: 2, Name: "shardrpc.roundtrip", StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 2, Name: "shardrpc.roundtrip", StartNS: 40, EndNS: 70},
		// Nested below one call, and one child that outlives its parent.
		{ID: 5, Parent: 3, Name: "rox.shard_server", StartNS: 25, EndNS: 45},
		{ID: 6, Parent: 4, Name: "rox.shard_server", StartNS: 45, EndNS: 80},
		// Fully covered by a sibling: adds nothing to the union.
		{ID: 7, Parent: 2, Name: "shardrpc.roundtrip", StartNS: 42, EndNS: 48},
	}
	self := selfTimes(spans)
	want := []int64{
		100 - 80,       // request minus handler
		80 - (70 - 20), // handler minus the union [20,70] of its three calls
		30 - 20,        // call minus its server span
		30 - 25,        // call minus its server span clipped to [45,70]
		20, 35, 6,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	byLayer := newSpanTree(spans).layerSelf(1)
	if byLayer["serve"] != 20+30 || byLayer["shardrpc"] != 10+5+6 || byLayer["rox"] != 20+35 {
		t.Fatalf("layer self = %v", byLayer)
	}
}

func TestScheduleIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 3)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two builds of the workload differ", name)
		}
		// Another seed, other inputs: the query texts (replay-xmark's join
		// constant, cold-dblp's venue order) or, on the two workloads whose
		// texts carry no constant, the window the rotation starts at.
		other, _ := newWorkload(name, 4)
		seedMatters := !reflect.DeepEqual(a.Classes, other.Classes)
		for client := 0; client < numClients; client++ {
			seen := map[int]int{}
			for i := 0; i < 5*a.roundLen(); i++ {
				o := a.schedule(3, client, i)
				if o != b.schedule(3, client, i) {
					t.Fatalf("%s: schedule(%d, %d) is not repeatable", name, client, i)
				}
				if o != a.schedule(4, client, i) {
					seedMatters = true
				}
				if o.Write {
					if !a.Writes || o.Seq != i/a.roundLen() {
						t.Fatalf("%s: unexpected write %+v at %d", name, o, i)
					}
					continue
				}
				seen[o.Class]++
			}
			// Whole rounds carry every class equally often.
			for ci := range a.Classes {
				if seen[ci] != 5 {
					t.Fatalf("%s client %d: class %d ran %d times in 5 rounds", name, client, ci, seen[ci])
				}
			}
		}
		if !seedMatters {
			t.Errorf("%s: seeds 3 and 4 give the same requests", name)
		}
	}
	if xmarkMaxPrice(3) != xmarkMaxPrice(3) || xmarkMaxPrice(3) == xmarkMaxPrice(4) {
		t.Fatal("the XMark price scale is not a function of the seed alone")
	}
	// One writer per shard, so a shard's fragment order is fixed.
	writers := map[int]int{}
	for client := 0; client < numClients; client++ {
		for seq := 0; seq < 8; seq++ {
			shard := writeTarget(client, seq)
			if w, ok := writers[shard]; ok && w != client {
				t.Fatalf("shard %d has two writers", shard)
			}
			writers[shard] = client
		}
	}
	if len(writers) != numShards {
		t.Fatalf("writes reach %d of %d shards", len(writers), numShards)
	}
	if ingestBatch(1, 0, 7) != ingestBatch(1, 0, 7) || ingestBatch(1, 0, 7) == ingestBatch(2, 0, 7) {
		t.Fatal("ingestBatch is not a pure function of its arguments")
	}
}

func TestLatenciesAreScaledBySliceSpeed(t *testing.T) {
	sec := time.Second
	p := &phase{lat: make([][]sample, 1), attempted: 300, opTime: 2 * 2 * sec, cpu: 3 * sec}
	// Second 0 at nominal speed: 100 reads of 10 ms. Second 1 on a machine
	// half as fast: 200 reads of 20 ms.
	for i := 0; i < 100; i++ {
		p.lat[0] = append(p.lat[0], sample{sec / 2, 10}, sample{sec + sec/2, 20}, sample{sec + sec/4, 20})
	}
	for _, at := range []time.Duration{sec / 4, sec / 2, 3 * sec / 4} {
		p.kernel = append(p.kernel, kernelRun{at, nominalMS, 0}, kernelRun{sec + at, 2 * nominalMS, 0})
	}
	// A stretch with too few kernel runs takes the whole phase's reading.
	p.lat[0] = append(p.lat[0], sample{2*sec + sec/8, 15})
	p.kernel = append(p.kernel, kernelRun{2*sec + sec/16, 9 * nominalMS, 0})
	got := p.timings()
	// Every latency of the first two seconds reads 10 ms at nominal speed;
	// as measured the median is 20.
	if !near(got.p50, 10) || !near(got.p90, 10) || !near(got.rawP50, 20) {
		t.Errorf("p50 = %v, p90 = %v, raw p50 = %v", got.p50, got.p90, got.rawP50)
	}
	// Over the whole phase the median kernel run took 2× nominal.
	if !near(got.speed, 0.5) || got.slices != 3 {
		t.Errorf("speed = %v over %d slices, want 0.5 over 3", got.speed, got.slices)
	}
	_, speedAt, _ := p.speeds()
	if s := speedAt(2*sec + sec/8); !near(s, 0.5) {
		t.Errorf("speed of a stretch with one kernel run = %v, want the phase's 0.5", s)
	}
	if !near(got.qps, got.rawQPS/0.5) || !near(got.cpuMS, got.rawCPUMS*0.5) {
		t.Errorf("qps %v (raw %v), cpu %v (raw %v)", got.qps, got.rawQPS, got.cpuMS, got.rawCPUMS)
	}
}

func TestAAVerdictIsTwoSided(t *testing.T) {
	lower := gate{Better: "lower", Bound: 0.10}
	a := []float64{100, 101, 99, 100, 102}
	shift := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, v := range a {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		b    []float64
		g    gate
		want string
	}{
		{shift(1.04), lower, "ok"},
		{shift(1.06), lower, "FAIL"},
		{shift(0.94), lower, "FAIL"}, // much better on identical code is no more repeatable
		{shift(0.94), gate{Better: "higher", Bound: 0.10}, "FAIL"},
		{shift(1.00), gate{Better: "lower", Bound: 0.015}, "UNRESOLVED"}, // quartiles 2 % apart
	} {
		if got, _, _ := aaVerdict(a, c.b, c.g); got != c.want {
			t.Errorf("aaVerdict(b=%v, %+v) = %s, want %s", c.b, c.g, got, c.want)
		}
	}
}

func stream(lines ...string) *bufio.Reader {
	return bufio.NewReader(strings.NewReader(strings.Join(lines, "")))
}

func TestReadStreamTerminalLine(t *testing.T) {
	items := []string{string(itemLine("<a>1</a>")), string(itemLine("<a>2</a>"))}
	stats := `{"stats":{"rows":2,"scanned":2}}` + "\n"

	resp, err := readStream(stream(items[0], items[1], stats))
	if err != nil {
		t.Fatal(err)
	}
	var want digest
	want.add([]byte(items[0]))
	want.add([]byte(items[1]))
	if resp.digest != want || resp.stats.Rows != 2 || resp.first != "<a>1</a>" {
		t.Fatalf("resp = %+v", resp)
	}
	// One flipped item byte changes the digest.
	flipped, err := readStream(stream(strings.Replace(items[0], "1", "7", 1), items[1], stats))
	if err != nil || flipped.digest == want {
		t.Fatalf("flipped byte not visible in digest: %+v, %v", flipped, err)
	}
	// A stream cut before its stats line is a failure, never a short success.
	if _, err := readStream(stream(items[0], items[1])); !errors.Is(err, errTruncated) {
		t.Fatalf("truncated stream: err = %v", err)
	}
	if _, err := readStream(stream(items[0], `{"error":"server draining"}`+"\n")); err == nil {
		t.Fatal("error line accepted")
	}
	if _, err := readStream(stream(items[0], stats, items[1])); err == nil {
		t.Fatal("data after the stats line accepted")
	}
	long := string(itemLine(strings.Repeat("x", 200_000)))
	if resp, err := readStream(bufio.NewReaderSize(strings.NewReader(long+stats), 4096)); err != nil || resp.digest.Items != 1 {
		t.Fatalf("long line: %+v, %v", resp, err)
	}
}

// smokeConfig is a run small enough for the unit tests.
func smokeConfig(out, workload string, trace bool) runConfig {
	return runConfig{Workload: workload, Seed: 2, Seconds: 1, Trace: trace, Out: out,
		Scale: 1, Boots: 1, MaxRounds: 3, Log: io.Discard}
}

// TestOracleCatchesInjectedFaults puts a faulty proxy between the clients and
// a real stack: one flipped item byte, and one stream cut before its stats
// line, must each fail the run.
func TestOracleCatchesInjectedFaults(t *testing.T) {
	out := t.TempDir()
	cfg := smokeConfig(out, "replay-xmark", false)
	w, err := newWorkload(cfg.Workload, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	in, err := resolveInputs(w, openCorpus(out, cfg.Seed, cfg.Scale))
	if err != nil {
		t.Fatal(err)
	}
	orc, err := staticOracle(w, in)
	if err != nil {
		t.Fatal(err)
	}
	st, err := boot(w, in, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.stop()

	run := func(fault func(body []byte) []byte) *phase {
		proxy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			resp, err := http.Get(st.front.url + r.URL.String())
			if err != nil {
				http.Error(rw, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			rw.WriteHeader(resp.StatusCode)
			rw.Write(fault(body))
		}))
		defer proxy.Close()
		faulty := *st
		front := *st.front
		front.url = proxy.URL
		faulty.front = &front
		d := newDriver(w, cfg.Seed, &faulty, orc, newKernelTable())
		defer d.close()
		return d.run(0, 2, nil)
	}

	if p := run(func(b []byte) []byte { return b }); p.failed != 0 {
		t.Fatalf("clean proxy: %d failures, first: %v", p.failed, p.firstErr)
	}
	flip := run(func(b []byte) []byte {
		if i := bytes.Index(b, []byte("person")); i >= 0 {
			b[i] ^= 1
		}
		return b
	})
	if flip.failed == 0 || !strings.Contains(flip.firstErr.Error(), "digest mismatch") {
		t.Fatalf("flipped byte: failed=%d err=%v", flip.failed, flip.firstErr)
	}
	cut := run(func(b []byte) []byte { return b[:bytes.LastIndex(b, statsPrefix)] })
	if cut.failed != cut.attempted || !errors.Is(cut.firstErr, errTruncated) {
		t.Fatalf("cut stream: failed=%d of %d err=%v", cut.failed, cut.attempted, cut.firstErr)
	}
	res := &result{Attempted: cut.attempted, Failed: cut.failed}
	if res.correct() {
		t.Fatal("a run with failed operations reports correct")
	}
}

// TestSmokeEveryMetricOncePerWorkload runs all four workloads, untraced and
// traced, on small corpora and holds the printed metric names against
// BENCHMARK.json: every name exactly once, with its unit, nothing else.
func TestSmokeEveryMetricOncePerWorkload(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	out := t.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := runWorkload(smokeConfig(out, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.correct() {
				t.Fatalf("%s trace=%v: %d of %d failed: %v", name, trace, res.Failed, res.Attempted, res.FirstErr)
			}
			got := map[string]string{}
			for _, m := range res.Metrics {
				if _, dup := got[m.Name]; dup {
					t.Errorf("%s trace=%v: %s printed twice", name, trace, m.Name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", name, trace, m.Name, m.Value)
				}
				got[m.Name] = m.Unit
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok {
					t.Errorf("%s trace=%v: %s not printed", name, trace, m.Name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", name, trace, m.Name, unit, m.Unit)
				}
				delete(got, m.Name)
			}
			for extra := range got {
				t.Errorf("%s trace=%v: %s printed but not in BENCHMARK.json", name, trace, extra)
			}
			if !trace {
				for _, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, m.Name, m.Value)
					}
				}
			}
		}
	}
}
