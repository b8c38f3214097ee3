package loadgen

import (
	"fmt"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
)

// peopleXML builds one deterministic people shard.
func peopleXML(base, n int) string {
	var sb strings.Builder
	sb.WriteString("<people>")
	for i := 0; i < n; i++ {
		id := base + i
		fmt.Fprintf(&sb, `<person id="p%05d"><name>n%d</name><age>%d</age><salary>%d</salary></person>`,
			id, id, 20+(id*7)%50, 1000+(id*37)%900)
	}
	sb.WriteString("</people>")
	return sb.String()
}

// newPeopleServer boots the production handler over a sharded collection.
func newPeopleServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := rox.NewEngine(rox.WithSeed(1))
	for s := 0; s < 4; s++ {
		if err := eng.LoadCollectionSource("ppl", rox.FromXML(fmt.Sprintf("ppl-%d.xml", s), peopleXML(s*50, 50))); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(serve.New(rox.NewPool(eng, 8), serve.Config{}))
	t.Cleanup(ts.Close)
	return ts
}

func testClasses() []Class {
	q := func(text string) func(int64) url.Values {
		return func(int64) url.Values {
			v := url.Values{}
			v.Set("q", text)
			return v
		}
	}
	return []Class{
		{Name: "topk", Weight: 2, Params: q(`for $p in collection("ppl")//person order by $p/salary descending return $p limit 5`)},
		{Name: "aggregate", Weight: 1, Params: q(`for $p in collection("ppl")//person return sum($p/salary)`)},
		{Name: "replay", Weight: 2, Params: q(`for $p in collection("ppl")//person order by $p/age return $p limit 3`)},
	}
}

// TestOpenLoopRun drives a short fixed-rate run against the in-process
// server and checks the whole reporting pipeline: every class completes
// requests without errors or truncations, latencies land in the histograms,
// health samples arrive, and the built report round-trips through Compare
// with itself clean.
func TestOpenLoopRun(t *testing.T) {
	ts := newPeopleServer(t)
	cfg := Config{
		BaseURL:     ts.URL,
		Rate:        400,
		Duration:    600 * time.Millisecond,
		Classes:     testClasses(),
		MaxInFlight: 64,
		HealthEvery: 50 * time.Millisecond,
	}
	rs, err := Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Arrivals < 100 {
		t.Fatalf("arrivals = %d, want a few hundred at 400/s over 600ms", rs.Arrivals)
	}
	for _, cs := range rs.Classes {
		if cs.Count == 0 {
			t.Errorf("class %s: no completed requests", cs.Name)
		}
		if cs.Errors > 0 || cs.Truncated > 0 {
			t.Errorf("class %s: %d errors, %d truncated", cs.Name, cs.Errors, cs.Truncated)
		}
		if cs.Hist.Count() > 0 && cs.Hist.Quantile(0.5) <= 0 {
			t.Errorf("class %s: p50 = %d, want > 0", cs.Name, cs.Hist.Quantile(0.5))
		}
	}
	if rs.MaxGoroutines == 0 {
		t.Error("no health samples recorded")
	}

	report := BuildReport(cfg, rs)
	th := Thresholds{P50: 0.75, P99: 1.0}
	if regs := Compare(report, report, th); len(regs) != 0 {
		t.Errorf("self-compare flagged regressions: %v", regs)
	}

	// Injected 2.5x p99 slowdown must trip the gate — proof the gate can
	// fail.
	slow := *report
	slow.Classes = make(map[string]ClassReport, len(report.Classes))
	for name, c := range report.Classes {
		c.P99Ns = int64(float64(c.P99Ns) * 2.5)
		slow.Classes[name] = c
	}
	regs := Compare(report, &slow, th)
	if len(regs) == 0 {
		t.Fatal("2.5x p99 inflation not flagged as a regression")
	}
	for _, r := range regs {
		if !strings.Contains(r, "p99") {
			t.Errorf("unexpected regression line: %s", r)
		}
	}
}

// TestCompareFlagsErrorsAndMissingClasses pins the non-latency gate rules.
func TestCompareFlagsErrorsAndMissingClasses(t *testing.T) {
	base := &Report{Schema: ReportSchema, Classes: map[string]ClassReport{
		"a": {Count: 10, P50Ns: 100, P99Ns: 500},
		"b": {Count: 10, P50Ns: 100, P99Ns: 500},
	}}
	cur := &Report{Schema: ReportSchema, Classes: map[string]ClassReport{
		"a": {Count: 10, Errors: 3, P50Ns: 100, P99Ns: 500},
	}}
	regs := Compare(base, cur, Thresholds{P50: 10, P99: 10})
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want errors-on-a and missing-b", regs)
	}
	if !strings.Contains(regs[0], "errors") || !strings.Contains(regs[1], "missing") {
		t.Errorf("regressions = %v", regs)
	}
}

// TestOpenLoopShedsAtCap: with MaxInFlight 1 against a slow-ish corpus the
// generator must shed arrivals and count them rather than stall its clock.
func TestOpenLoopShedsAtCap(t *testing.T) {
	ts := newPeopleServer(t)
	rs, err := Run(t.Context(), Config{
		BaseURL:     ts.URL,
		Rate:        2000,
		Duration:    300 * time.Millisecond,
		Classes:     testClasses()[:1],
		MaxInFlight: 1,
		HealthEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var dropped int64
	for _, cs := range rs.Classes {
		dropped += cs.Dropped
	}
	if dropped == 0 {
		t.Error("no drops recorded at MaxInFlight=1 and 2000/s — the arrival clock must not block")
	}
}
