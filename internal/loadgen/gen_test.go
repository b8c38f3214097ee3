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
// health samples arrive, and the built report summarizes every class.
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
	if len(report.Classes) != len(rs.Classes) {
		t.Fatalf("report has %d classes, run had %d", len(report.Classes), len(rs.Classes))
	}
	for _, cs := range rs.Classes {
		c := report.Classes[cs.Name]
		if c.Count != cs.Count || c.P50Ns <= 0 || c.P50Ns > c.P99Ns || c.P99Ns > c.MaxNs {
			t.Errorf("class %s: report %+v does not summarize %d requests", cs.Name, c, cs.Count)
		}
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
