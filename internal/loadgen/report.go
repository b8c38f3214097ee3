// report.go turns a run's raw stats into the committed-baseline JSON shape
// (LOAD_BASELINE.json) and diffs two reports: one ratio per class per
// percentile against a fixed slack, gating the big movements rather than
// chasing run-to-run noise.
package loadgen

import (
	"fmt"
	"sort"
)

// ReportSchema versions the report JSON.
const ReportSchema = 1

// A ClassReport is one query class's recorded latency profile.
type ClassReport struct {
	Count     int64 `json:"count"`
	Errors    int64 `json:"errors"`
	Truncated int64 `json:"truncated"`
	Dropped   int64 `json:"dropped"`
	P50Ns     int64 `json:"p50_ns"`
	P90Ns     int64 `json:"p90_ns"`
	P99Ns     int64 `json:"p99_ns"`
	MaxNs     int64 `json:"max_ns"`
}

// A Report is the machine-readable outcome of one load run: the committed
// LOAD_BASELINE.json shape, and what cmd/loadgate compares.
type Report struct {
	Schema int `json:"schema"`
	// Note documents how the file was produced, for the next human.
	Note        string                 `json:"note,omitempty"`
	Rate        float64                `json:"rate_per_sec"`
	DurationSec float64                `json:"duration_sec"`
	Classes     map[string]ClassReport `json:"classes"`
	// MaxGoroutines and MaxHeapBytes are the worst health samples observed
	// on the server during the run.
	MaxGoroutines int    `json:"max_goroutines,omitempty"`
	MaxHeapBytes  uint64 `json:"max_heap_bytes,omitempty"`
}

// BuildReport summarizes a run.
func BuildReport(cfg Config, rs *RunStats) *Report {
	r := &Report{
		Schema:        ReportSchema,
		Rate:          cfg.Rate,
		DurationSec:   rs.Elapsed.Seconds(),
		Classes:       make(map[string]ClassReport, len(rs.Classes)),
		MaxGoroutines: rs.MaxGoroutines,
		MaxHeapBytes:  rs.MaxHeapBytes,
	}
	for i := range rs.Classes {
		cs := &rs.Classes[i]
		r.Classes[cs.Name] = ClassReport{
			Count:     cs.Count,
			Errors:    cs.Errors,
			Truncated: cs.Truncated,
			Dropped:   cs.Dropped,
			P50Ns:     cs.Hist.Quantile(0.50),
			P90Ns:     cs.Hist.Quantile(0.90),
			P99Ns:     cs.Hist.Quantile(0.99),
			MaxNs:     cs.Hist.Max(),
		}
	}
	return r
}

// Thresholds are the Compare slacks: a percentile may grow by this fraction
// over the baseline before it counts as a regression.
type Thresholds struct {
	P50 float64
	P99 float64
}

// Compare diffs a current report against a baseline and returns one line per
// regression (empty means the gate passes): per-class p50 and p99 ratios
// over the slack, any errors or truncated streams in the current run, and
// baseline classes that disappeared. Classes only in the current report are
// ignored — adding load shapes must not invalidate an old baseline.
func Compare(baseline, current *Report, th Thresholds) []string {
	var names []string
	for name := range baseline.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressions []string
	for _, name := range names {
		b := baseline.Classes[name]
		c, ok := current.Classes[name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: class missing from current run", name))
			continue
		}
		if c.Errors > 0 {
			regressions = append(regressions, fmt.Sprintf("%s: %d errors (want 0)", name, c.Errors))
		}
		if c.Truncated > 0 {
			regressions = append(regressions, fmt.Sprintf("%s: %d truncated streams (protocol violation, want 0)", name, c.Truncated))
		}
		if c.Count == 0 {
			regressions = append(regressions, fmt.Sprintf("%s: no completed requests", name))
			continue
		}
		for _, pct := range []struct {
			label     string
			base, cur int64
			slack     float64
		}{
			{"p50", b.P50Ns, c.P50Ns, th.P50},
			{"p99", b.P99Ns, c.P99Ns, th.P99},
		} {
			if pct.base <= 0 {
				continue
			}
			ratio := float64(pct.cur) / float64(pct.base)
			if ratio > 1+pct.slack {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %s %.2fms vs baseline %.2fms (%.2fx > %.2fx allowed)",
					name, pct.label, float64(pct.cur)/1e6, float64(pct.base)/1e6, ratio, 1+pct.slack))
			}
		}
	}
	return regressions
}
