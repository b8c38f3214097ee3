// report.go turns a run's raw stats into the report JSON roxload -out writes:
// per-class percentiles and the server's worst health samples.
package loadgen

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

// A Report is the machine-readable outcome of one load run.
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
