// Command loadgate is the CI latency-regression gate: it compares a fresh
// roxload report against the committed LOAD_BASELINE.json and exits non-zero
// when any query class regressed beyond the slack on p50 or p99, recorded
// errors, or truncated a stream. The slacks are deliberately generous — the
// gate exists to catch a 2× tail blow-up on a shared CI runner, not to chase
// single-digit noise.
//
// Usage:
//
//	loadgate -baseline LOAD_BASELINE.json -current report.json -p50-slack 0.75 -p99-slack 1.0
//
// Self-test mode proves the gate can fail: it synthesizes a run with 2× the
// baseline's p99 and exits non-zero unless Compare flags it:
//
//	loadgate -baseline LOAD_BASELINE.json -selftest
//
// See the "Load harness and latency gates" section of DESIGN.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/loadgen"
)

func main() {
	baselinePath := flag.String("baseline", "LOAD_BASELINE.json", "committed baseline report")
	currentPath := flag.String("current", "", "fresh roxload report to gate")
	p50Slack := flag.Float64("p50-slack", 0.75, "allowed fractional p50 growth over baseline")
	// 0.9, not 1.0: the gate's contract is that a clean 2x p99 regression
	// fires, and the comparison is strict (ratio > 1+slack).
	p99Slack := flag.Float64("p99-slack", 0.9, "allowed fractional p99 growth over baseline")
	selftest := flag.Bool("selftest", false, "verify the gate catches a synthetic 2x p99 regression of the baseline")
	flag.Parse()

	if err := run(*baselinePath, *currentPath, *p50Slack, *p99Slack, *selftest, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgate:", err)
		os.Exit(1)
	}
}

func run(baselinePath, currentPath string, p50Slack, p99Slack float64, selftest bool, out io.Writer) error {
	baseline, err := readReport(baselinePath)
	if err != nil {
		return err
	}
	th := loadgen.Thresholds{P50: p50Slack, P99: p99Slack}
	if selftest {
		return runSelftest(baseline, th, out)
	}
	if currentPath == "" {
		return fmt.Errorf("pass -current report.json (or -selftest)")
	}
	current, err := readReport(currentPath)
	if err != nil {
		return err
	}
	printTable(out, baseline, current)
	regressions := loadgen.Compare(baseline, current, th)
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(out, "REGRESSION:", r)
		}
		return fmt.Errorf("%d regression(s) beyond slack (p50 %+.0f%%, p99 %+.0f%%)",
			len(regressions), p50Slack*100, p99Slack*100)
	}
	fmt.Fprintln(out, "loadgate: PASS")
	return nil
}

// runSelftest inflates every baseline p99 by 2x and demands the gate fire —
// proof the comparison is live before CI trusts a PASS.
func runSelftest(baseline *loadgen.Report, th loadgen.Thresholds, out io.Writer) error {
	inflated := *baseline
	inflated.Classes = make(map[string]loadgen.ClassReport, len(baseline.Classes))
	for name, c := range baseline.Classes {
		c.P99Ns *= 2
		if c.MaxNs < c.P99Ns {
			c.MaxNs = c.P99Ns
		}
		inflated.Classes[name] = c
	}
	regressions := loadgen.Compare(baseline, &inflated, th)
	if len(regressions) == 0 {
		return fmt.Errorf("selftest: gate did NOT flag a 2x p99 inflation — thresholds too loose (p99 slack %.2f)", th.P99)
	}
	fmt.Fprintf(out, "loadgate: selftest PASS — 2x p99 inflation flagged %d regression(s)\n", len(regressions))
	return nil
}

func readReport(path string) (*loadgen.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r loadgen.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != loadgen.ReportSchema {
		return nil, fmt.Errorf("%s: schema %d, want %d", path, r.Schema, loadgen.ReportSchema)
	}
	return &r, nil
}

// printTable renders the side-by-side percentiles for the CI log.
func printTable(out io.Writer, baseline, current *loadgen.Report) {
	var names []string
	for name := range baseline.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-10s %12s %12s %12s %12s\n", "class", "base p50", "cur p50", "base p99", "cur p99")
	for _, name := range names {
		b := baseline.Classes[name]
		c := current.Classes[name]
		fmt.Fprintf(out, "%-10s %10.2fms %10.2fms %10.2fms %10.2fms\n",
			name, float64(b.P50Ns)/1e6, float64(c.P50Ns)/1e6, float64(b.P99Ns)/1e6, float64(c.P99Ns)/1e6)
	}
}
