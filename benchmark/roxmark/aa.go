package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// spawn runs one workload in a fresh process — peak RSS, heap state and
// boots of one run must not leak into the next — copying its report to echo
// and returning the contract line it ended with.
func spawn(workload string, seed int, seconds float64, trace int, out string, echo io.Writer) (*contractResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", out)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // a non-zero exit still prints the contract line
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res contractResult
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v; exit: %v)", workload, err, runErr)
	}
	return &res, nil
}

// gate is one end-to-end metric's direction and bound.
type gate struct {
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// gates reads the end-to-end metrics' directions and bounds out of
// BENCHMARK.json, so the A/A verdict is judged by the very numbers the
// driver will use.
func gates(path string) (map[string]gate, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name string `json:"name"`
			gate
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, err
	}
	out := make(map[string]gate)
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.gate
	}
	return out, nil
}

// runAA measures the benchmark against itself: K complete runs per workload
// for set A and K for set B of the same binary, alternating A and B, run i
// of both sets on seed+i. For every workload × end-to-end metric it prints
// both medians, set A's quartile spread, how far B's median is from A's
// (positive: worse), and the bound. It fails if any two medians differ, in
// either direction, by more than half the metric's bound — a benchmark that
// comes out much better the second time repeats no better than one that
// comes out worse — if a quartile spread exceeds the bound (the metric
// cannot resolve a regression of that size), or if any operation failed. A
// metric that fails here is fixed by measuring more work or by demoting it
// to the per-layer list, not by widening its bound until the difference
// fits.
func runAA(k, seed int, seconds float64, out string) bool {
	gs, err := gates("BENCHMARK.json")
	if err != nil {
		fatal(fmt.Errorf("A/A needs the bounds: %w", err))
	}
	ok := true
	fmt.Printf("| workload | metric | median A | median B | IQR A / median | B worse by | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	for _, name := range workloadNames {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < k; i++ {
			for s := 0; s < 2; s++ {
				// Alternate which set goes first, so drift of the machine
				// over the session lands on both sets alike.
				set := (s + i) % 2
				r, err := spawn(name, seed+i, seconds, 0, out, io.Discard)
				if err != nil {
					fatal(err)
				}
				if !r.Correct {
					fmt.Fprintf(os.Stderr, "roxmark: %s seed %d: %d of %d operations failed\n", name, seed+i, r.Failed, r.Attempted)
					ok = false
				}
				for m, v := range r.Metrics {
					sets[set][m] = append(sets[set][m], v.Value)
				}
			}
		}
		for _, m := range endToEnd {
			verdict, worse, spread := aaVerdict(sets[0][m], sets[1][m], gs[m])
			if verdict != "ok" {
				ok = false
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %.2f %% | %+.2f %% | %.0f %% | %s |\n",
				name, m, median(sets[0][m]), median(sets[1][m]), 100*spread, 100*worse, 100*gs[m].Bound, verdict)
		}
	}
	return ok
}

// aaVerdict judges one metric of one workload: worse is how far set B's
// median lies from set A's as a share of it (positive in the direction the
// gate calls worse), spread set A's quartile distance as a share of its
// median.
func aaVerdict(a, b []float64, g gate) (verdict string, worse, spread float64) {
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	worse, spread = (mb-ma)/ma, (q3-q1)/ma
	if g.Better == "higher" {
		worse = -worse
	}
	switch {
	case math.Abs(worse) > g.Bound/2:
		verdict = "FAIL"
	case spread > g.Bound:
		verdict = "UNRESOLVED"
	default:
		verdict = "ok"
	}
	return verdict, worse, spread
}
