package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
)

// tinyConfig keeps the experiments fast enough for a unit test: a heavily
// shrunken catalog and a single combination per group.
func tinyConfig() bench.Config {
	return bench.Config{
		Seed:              7,
		Tau:               25,
		Scale:             1,
		TagDivisor:        120,
		MaxCombosPerGroup: 1,
	}
}

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run("table1", tinyConfig(), &buf); err != nil {
		t.Fatalf("run table1: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"operator", "paper cost", "tuples"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable3(t *testing.T) {
	var buf bytes.Buffer
	if err := run("table3", tinyConfig(), &buf); err != nil {
		t.Fatalf("run table3: %v", err)
	}
	if !strings.Contains(buf.String(), "VLDB") {
		t.Errorf("table3 output missing VLDB:\n%s", buf.String())
	}
}

func TestRunFig5(t *testing.T) {
	var buf bytes.Buffer
	if err := run("fig5", tinyConfig(), &buf); err != nil {
		t.Fatalf("run fig5: %v", err)
	}
	if buf.Len() == 0 {
		t.Error("fig5 produced no output")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := run("nonsense", tinyConfig(), &buf)
	if !errors.Is(err, errUnknownExperiment) {
		t.Fatalf("unknown experiment: err = %v, want errUnknownExperiment", err)
	}
}

var update = flag.Bool("update", false, "re-record testdata/all.golden")

// durations matches the wall-clock figures the experiments print, as
// scripts/examples_smoke.sh normalizes them.
var durations = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|ms|s)\b`)

// timeWeighted matches the numbers of the "time-weighted edges" ablation
// row: that variant weighs edges by measured wall time, so its plans and
// costs vary from run to run by design.
var timeWeighted = regexp.MustCompile(`(?m)^(time-weighted edges\s+).*$`)

// TestRunAllGolden pins every table of `-exp all` on the tiny
// configuration; `go test ./cmd/roxbench -run Golden -update` re-records it.
func TestRunAllGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run("all", tinyConfig(), &buf); err != nil {
		t.Fatalf("run all: %v", err)
	}
	got := durations.ReplaceAllString(buf.String(), "TIME")
	got = timeWeighted.ReplaceAllString(got, "${1}MASKED")
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("-exp all output drifted from %s (re-record with -update if intended):\n%s", path, lineDiff(string(want), got))
	}
}

// lineDiff lists the first few lines on which want and got differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl && shown < 10 {
			fmt.Fprintf(&sb, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
			shown++
		}
	}
	return sb.String()
}
