package main

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// captureStdout runs f with os.Stdout redirected to a pipe and returns what
// it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		out, _ := io.ReadAll(r)
		done <- string(out)
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}

// TestVettoolProtocol pins the two handshake invocations the go command
// makes before trusting a vettool: -V=full (the build-cache key) and -flags.
func TestVettoolProtocol(t *testing.T) {
	out := captureStdout(t, func() {
		if code := run([]string{"-V=full"}, io.Discard); code != 0 {
			t.Errorf("-V=full exit = %d, want 0", code)
		}
	})
	if !strings.Contains(out, "version") || !strings.Contains(out, "buildID=") {
		t.Errorf("-V=full output %q lacks version/buildID", out)
	}
	out = captureStdout(t, func() {
		if code := run([]string{"-flags"}, io.Discard); code != 0 {
			t.Errorf("-flags exit = %d, want 0", code)
		}
	})
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("-flags output = %q, want []", out)
	}
}

// TestUsageListsAnalyzers pins the answer to a non-protocol invocation: the
// usage text, naming every analyzer, and exit code 2.
func TestUsageListsAnalyzers(t *testing.T) {
	for _, args := range [][]string{nil, {"./..."}} {
		var out strings.Builder
		if code := run(args, &out); code != 2 {
			t.Errorf("run(%q) exit = %d, want 2", args, code)
		}
		if !strings.HasPrefix(out.String(), "usage: ") {
			t.Errorf("run(%q) printed %q, want the usage text", args, out.String())
		}
		for _, name := range []string{"catalogmut", "ctxflow", "detorder", "fsumonly", "rowsclose", "tailpure", "waldurable"} {
			if !strings.Contains(out.String(), "  "+name+" ") {
				t.Errorf("usage text lacks analyzer %s:\n%s", name, out.String())
			}
		}
	}
}

// writeModule lays out a throwaway module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestStandaloneSeededViolations runs `go vet -vettool=roxvet` over a
// throwaway module seeded with one ctxflow and one detorder violation and
// checks both are reported with the right analyzer tags.
func TestStandaloneSeededViolations(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"lib/lib.go": `package lib

import (
	"context"
	"fmt"
)

func Mint() context.Context {
	return context.Background()
}

func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`,
	})
	out, code := vetModule(t, dir)
	if code != 1 {
		t.Fatalf("go vet exit = %d, want 1; output:\n%s", code, out)
	}
	for _, tag := range []string{"[ctxflow]", "[detorder]"} {
		if !strings.Contains(out, tag) {
			t.Errorf("output lacks %s finding:\n%s", tag, out)
		}
	}
}

// TestStandaloneCleanModule checks that `go vet -vettool=roxvet` passes a
// throwaway module with nothing to report.
func TestStandaloneCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"lib/lib.go": `package lib

// Double doubles.
func Double(x int) int { return 2 * x }
`,
	})
	if out, code := vetModule(t, dir); code != 0 {
		t.Fatalf("go vet exit = %d, want 0; output:\n%s", code, out)
	}
}

// repoRoot resolves the repository root from the test's working directory.
func repoRoot(t testing.TB) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// buildRoxvet builds roxvet into dir and returns the binary's path.
func buildRoxvet(t testing.TB, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "roxvet")
	build := exec.Command("go", "build", "-o", bin, "./cmd/roxvet")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building roxvet: %v\n%s", err, out)
	}
	return bin
}

// vetModule runs `go vet -vettool=roxvet ./...` in the module at dir and
// returns its combined output and exit code.
func vetModule(t *testing.T, dir string) (string, int) {
	t.Helper()
	vet := exec.Command("go", "vet", "-vettool="+buildRoxvet(t, t.TempDir()), "./...")
	vet.Dir = dir
	out, err := vet.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("go vet: %v\n%s", err, out)
	}
	return string(out), 0
}

// vetWithRoxvet builds roxvet into dir and runs `go vet -vettool` over the
// whole repository, returning the elapsed wall-clock time.
func vetWithRoxvet(t testing.TB, dir string) time.Duration {
	t.Helper()
	root := repoRoot(t)
	bin := buildRoxvet(t, dir)
	start := time.Now()
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool: %v\n%s", err, out)
	}
	return time.Since(start)
}

// TestRoxvetWallClock is the CI guard rail: the full vettool sweep must fit
// the lint job's budget. Gated behind ROXVET_WALLCLOCK=1 so ordinary test
// runs (and the bench gate) don't pay for a whole-repo vet.
func TestRoxvetWallClock(t *testing.T) {
	if os.Getenv("ROXVET_WALLCLOCK") == "" {
		t.Skip("set ROXVET_WALLCLOCK=1 to run the vettool wall-clock guard")
	}
	budget := 180 * time.Second
	if s := os.Getenv("ROXVET_WALLCLOCK_BUDGET"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("ROXVET_WALLCLOCK_BUDGET=%q: %v", s, err)
		}
		budget = time.Duration(secs) * time.Second
	}
	elapsed := vetWithRoxvet(t, t.TempDir())
	t.Logf("go vet -vettool over ./... took %v (budget %v)", elapsed, budget)
	if elapsed > budget {
		t.Fatalf("vettool sweep took %v, over the %v budget", elapsed, budget)
	}
}

// BenchmarkRoxvet measures the whole-repo vettool sweep (warm build cache
// after the first iteration). Gated behind ROXVET_WALLCLOCK=1 so the perf
// bench gate's baseline comparison never sees it.
func BenchmarkRoxvet(b *testing.B) {
	if os.Getenv("ROXVET_WALLCLOCK") == "" {
		b.Skip("set ROXVET_WALLCLOCK=1 to run the roxvet sweep benchmark")
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vetWithRoxvet(b, dir)
	}
}
