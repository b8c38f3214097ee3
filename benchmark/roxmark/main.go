// Command roxmark is the repository's benchmark: it boots the production
// serving stack in its own process, drives one of four workloads over real
// loopback HTTP from two closed-loop clients, checks every response against
// an oracle computed on the run's own inputs, and prints every metric by
// name with its unit. See benchmark/README.md.
//
// The driver's contract (BENCHMARK.json) is one run of one workload:
//
//	roxmark --workload NAME --seed N --seconds S --trace 0|1
//
// whose last line of standard output is a JSON object with exactly the keys
// correct, attempted, failed and metrics. Without --workload it runs every
// workload, untraced and traced, each in a fresh process; -aa K measures the
// benchmark's own run-to-run agreement; -smoke is a quick pass of all four.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
)

func main() {
	workload := flag.String("workload", "", "run this one workload (default: all four, each untraced and traced)")
	seed := flag.Int("seed", 1, "workload seed: corpora, query constants and schedule derive from it")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
	out := flag.String("out", "benchmark/out", "directory for cached corpora, scratch state and trace files")
	aa := flag.Int("aa", 0, "A/A mode: run K complete runs twice and compare the two sets")
	smoke := flag.Bool("smoke", false, "quick pass of all four workloads on small corpora")
	flag.Parse()

	// Numbers from fewer than two CPUs cannot be compared with the
	// committed ones: two clients and the servers would share one core.
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(os.Stderr, "roxmark: %d CPU available, need at least 2: refusing to print numbers that cannot be compared\n", runtime.NumCPU())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(2)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	switch {
	case *smoke:
		for _, name := range workloadNames {
			for _, tr := range []bool{false, true} {
				cfg := runConfig{Workload: name, Seed: *seed, Seconds: 1, Trace: tr, Out: *out,
					Scale: 1, Boots: 1, MaxRounds: 10, Log: os.Stderr}
				if !report(cfg) {
					os.Exit(1)
				}
			}
		}
	case *aa > 0:
		if !runAA(*aa, *seed, *seconds, *out) {
			os.Exit(1)
		}
	case *workload == "":
		ok := true
		for _, name := range workloadNames {
			for _, tr := range []int{0, 1} {
				r, err := spawn(name, *seed, *seconds, tr, *out, os.Stdout)
				if err != nil {
					fatal(err)
				}
				ok = ok && r.Correct
			}
		}
		if !ok {
			os.Exit(1)
		}
	default:
		cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
			Out: *out, Scale: xmarkScale, Boots: 5, Log: os.Stderr}
		if !report(cfg) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "roxmark:", err)
	os.Exit(1)
}

// contractResult is the last line of a run's standard output.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report runs one workload and prints the environment stamp, every metric by
// name with its unit, and the contract's JSON line. It returns whether every
// operation was correct.
func report(cfg runConfig) bool {
	stamp, _ := json.Marshal(environment(cfg))
	fmt.Printf("env %s\n", stamp)
	res, err := runWorkload(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", cfg.Workload, err))
	}
	out := contractResult{
		Correct:   res.correct(),
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]contractValue, len(res.Metrics)),
	}
	for _, m := range res.Metrics {
		fmt.Printf("%-14s %-34s %14.4f %s\n", cfg.Workload, m.Name, m.Value, m.Unit)
		out.Metrics[m.Name] = contractValue{m.Value, m.Unit}
	}
	if res.FirstErr != nil {
		fmt.Fprintf(os.Stderr, "roxmark: %s: %d of %d operations failed; first: %v\n",
			cfg.Workload, res.Failed, res.Attempted, res.FirstErr)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	return out.Correct
}

// environment stamps what a reader needs to judge whether two sets of
// numbers are comparable.
func environment(cfg runConfig) map[string]any {
	commit := os.Getenv("ROXMARK_COMMIT") // run.sh fills it in from git, when there is one
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds,
		"trace":      cfg.Trace,
		"clients":    numClients,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"wal_fs":     fsName(cfg.Out),
		"commit":     commit,
	}
}

// fsName names the filesystem holding path (the WAL's fsyncs go there).
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("fs-magic-%#x", uint32(st.Type))
}
