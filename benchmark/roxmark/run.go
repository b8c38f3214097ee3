package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	rox "repro"
)

// metric is one named figure with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// runConfig is one run of one workload.
type runConfig struct {
	Workload string
	Seed     int
	Seconds  float64 // length of the measured phase
	Trace    bool    // per-layer traced run instead of the end-to-end run
	Out      string  // output directory: corpus cache, scratch, trace files
	Scale    int     // corpus scale (xmarkScale; 1 for smoke and tests)
	Boots    int     // boots timed for setup_s, at least; see bootBudget
	// MaxRounds caps every phase at this many rounds per client (0 = run
	// for the configured time); the smoke pass uses it.
	MaxRounds int
	Log       io.Writer // progress and diagnostics
}

// result is what one run reports.
type result struct {
	Attempted int
	Failed    int
	FirstErr  error
	Metrics   []metric
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// endToEnd names the end-to-end metrics in report order. BENCHMARK.json
// carries the same names (a unit test keeps the two in step).
var endToEnd = []string{"setup_s", "read_p90_ms", "alloc_kb_per_query", "allocs_per_query", "live_heap_mb", "rss_mb"}

// bootBudget keeps booting past cfg.Boots until this much time went into
// boots (at most maxBoots of them): a stack that boots in milliseconds — the
// packed mmap path — needs many more samples for a steady median than one
// that shreds XML for a quarter of a second.
const (
	bootBudget = 3 * time.Second
	maxBoots   = 41
)

// warmRounds is the unmeasured warm-up of every run, per client: enough for
// every page window's plan to be discovered and cached, connections to be
// established and the heap to reach its working size.
const warmRounds = 2 * pageWindows

// runWorkload executes one run: generate or reuse the corpus, compute the
// oracle, time the boots, warm up, measure, check. A correctness failure is
// reported in the result (Failed > 0); an error means the run itself broke.
func runWorkload(cfg runConfig) (*result, error) {
	w, err := newWorkload(cfg.Workload, cfg.Seed)
	if err != nil {
		return nil, err
	}
	in, err := resolveInputs(w, openCorpus(cfg.Out, cfg.Seed, cfg.Scale))
	if err != nil {
		return nil, err
	}
	scratchRoot, err := os.MkdirTemp(cfg.Out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratchRoot)
	fmt.Fprintf(cfg.Log, "# %s seed=%d: scratch and WAL on %s (%s), fsync per commit\n",
		w.Name, cfg.Seed, scratchRoot, fsName(scratchRoot))

	var orc oracle
	if !w.Writes {
		if orc, err = staticOracle(w, in); err != nil {
			return nil, err
		}
	}

	var tr *tracer // stays nil on the end-to-end run: the stack boots bare
	if cfg.Trace {
		tr = newTracer()
	}

	// Set-up: boot the stack several times, keep the last one running.
	var st *stack
	// Each boot is brought to nominal machine speed by the kernel runs made
	// beside it (calib.go).
	var boots, rawBoots []float64
	var booting time.Duration
	kt := newKernelTable()
	cal := newCalibrator(kt)
	for i := 0; i < cfg.Boots || (cfg.Boots > 1 && booting < bootBudget && i < maxBoots); i++ {
		if st != nil {
			if err := st.stop(); err != nil {
				return nil, fmt.Errorf("stop boot %d: %w", i-1, err)
			}
			st = nil
		}
		scratch, err := prepareScratch(w, in, scratchRoot, i)
		if err != nil {
			return nil, err
		}
		runtime.GC() // every boot starts from a collected heap
		el, kernelMS, err := cal.beside(func() (err error) {
			st, err = boot(w, in, scratch, tr)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", i, err)
		}
		booting += el
		rawBoots = append(rawBoots, el.Seconds())
		boots = append(boots, el.Seconds()*speed(kernelMS))
	}
	defer func() {
		if st != nil {
			st.stop()
		}
	}()
	fmt.Fprintf(cfg.Log, "# %d boots (s), measured: %.4f\n#   at nominal speed: %.4f\n", len(boots), rawBoots, boots)
	setup := metric{"setup_s", median(boots), "s"}

	d := newDriver(w, cfg.Seed, st, orc, kt)
	defer d.close()
	res := &result{}
	account := func(p *phase) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if res.FirstErr == nil {
			res.FirstErr = p.firstErr
		}
	}
	warm := warmRounds
	if cfg.MaxRounds > 0 {
		warm = min(warm, cfg.MaxRounds)
	}
	account(d.run(0, warm, nil))
	d.warm = warm == warmRounds // a smoke pass's short warm-up leaves windows cold

	dur := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		ms, err := tracedRun(cfg, d, in, tr, scratchRoot, dur, account)
		if err != nil {
			return nil, err
		}
		res.Metrics = ms
	} else {
		rounds := w.Rounds
		if cfg.MaxRounds > 0 {
			rounds = cfg.MaxRounds
		}
		runtime.GC() // the measured phase starts from a collected heap
		p := d.run(dur, rounds, nil)
		account(p)
		if w.Writes {
			// Flatten the overlays so the live heap is read at the same
			// point of the compaction cycle in every run.
			if err := st.front.eng.Ingest().Compact(context.Background()); err != nil {
				return nil, fmt.Errorf("final compaction: %w", err)
			}
		}
		d.dropCalibrators() // the kernel's table is the benchmark's, not the stack's
		cal, kt = nil, nil
		peak := peakRSSMiB()
		heap, rss := liveHeapMiB(), residentMiB()
		t := p.timings()
		res.Metrics = append([]metric{setup}, endToEndMetrics(p, t)...)
		res.Metrics = append(res.Metrics, metric{"live_heap_mb", heap, "MiB"}, metric{"rss_mb", rss, "MiB"})
		fmt.Fprintf(cfg.Log, "# peak RSS %.1f MiB (not gated: it is set by when the collector ran during the boots)\n", peak)
		logClasses(cfg.Log, w, p, t)
		if w.Writes {
			is := st.front.eng.Ingest().Stats()
			fmt.Fprintf(cfg.Log, "#   ingest: %d commits, %d compactions (one forced at the end), %d batches replayed at boot\n",
				is.Commits, is.Compactions, st.replayed)
		}
	}

	if w.Writes {
		res.Attempted += ingestChecks
		if err := checkIngestState(cfg, w, d, in, &st); err != nil {
			res.Failed++
			if res.FirstErr == nil {
				res.FirstErr = err
			}
		}
	}
	return res, nil
}

// qps is the phase's closed-loop throughput as measured: successful ops
// over the time the clients spent on ops (their kernel time is not the
// workload's).
func (p *phase) qps() float64 {
	return float64(p.ok()) / (p.opTime.Seconds() / numClients)
}

// endToEndMetrics derives the per-op end-to-end figures of a measured phase,
// the timing at nominal machine speed.
func endToEndMetrics(p *phase, t timings) []metric {
	ops := float64(max(p.ok(), 1))
	return []metric{
		{"read_p90_ms", t.p90, "ms"},
		{"alloc_kb_per_query", float64(p.allocated) / 1024 / ops, "KiB"},
		{"allocs_per_query", float64(p.mallocs) / ops, "count"},
	}
}

// logClasses prints the timing figures that are not gated (throughput,
// median latency and CPU per op repeat too badly on the sandbox; see the
// README), all of them at nominal speed and as measured, and the per-class
// diagnostics (p99 is shown, never gated: it moves threefold between runs
// of identical code).
func logClasses(log io.Writer, w *workload, p *phase, t timings) {
	p50, p90, p99 := p.classQuantile(0.50), p.classQuantile(0.90), p.classQuantile(0.99)
	fmt.Fprintf(log, "# measured %.2fs: %d ops, %d failed\n", p.wall.Seconds(), p.attempted, p.failed)
	fmt.Fprintf(log, "#   at nominal speed: %.1f qps, read p50 %.3f ms, p90 %.3f ms, %.3f ms CPU/op\n", t.qps, t.p50, t.p90, t.cpuMS)
	fmt.Fprintf(log, "#   as measured:      %.1f qps, read p50 %.3f ms, p90 %.3f ms, %.3f ms CPU/op\n", t.rawQPS, t.rawP50, t.raw90, t.rawCPUMS)
	fmt.Fprintf(log, "#   kernel: %d runs in %d slices, %.4f of nominal speed (%.2f ms) over the phase; per-class figures below are as measured\n",
		len(p.kernel), t.slices, t.speed, nominalMS)
	for i, c := range w.Classes {
		fmt.Fprintf(log, "#   %-10s n=%-6d p50=%.3fms p90=%.3fms p99=%.3fms\n", c.Name, len(p.lat[i]), p50[i], p90[i], p99[i])
	}
	if len(p.writeLat) > 0 {
		fmt.Fprintf(log, "#   %-10s n=%-6d p50=%.3fms\n", "write", len(p.writeLat), median(millis(p.writeLat)))
	}
}

// ingestChecks is how many checks checkIngestState makes (they count as
// attempted operations).
const ingestChecks = 4

// shardFragments lists, in the order they were appended, the batches one
// shard holds on top of its base file: the pre-committed ones of the WAL the
// boot replayed, then its single writer's acknowledged ones.
func shardFragments(seed int, clients []*clientState, shard int) []string {
	var frags []string
	for i := shard; i < preBatches; i += numShards {
		frags = append(frags, ingestBatch(seed, preWriter, i))
	}
	for _, c := range clients {
		for seq := 0; seq < c.writes; seq++ {
			if writeTarget(c.id, seq) == shard {
				frags = append(frags, ingestBatch(seed, c.id, seq))
			}
		}
	}
	return frags
}

// checkIngestState is the post-run oracle of ingest-mixed. With the clients
// stopped, the served state must equal (a) base + appended in count,
// (b) a fresh engine bulk-loading base + every fragment, class by class, and
// (c) the same again after the WAL directory is reopened by a new engine —
// every acknowledged write is readable after a restart. It stops the stack
// (and clears *stp) on its way to (c).
func checkIngestState(cfg runConfig, w *workload, d *driver, in *inputs, stp **stack) error {
	st := *stp
	cl := newClient(st.front.url)
	defer cl.close()
	served, err := digestAll(w, func(v variant) (digest, error) {
		resp, err := cl.query(v)
		if err != nil {
			return digest{}, err
		}
		return resp.digest, nil
	})
	if err != nil {
		return err
	}
	countQ := variant{Query: fmt.Sprintf(`for $p in collection(%q)//person return count($p)`, xmarkColl)}
	resp, err := cl.query(countQ)
	if err != nil {
		return err
	}

	// (a) and (b): the bulk-load reference. Each shard's text is its base
	// file followed by its fragments in write order (one writer per shard).
	batches := 0
	ref := rox.NewEngine(rox.WithSeed(engineSeed))
	var srcs []rox.Source
	for i, name := range shardNames() {
		base, err := os.ReadFile(filepath.Join(in.xmarkDir, name))
		if err != nil {
			return err
		}
		frags := shardFragments(cfg.Seed, d.clients, i)
		batches += len(frags)
		srcs = append(srcs, rox.FromXML(name, string(base)+strings.Join(frags, "")))
	}
	if err := ref.LoadCollectionSource(xmarkColl, srcs...); err != nil {
		return err
	}
	basePersons := openCorpus(cfg.Out, cfg.Seed, cfg.Scale).xmarkConfig().Persons
	want := fmt.Sprint(basePersons + personsPerBatch*batches)
	if resp.first != want {
		return fmt.Errorf("count(//person) = %s after %d batches, want %s", resp.first, batches, want)
	}
	inProcess := func(eng *rox.Engine) (oracle, error) {
		return digestAll(w, func(v variant) (digest, error) {
			return engineDigest(eng, rox.Request{Query: v.Query, Limit: v.Limit, Offset: v.Offset})
		})
	}
	bulk, err := inProcess(ref)
	if err != nil {
		return err
	}
	if diff := served.diff(w, bulk); diff != "" {
		return fmt.Errorf("served state differs from the bulk load of base + %d batches: %s", batches, diff)
	}

	// (c): restart. Stop the stack (which closes the ingest directory) and
	// reopen the same directory in a new engine over the base files.
	if err := st.stop(); err != nil {
		return err
	}
	*stp = nil
	re := rox.NewEngine(rox.WithSeed(engineSeed))
	if err := loadShardCollection(re, in.xmarkDir); err != nil {
		return err
	}
	if _, err := re.OpenIngestDir(st.walDir); err != nil {
		return fmt.Errorf("reopen wal dir: %w", err)
	}
	defer re.Ingest().Close()
	restarted, err := inProcess(re)
	if err != nil {
		return err
	}
	if diff := bulk.diff(w, restarted); diff != "" {
		return fmt.Errorf("state after restart differs from the bulk load: %s", diff)
	}
	return nil
}
