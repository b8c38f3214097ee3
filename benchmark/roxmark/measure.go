package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// driver runs a workload's closed-loop clients against a booted stack. It
// persists across phases (warm-up, measured, traced) so every client's op
// counter — and with it the write sequence — keeps advancing.
type driver struct {
	w       *workload
	seed    int
	st      *stack
	orc     oracle // nil on ingest-mixed, where the state moves
	warm    bool   // the warm-up is over: plan caches hold every variant
	clients []*clientState
}

// clientState is one closed-loop client's position and its reader-side
// invariants.
type clientState struct {
	id      int
	cl      *client
	next    int     // next op index
	writes  int     // acknowledged writes
	lastAgg float64 // ingest-mixed: the agg class may never decrease
	cal     *calibrator
	// req, when non-zero, is the trace request id the next op belongs to
	// (the layer pass groups an op's three executions under one id).
	req int
}

func newDriver(w *workload, seed int, st *stack, orc oracle, kt kernelTable) *driver {
	d := &driver{w: w, seed: seed, st: st, orc: orc}
	for i := 0; i < numClients; i++ {
		d.clients = append(d.clients, &clientState{id: i, cl: newClient(st.front.url), cal: newCalibrator(kt)})
	}
	return d
}

// dropCalibrators releases the clients' kernels (the live-heap reading that
// follows a measured phase is the stack's, not theirs).
func (d *driver) dropCalibrators() {
	for _, c := range d.clients {
		c.cal = nil
	}
}

func (d *driver) close() {
	for _, c := range d.clients {
		c.cl.close()
	}
}

// writeTarget is the shard a client's seq-th write goes to. Each shard has
// exactly one writer, so the order of fragments inside a shard — and with it
// the bulk-load reference — does not depend on how the clients interleave.
func writeTarget(client, seq int) int {
	return (client*numShards/numClients + seq%(numShards/numClients)) % numShards
}

// sample is one successful operation: when it completed, counted from the
// start of its phase, and how long it took.
type sample struct {
	at time.Duration
	ms float64
}

// phase is what one timed phase observed.
type phase struct {
	lat       [][]sample // per class: every successful read
	writeLat  []sample   // every acknowledged write
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	cpu       time.Duration
	allocated uint64 // MemStats.TotalAlloc delta, bytes
	mallocs   uint64 // MemStats.Mallocs delta
	respBytes int64
	// Engine-reported work, summed over successful reads.
	sampleTuples, execTuples, cumIntermediate int64
	rows, scanned                             int64
	cacheHits                                 int64
	skewSum                                   float64 // Σ slowest/mean shard elapsed
	skewN                                     int
	// kernel holds the calibration kernel's runs (see calib.go).
	kernel []kernelRun
	// opTime is the clients' summed time outside the kernel: what the
	// closed loops spent on operations.
	opTime time.Duration
}

func (p *phase) ok() int { return p.attempted - p.failed }

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// merge folds one client's observations into p.
func (p *phase) merge(q *phase) {
	for i := range q.lat {
		p.lat[i] = append(p.lat[i], q.lat[i]...)
	}
	p.writeLat = append(p.writeLat, q.writeLat...)
	p.attempted += q.attempted
	p.failed += q.failed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	p.respBytes += q.respBytes
	p.sampleTuples += q.sampleTuples
	p.execTuples += q.execTuples
	p.cumIntermediate += q.cumIntermediate
	p.rows += q.rows
	p.scanned += q.scanned
	p.cacheHits += q.cacheHits
	p.skewSum += q.skewSum
	p.skewN += q.skewN
	p.kernel = append(p.kernel, q.kernel...)
	p.opTime += q.opTime
}

func newPhase(w *workload) *phase {
	return &phase{lat: make([][]sample, len(w.Classes))}
}

// run drives every client for whole rounds until dur has passed (no time
// limit when dur is 0) and at most maxRounds rounds when that is positive,
// measuring process CPU and allocation around the whole phase. tr, when
// non-nil, records one span per request.
func (d *driver) run(dur time.Duration, maxRounds int, tr *tracer) *phase {
	total := newPhase(d.w)
	parts := make([]*phase, len(d.clients))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, c := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newPhase(d.w)
			var lastCal time.Time // zero: the phase opens with a kernel run
			var calTotal float64
			for round := 0; maxRounds <= 0 || round < maxRounds; round++ {
				if dur > 0 && round > 0 && !time.Now().Before(deadline) {
					break
				}
				if time.Since(lastCal) >= calEvery {
					wall, cpu := c.cal.run()
					p.kernel = append(p.kernel, kernelRun{time.Since(start), wall, cpu})
					calTotal += wall
					lastCal = time.Now()
				}
				for k := 0; k < d.w.roundLen(); k++ {
					d.step(c, p, start, tr)
				}
			}
			p.opTime = time.Since(start) - time.Duration(calTotal*float64(time.Millisecond))
			parts[i] = p
		}()
	}
	wg.Wait()
	total.wall = time.Since(start)
	total.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	total.allocated = m1.TotalAlloc - m0.TotalAlloc
	total.mallocs = m1.Mallocs - m0.Mallocs
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// step executes and checks the client's next scheduled operation.
func (d *driver) step(c *clientState, p *phase, start time.Time, tr *tracer) {
	o := d.w.schedule(d.seed, c.id, c.next)
	c.next++
	p.attempted++
	if o.Write {
		target := shardName(writeTarget(c.id, o.Seq))
		sp := tr.start(0, c.traceRequest(tr), "serve.ingest")
		t0 := time.Now()
		err := c.cl.ingest(target, ingestBatch(d.seed, c.id, o.Seq))
		el := time.Since(t0)
		tr.end(sp, nil)
		if err != nil {
			p.fail(fmt.Errorf("write %d of client %d: %w", o.Seq, c.id, err))
			return
		}
		if o.Seq != c.writes {
			p.fail(fmt.Errorf("client %d write sequence %d after %d acknowledged", c.id, o.Seq, c.writes))
			return
		}
		c.writes++
		p.writeLat = append(p.writeLat, sample{time.Since(start), ms(el)})
		return
	}
	cls := d.w.Classes[o.Class]
	req := c.traceRequest(tr)
	sp := tr.start(0, req, "serve.request")
	c.cl.ref = spanRef{sp, req}
	t0 := time.Now()
	resp, err := c.cl.query(cls.Variants[o.Variant])
	el := time.Since(t0)
	if err != nil {
		tr.end(sp, nil)
		p.fail(fmt.Errorf("%s/%d: %w", cls.Name, o.Variant, err))
		return
	}
	if sp != 0 {
		tr.end(sp, map[string]float64{"class": float64(o.Class), "bytes": float64(resp.bytes),
			"items": float64(resp.digest.Items), "engine_ns": float64(resp.stats.ElapsedNS)})
	}
	if err := d.check(c, o, resp); err != nil {
		p.fail(fmt.Errorf("%s/%d: %w", cls.Name, o.Variant, err))
		return
	}
	p.lat[o.Class] = append(p.lat[o.Class], sample{time.Since(start), ms(el)})
	p.respBytes += int64(resp.bytes)
	s := resp.stats
	p.sampleTuples += s.SampleTuples
	p.execTuples += s.ExecTuples
	p.cumIntermediate += s.CumulativeIntermediate
	p.rows += int64(s.Rows)
	p.scanned += int64(s.Scanned)
	if s.CacheHit {
		p.cacheHits++
	}
	if len(s.Shards) > 1 {
		var sum, slowest float64
		for _, sh := range s.Shards {
			e := float64(sh.Stats.ElapsedNS)
			sum += e
			slowest = max(slowest, e)
		}
		if sum > 0 {
			p.skewSum += slowest / (sum / float64(len(s.Shards)))
			p.skewN++
		}
	}
}

// traceRequest is the trace request id of the client's next op: the one the
// caller fixed, or a fresh one.
func (c *clientState) traceRequest(tr *tracer) int {
	if c.req != 0 {
		return c.req
	}
	return tr.request()
}

// check is the correctness gate of one read. Against a static corpus the
// response must equal the oracle's digest. On ingest-mixed the state moves,
// so the per-reader invariants are checked instead: windows stay full and
// the agg class (a sum of positive values that only grows) never decreases.
func (d *driver) check(c *clientState, o op, resp *response) error {
	if resp.stats.Rows != resp.digest.Items {
		return fmt.Errorf("stats line reports %d rows, stream carried %d items", resp.stats.Rows, resp.digest.Items)
	}
	if d.w.Replays && d.warm && resp.stats.SampleTuples != 0 {
		return fmt.Errorf("sampled %d tuples where every plan should replay from the cache", resp.stats.SampleTuples)
	}
	if d.orc != nil {
		if want := d.orc[o.Class][o.Variant]; resp.digest != want {
			return fmt.Errorf("digest mismatch: got %+v, oracle %+v", resp.digest, want)
		}
		return nil
	}
	switch d.w.Classes[o.Class].Name {
	case "agg":
		v, err := strconv.ParseFloat(resp.first, 64)
		if err != nil {
			return fmt.Errorf("agg item %q is not a number", resp.first)
		}
		if v < c.lastAgg {
			return fmt.Errorf("agg went backwards for one reader: %v after %v", v, c.lastAgg)
		}
		c.lastAgg = v
	case "topk", "page":
		if resp.digest.Items != 10 {
			return fmt.Errorf("window returned %d items, want 10", resp.digest.Items)
		}
	case "scan":
		if resp.digest.Items != 200 {
			return fmt.Errorf("window returned %d items, want 200", resp.digest.Items)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// millis lists the durations of samples.
func millis(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

// processCPU is the process's user+system CPU time so far: server(s) and
// clients together, since they share the process by design.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set so far (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// residentMiB is the resident set once the freed part of the heap has gone
// back to the OS: what the stack needs resident — heap, stacks, runtime, and
// the pages of mapped packed shards it touched, which the heap figure cannot
// see — rather than what the collector happened to be holding.
func residentMiB() float64 {
	// Mappings of replaced packed snapshots are released by cleanups, which
	// run some time after the collection that found them dead: collect,
	// give them a moment, collect again.
	debug.FreeOSMemory()
	time.Sleep(50 * time.Millisecond)
	debug.FreeOSMemory()
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// liveHeapMiB forces a collection and reports what stays reachable.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// classQuantile returns, per class, the q-quantile of the class's latencies
// as measured.
func (p *phase) classQuantile(q float64) []float64 {
	return p.scaledQuantile(q, func(time.Duration) float64 { return 1 })
}

// scaledQuantile is classQuantile with every sample multiplied by scale of
// its completion time first.
func (p *phase) scaledQuantile(q float64, scale func(at time.Duration) float64) []float64 {
	out := make([]float64, len(p.lat))
	for i, l := range p.lat {
		v := make([]float64, len(l))
		for j, s := range l {
			v[j] = s.ms * scale(s.at)
		}
		sort.Float64s(v)
		out[i] = percentile(v, q)
	}
	return out
}

// timings are the timing figures of a measured phase, at nominal machine
// speed and as measured.
type timings struct {
	qps, cpuMS, p50, p90            float64
	rawQPS, rawCPUMS, rawP50, raw90 float64
	speed                           float64 // over the whole phase
	slices                          int
}

// speeds reads the machine's speed off the phase's kernel runs: over the
// whole phase, and per sliceLen-long stretch of it (a stretch with fewer
// than three runs, as the last one may be, takes the whole phase's reading).
func (p *phase) speeds() (overall float64, at func(time.Duration) float64, slices int) {
	var all []float64
	slice := map[time.Duration][]float64{}
	for _, k := range p.kernel {
		all = append(all, k.wall)
		slice[k.at/sliceLen] = append(slice[k.at/sliceLen], k.wall)
	}
	overall = speed(all)
	return overall, func(at time.Duration) float64 {
		if runs := slice[at/sliceLen]; len(runs) >= 3 {
			return speed(runs)
		}
		return overall
	}, len(slice)
}

// kernelCPU is the CPU time the phase's kernel runs were charged: not the
// workload's.
func (p *phase) kernelCPU() time.Duration {
	var sum time.Duration
	for _, k := range p.kernel {
		sum += k.cpu
	}
	return sum
}

// timings brings the phase's timings to nominal machine speed. Latencies —
// the gated read_p90_ms among them — are scaled one by one, each by the
// speed of the stretch of the phase it completed in, then quantiles are
// taken per class and their geometric mean over classes. Throughput and CPU
// per op, which are printed but not gated, are scaled by the whole phase's
// one reading.
func (p *phase) timings() timings {
	overall, speedAt, slices := p.speeds()
	t := timings{
		rawQPS:   p.qps(),
		rawCPUMS: ms(p.cpu-p.kernelCPU()) / float64(max(p.ok(), 1)),
		rawP50:   geomean(p.classQuantile(0.50)),
		raw90:    geomean(p.classQuantile(0.90)),
		p50:      geomean(p.scaledQuantile(0.50, speedAt)),
		p90:      geomean(p.scaledQuantile(0.90, speedAt)),
		speed:    overall,
		slices:   slices,
	}
	t.qps, t.cpuMS = t.rawQPS/overall, t.rawCPUMS*overall
	return t
}
