package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// The sandbox's two vCPUs change speed by a quarter from one second to the
// next, each on its own (a fixed loop timed for 40 s ran in 3.9 ms or in
// 5.0 ms per half second, flipping every few seconds), and drift by as much
// again over minutes. Twelve 20 s runs of identical code on one seed, as
// measured: read_p90_ms with its quartiles 11 % of its median apart (range
// 31 %), throughput 8.6 % (26 %); another twelve an hour later 23 % (63 %)
// and 25 % (50 %). No bound a regression gate can use survives that, so
// every timed phase also times a fixed kernel that shares no code with the
// engine — a sort, a random gather, a sequential scan and a dependent walk
// over a 4 MiB table, ≈5 ms of the compute-and-cache-miss mix the engine's
// joins are made of — about ten times a second on each client, and timings
// are reported at nominal machine speed: measured × nominal kernel time ÷
// the median kernel time beside them (see phase.timings for which runs
// count as beside). On the same two dozen runs that leaves read_p90_ms with
// 4 % and 7–9 %. The values as measured are printed beside the scaled ones;
// count metrics are never touched.
//
// What this cannot do: the kernel runs beside the engine, so a change that
// makes the engine hungrier for cache or memory bandwidth slows the kernel
// a little too and hides that part of its own cost. The count metrics and
// the as-measured values are the check on that.
const (
	// nominalMS defines the unit: a nominal millisecond is one in which the
	// kernel gets 1/4.85 of a run done, the median on the quiet 2.1 GHz
	// Xeon vCPUs the committed numbers come from. On another machine every
	// timing metric shifts by one common factor; comparisons between two
	// commits on one machine do not care.
	nominalMS = 4.85
	// calEvery is how often each client runs the kernel between rounds:
	// about 5 % of a phase.
	calEvery = 100 * time.Millisecond
	// bootCalEvery is the pause between kernel runs beside a boot: a quarter
	// of one CPU, and ten runs beside a boot that shreds XML for 0.2 s.
	bootCalEvery = 15 * time.Millisecond
	// sliceLen is the stretch of a phase whose latencies are scaled by one
	// speed reading: long enough for ≈20 kernel runs, short enough that the
	// machine's speed holds inside it.
	sliceLen = time.Second
)

// kernelTable is the 4 MiB table the kernel reads: one cycle over 1 Mi
// entries, read-only once built, shared by the calibrators of a run.
type kernelTable []uint32

func xorshift(x *uint32) uint32 {
	*x ^= *x << 13
	*x ^= *x >> 17
	*x ^= *x << 5
	return *x
}

func newKernelTable() kernelTable {
	// Sattolo's shuffle: a single cycle through the whole table, so the
	// dependent walk never falls into a short loop that fits a cache.
	t := make(kernelTable, 1<<20)
	for i := range t {
		t[i] = uint32(i)
	}
	x := uint32(2463534242)
	for i := len(t) - 1; i > 0; i-- {
		j := int(xorshift(&x) % uint32(i))
		t[i], t[j] = t[j], t[i]
	}
	return t
}

type calibrator struct {
	table         kernelTable
	keys, scratch []uint32
	sink          uint32
}

func newCalibrator(table kernelTable) *calibrator {
	c := &calibrator{table: table, keys: make([]uint32, 1<<14), scratch: make([]uint32, 1<<14)}
	x := uint32(88172645)
	for i := range c.keys {
		c.keys[i] = xorshift(&x)
	}
	return c
}

// kernelRun is one execution of the kernel: how long it took on the clock —
// the machine's speed, other guests included — and how much CPU time its
// thread was charged, which is what the phase's CPU figure must leave out.
// (The two differ exactly when the machine is contended, so subtracting the
// clock time would hide CPU the engine used.)
type kernelRun struct {
	at   time.Duration // since the phase began
	wall float64       // ms
	cpu  time.Duration
}

// run executes the kernel once. It allocates nothing, so a phase's
// allocation metrics are untouched.
func (c *calibrator) run() (wallMS float64, cpu time.Duration) {
	runtime.LockOSThread() // thread CPU time needs the thread to stay ours
	defer runtime.UnlockOSThread()
	cpu0 := threadCPU()
	t0 := time.Now()
	copy(c.scratch, c.keys)
	slices.Sort(c.scratch) // compute and branches
	acc := c.scratch[0]
	for n := uint32(0); n < 1<<18; n++ { // independent random loads
		acc += c.table[(n*2654435761)>>12]
	}
	for _, v := range c.table { // memory bandwidth
		acc ^= v
	}
	i := acc % uint32(len(c.table))
	for n := 0; n < 1<<16; n++ { // dependent loads: memory latency
		i = c.table[i]
	}
	c.sink += i
	return ms(time.Since(t0)), threadCPU() - cpu0
}

// beside times f with the kernel running beside it on another goroutine,
// every bootCalEvery, and returns how long f took and the kernel's times. A
// boot is read this way and not from kernel runs before and after it: a boot
// keeps both CPUs busy (the collector works beside the shredder), the two
// vCPUs slow each other down, and a kernel run on an otherwise idle machine
// reads nominal speed while the boot between two of them takes half as long
// again.
func (c *calibrator) beside(f func() error) (el time.Duration, kernelMS []float64, err error) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			wall, _ := c.run()
			kernelMS = append(kernelMS, wall)
			select {
			case <-stop:
				return
			case <-time.After(bootCalEvery):
			}
		}
	}()
	t0 := time.Now()
	err = f()
	el = time.Since(t0)
	close(stop)
	<-done
	return el, kernelMS, err
}

// threadCPU is the calling thread's user+system CPU time so far.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// speed is the machine's speed as a set of kernel runs saw it, 1 being
// nominal (and 1 when no kernel ran). A timing measured beside them reads
// at nominal speed once multiplied by it; a rate, once divided.
func speed(kernelMS []float64) float64 {
	if len(kernelMS) == 0 {
		return 1
	}
	return nominalMS / median(kernelMS)
}
