// Package loadgen is the open-loop load generator behind cmd/roxload: it
// fires queries at a roxserve at a fixed arrival rate (arrivals do not wait
// for completions, so latency is measured under constant pressure instead of
// the coordinated-omission closed loop), records per-class latency in
// log-bucketed histograms, and emits a machine-readable report. See the
// "Load harness and the perf gate" section of DESIGN.md.
package loadgen

import "math/bits"

// Histogram bucket geometry: the first subCount buckets hold values 0..31
// exactly; after that each power of two splits into subCount log-spaced
// sub-buckets, bounding relative quantile error at 1/subCount ≈ 3%. Values
// are nanoseconds; maxExp caps the range at 2^(subBits+maxExp) ns ≈ 9.5
// minutes, far beyond any latency worth distinguishing.
const (
	subBits  = 5
	subCount = 1 << subBits
	maxExp   = 34
	nBuckets = subCount + (maxExp+1)*subCount
)

// A Histogram is an HDR-style fixed-size latency histogram. The zero value
// is ready to use. Record is not goroutine-safe; the generator keeps one
// histogram per worker-visible class under a lock.
type Histogram struct {
	counts [nBuckets]int64
	total  int64
	min    int64
	max    int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - subBits
	if exp > maxExp {
		return nBuckets - 1
	}
	// v>>exp is in [subCount, 2*subCount).
	return subCount + exp<<subBits + int(v>>uint(exp)) - subCount
}

// bucketUpper is the largest value the bucket holds (inclusive).
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	exp := uint((idx - subCount) >> subBits)
	off := int64((idx - subCount) & (subCount - 1))
	return (subCount+off+1)<<exp - 1
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	h.counts[bucketOf(v)]++
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.total++
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the upper
// edge of the bucket holding the ceil(q*total)-th observation, clamped to the
// exact recorded extremes. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	rank := int64(q*float64(h.total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var seen int64
	for i := 0; i < nBuckets; i++ {
		seen += h.counts[i]
		if seen >= rank {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// Merge folds another histogram into this one.
func (h *Histogram) Merge(o *Histogram) {
	if o.total == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
}
