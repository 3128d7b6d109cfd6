package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. All methods are safe
// for concurrent use and lock-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one and returns the new count, so an admission counter can
// also number what it admits.
func (c *Counter) Inc() uint64 { return c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (in-flight requests, queue
// depth). All methods are safe for concurrent use and lock-free.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistBuckets is the fixed bucket count of every Histogram: one bucket
// per possible bit length of a uint64 observation (0 through 64), so the
// bucket layout never depends on the data and two histograms are always
// structurally identical.
const HistBuckets = 65

// Histogram is a fixed-bucket distribution of uint64 observations
// (typically nanosecond durations). Bucket k holds the observations whose
// bit length is k — bucket 0 holds exactly the value 0, bucket k≥1 holds
// [2^(k-1), 2^k). The power-of-two bounds make bucketing a single
// bits.Len64 with no search, every update a lock-free atomic add, and the
// exposition shape a constant.
//
// Sum accumulates the raw observed values and wraps on overflow like any
// uint64; at nanosecond scale that is ~584 years of accumulated time.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds; negative durations
// (a clock stepping backwards) clamp to zero.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Bucket returns the count in bucket k (0 ≤ k < HistBuckets); out-of-range
// k returns 0.
func (h *Histogram) Bucket(k int) uint64 {
	if k < 0 || k >= HistBuckets {
		return 0
	}
	return h.buckets[k].Load()
}

// BucketUpper returns the inclusive upper bound of bucket k: 0 for bucket
// 0 and 2^k − 1 for k ≥ 1. The last bucket's bound is the full uint64
// range, so no observation overflows the histogram.
func BucketUpper(k int) uint64 {
	if k <= 0 {
		return 0
	}
	if k >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(k) - 1
}

// Quantile returns an upper-bound estimate of the q-quantile of the
// observed distribution. The target rank ⌈q·Count⌉ lands in one bucket;
// within that bucket the estimate interpolates linearly between the
// bucket's bounds, rounding up, so the result never understates the
// bucket model's answer: rank at the very end of a bucket reports the
// bucket's inclusive upper bound (q=1 is exactly the old
// first-cumulative-bucket behavior), rank at the very start reports no
// less than the bucket's lower bound. q outside [0, 1] clamps; an empty
// histogram reports 0. The read is not atomic against concurrent
// Observes: each bucket load is, but the set of loads is a smear, which
// is fine for the monitoring, SLO, and load-report paths this serves.
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for k := 0; k < HistBuckets; k++ {
		n := h.buckets[k].Load()
		if cum+n < target {
			cum += n
			continue
		}
		// The target rank is the (target−cum)-th of this bucket's n
		// observations. Interpolate within [lower, upper] rounding up.
		if k == 0 {
			return 0 // bucket 0 holds exactly the value 0
		}
		lo := BucketUpper(k-1) + 1
		hi := BucketUpper(k)
		width := float64(hi - lo)
		off := math.Ceil(float64(target-cum) / float64(n) * width)
		if off >= width {
			return hi // also guards float round-up past the bucket edge
		}
		return lo + uint64(off)
	}
	return BucketUpper(HistBuckets - 1)
}
