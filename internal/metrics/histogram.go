package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"time"
)

// numBuckets covers 1µs up to 2^32µs (about 72 minutes) in powers of two,
// plus an overflow bucket for everything longer.
const numBuckets = 34

// Histogram is the one duration histogram: RunResult.Response, the Result
// frame, and every obs registry histogram behind /metrics and /slo. Its
// power-of-two buckets of microseconds have inclusive upper edges, a
// Prometheus le: bucket 0 holds (-inf, 1µs], bucket i holds
// (2^(i-1)µs, 2^i µs] up to 2^32µs, and the last one everything above. The
// zero value is empty and ready to use; adding is allocation-free.
type Histogram struct {
	counts [numBuckets]uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	b := bits.Len64(uint64((d - 1) / time.Microsecond)) // 2^(b-1)µs < d <= 2^b µs
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// bucketUpper returns the inclusive upper edge of bucket i; the overflow
// bucket has none and reports the largest Duration.
func bucketUpper(i int) time.Duration {
	if i >= numBuckets-1 {
		return math.MaxInt64
	}
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// Add records one duration. Negative durations count into the underflow
// bucket.
func (h *Histogram) Add(d time.Duration) {
	if h.total == 0 || d < h.min {
		h.min = d
	}
	if h.total == 0 || d > h.max {
		h.max = d
	}
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += d
}

// Count returns the number of recorded durations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the total of the recorded durations.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Cumulative calls fn for each bucket below the overflow bucket, in order,
// with its inclusive upper edge and the number of recorded durations at or
// below that edge: the le buckets of a Prometheus histogram, whose +Inf
// bucket is Count.
func (h *Histogram) Cumulative(fn func(le time.Duration, n uint64)) {
	var n uint64
	for i, c := range h.counts[:numBuckets-1] {
		n += c
		fn(bucketUpper(i), n)
	}
}

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Min returns the smallest recorded duration, or 0 when empty.
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded duration, or 0 when empty.
func (h *Histogram) Max() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// inclusive upper edge of the bucket containing it, clamped to Max. It
// returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.total-1))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return min(bucketUpper(i), h.max)
		}
	}
	return h.max
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.total == 0 {
		return
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.total == 0 || other.max > h.max {
		h.max = other.max
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
}

// Render writes the non-empty buckets as ASCII bars.
func (h *Histogram) Render(w io.Writer) error {
	var b strings.Builder
	if h.total == 0 {
		fmt.Fprintln(&b, "(empty histogram)")
		_, err := io.WriteString(w, b.String())
		return err
	}
	var peak uint64
	for _, c := range h.counts {
		if c > peak {
			peak = c
		}
	}
	fmt.Fprintf(&b, "n=%d mean=%v p50<=%v p95<=%v p99<=%v max=%v\n",
		h.total, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		bar := int(40 * c / peak)
		if bar == 0 {
			bar = 1
		}
		label := "+Inf"
		if i < numBuckets-1 {
			label = "<=" + bucketUpper(i).String()
		}
		fmt.Fprintf(&b, "%12s | %-40s %d\n", label, strings.Repeat("#", bar), c)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String returns a one-line summary.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "empty"
	}
	return fmt.Sprintf("n=%d mean=%v p95<=%v", h.total, h.Mean(), h.Quantile(0.95))
}
