package metrics

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

const us = time.Microsecond

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram not all-zero")
	}
	var b strings.Builder
	if err := h.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "empty") {
		t.Errorf("empty render = %q", b.String())
	}
	if h.String() != "empty" {
		t.Errorf("String = %q", h.String())
	}
}

func TestHistogramBucketOf(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{us, 0},                          // (-inf, 1µs]
		{us + 1, 1},                      // (1µs, 2µs]
		{2 * us, 1},                      //
		{3 * us, 2},                      // (2µs, 4µs]
		{4 * us, 2},                      //
		{1023 * us, 10},                  // (512µs, 1024µs]
		{1024 * us, 10},                  //
		{1024*us + 1, 11},                // (1024µs, 2048µs]
		{(1 << 32) * us, numBuckets - 2}, // the last finite edge
		{(1<<32)*us + 1, numBuckets - 1},
		{-time.Second, 0},
		{100 * time.Hour, numBuckets - 1},
	}
	for _, tt := range tests {
		if got := bucketOf(tt.d); got != tt.want {
			t.Errorf("bucketOf(%v) = %d, want %d", tt.d, got, tt.want)
		}
	}
}

func TestHistogramAddAndStats(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{us, 3 * us, 5 * us, 7 * us} {
		h.Add(d)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 4*us {
		t.Errorf("Mean = %v, want 4µs", h.Mean())
	}
	if h.Min() != us || h.Max() != 7*us {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if h.Sum() != 16*us {
		t.Errorf("Sum = %v, want 16µs", h.Sum())
	}
	edges := 0
	h.Cumulative(func(le time.Duration, n uint64) {
		edges++
		if le == 4*us && n != 2 {
			t.Errorf("%d durations at or below 4µs, want 2", n)
		}
	})
	if edges != numBuckets-1 {
		t.Errorf("Cumulative walked %d edges, want %d", edges, numBuckets-1)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	// 100 values: 1µs..100µs.
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * us)
	}
	// The quantile upper bound must never be below the true quantile and
	// never above the next power-of-two edge.
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		got := h.Quantile(q)
		trueQ := time.Duration(1+int(q*99)) * us
		if got < trueQ {
			t.Errorf("Quantile(%v) = %v below true value %v", q, got, trueQ)
		}
		if got > 2*trueQ && got != h.Max() {
			t.Errorf("Quantile(%v) = %v more than 2x true value %v", q, got, trueQ)
		}
	}
	if h.Quantile(-1) != h.Quantile(0) {
		t.Error("q<0 not clamped")
	}
	if h.Quantile(2) != h.Quantile(1) {
		t.Error("q>1 not clamped")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Add(us)
	a.Add(10 * us)
	b.Add(100 * us)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Errorf("merged count = %d", a.Count())
	}
	if a.Max() != 100*us {
		t.Errorf("merged max = %v", a.Max())
	}
	if a.Min() != us {
		t.Errorf("merged min = %v", a.Min())
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != 3 {
		t.Error("merging empty changed the histogram")
	}
	empty.Merge(&a)
	if empty.Count() != 3 || empty.Min() != us {
		t.Error("merging into empty lost data")
	}
}

func TestHistogramRenderShape(t *testing.T) {
	var h Histogram
	for i := 0; i < 50; i++ {
		h.Add(10 * us)
	}
	h.Add(time.Millisecond)
	var b strings.Builder
	if err := h.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "n=51") || !strings.Contains(out, "#") {
		t.Errorf("render = %q", out)
	}
}

// Property: Quantile is monotone in q and bounded by [some bucket edge >=
// min, max].
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		vals := make([]time.Duration, len(raw))
		for i, v := range raw {
			vals[i] = time.Duration(v) * us
			h.Add(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		prev := time.Duration(-1)
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			if cur > h.Max() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Merge preserves the total count and sum (mean consistency).
func TestHistogramMergePreservesMassProperty(t *testing.T) {
	f := func(a, b []uint16) bool {
		var ha, hb Histogram
		var sum time.Duration
		for _, v := range a {
			d := time.Duration(v) * us
			ha.Add(d)
			sum += d
		}
		for _, v := range b {
			d := time.Duration(v) * us
			hb.Add(d)
			sum += d
		}
		ha.Merge(&hb)
		if ha.Count() != uint64(len(a)+len(b)) {
			return false
		}
		if ha.Count() == 0 {
			return true
		}
		return ha.Mean() == sum/time.Duration(len(a)+len(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramBucketUpperUnderflow(t *testing.T) {
	if bucketUpper(0) != us {
		t.Errorf("bucketUpper(0) = %v", bucketUpper(0))
	}
	if bucketUpper(3) != 8*us {
		t.Errorf("bucketUpper(3) = %v", bucketUpper(3))
	}
}

func TestHistogramStringNonEmpty(t *testing.T) {
	var h Histogram
	h.Add(3 * us)
	if h.String() == "" || h.String() == "empty" {
		t.Errorf("String = %q", h.String())
	}
}
