package metrics_test

import (
	"fmt"
	"time"

	"rtsads/internal/metrics"
)

// ExampleHistogram records a few response times and reads their quantiles.
func ExampleHistogram() {
	var h metrics.Histogram
	for _, d := range []time.Duration{
		100 * time.Microsecond,
		200 * time.Microsecond,
		400 * time.Microsecond,
		3 * time.Millisecond,
	} {
		h.Add(d)
	}
	fmt.Println("count:", h.Count())
	fmt.Println("max:  ", h.Max())
	fmt.Println("p50 ≤", h.Quantile(0.5))
	// Output:
	// count: 4
	// max:   3ms
	// p50 ≤ 256µs
}
