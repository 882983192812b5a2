package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a_total") != c {
		t.Error("same name resolves to a different counter")
	}
	g := r.Gauge("b")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
}

func TestNilMetricsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(time.Second)
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry write: %v", err)
	}
	var c *Counter
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has value")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds")
	h.Observe(time.Microsecond)     // first bucket
	h.Observe(3 * time.Microsecond) // 4µs bucket
	h.Observe(2 * time.Hour)        // +Inf
	s := h.Snapshot()
	if s.Count() != 3 {
		t.Errorf("count = %d, want 3", s.Count())
	}
	want := 2*time.Hour + 4*time.Microsecond
	if s.Sum() != want {
		t.Errorf("sum = %v, want %v", s.Sum(), want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, wantLine := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="1e-06"} 1`,
		`lat_seconds_bucket{le="2e-06"} 1`,
		`lat_seconds_bucket{le="4e-06"} 2`,
		`lat_seconds_bucket{le="4294.967296"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, wantLine) {
			t.Errorf("exposition missing %q:\n%s", wantLine, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("rtsads_hits_total").Add(12)
	r.Counter(`rtsads_worker_up{worker="1"}`).Inc()
	r.Gauge("rtsads_workers_alive").Set(4)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE rtsads_hits_total counter",
		"rtsads_hits_total 12",
		"# TYPE rtsads_worker_up counter",
		`rtsads_worker_up{worker="1"} 1`,
		"# TYPE rtsads_workers_alive gauge",
		"rtsads_workers_alive 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Names must come out sorted so scrapes diff cleanly.
	if strings.Index(out, "rtsads_hits_total") > strings.Index(out, "rtsads_workers_alive") {
		t.Errorf("exposition not sorted:\n%s", out)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	scraped := make(chan error)
	go func() { scraped <- scrapeUntil(r, stop) }()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h_seconds").Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-scraped; err != nil {
		t.Error(err)
	}
	if got := r.Counter("c_total").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if h := r.Histogram("h_seconds").Snapshot(); h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

// scrapeUntil scrapes r until stop closes, and once more after, and fails
// any scrape where a histogram's le="+Inf" bucket differs from its _count,
// or a last scrape that shows no histogram.
func scrapeUntil(r *Registry, stop <-chan struct{}) error {
	var inf map[string]string
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			return err
		}
		inf = make(map[string]string)
		for _, line := range strings.Split(b.String(), "\n") {
			if name, n, ok := strings.Cut(line, `_bucket{le="+Inf"} `); ok {
				inf[name] = n
			}
		}
		for name, n := range inf {
			if count := name + "_count " + n; !strings.Contains(b.String(), count+"\n") {
				return fmt.Errorf("scrape has %s_bucket{le=\"+Inf\"} %s but no %q:\n%s", name, n, count, b.String())
			}
		}
	}
	if len(inf) == 0 {
		return fmt.Errorf("the last scrape shows no histogram")
	}
	return nil
}

// BenchmarkHistogramObserve prices one registry histogram observation,
// alone and with every P observing the same histogram.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds")
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i&1023) * time.Microsecond)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				h.Observe(time.Duration(i&1023) * time.Microsecond)
			}
		})
	})
}
