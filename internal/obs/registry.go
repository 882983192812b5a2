package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtsads/internal/metrics"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and nil-safe, so instrumented code never branches on
// whether observability is enabled.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by n (negative n is ignored: counters only go
// up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add shifts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// SetMax raises the gauge to n if n exceeds the current value — a running
// high-water mark, safe under concurrent writers.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a registry duration histogram: one metrics.Histogram behind
// a mutex, so every scrape reads its buckets, sum and count from one
// consistent snapshot.
type Histogram struct {
	mu sync.Mutex
	h  metrics.Histogram
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Add(d)
	h.mu.Unlock()
}

// Snapshot returns a copy of the distribution observed so far (empty for a
// nil histogram).
func (h *Histogram) Snapshot() metrics.Histogram {
	if h == nil {
		return metrics.Histogram{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}

// Registry is a named-metric store with Prometheus text exposition. Lookup
// takes a lock; hot paths resolve their metrics once, and then a counter or
// gauge update is one atomic and a histogram observation one short lock.
// The zero value is not usable; call NewRegistry. A nil Registry hands out
// nil metrics, which are themselves no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Names follow Prometheus conventions and may carry a label set:
// "rtsads_heartbeats_total" or `rtsads_worker_up{worker="3"}`.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(&r.mu, r.counters, name)
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(&r.mu, r.gauges, name)
}

// Histogram returns the histogram with the given name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(&r.mu, r.hists, name)
}

// lookup returns the metric named name in m, creating it on first use: the
// zero value of every metric type is ready to use.
func lookup[T any](mu *sync.Mutex, m map[string]*T, name string) *T {
	mu.Lock()
	defer mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = new(T)
		m[name] = v
	}
	return v
}

// Snapshot returns the current value of every counter and gauge, keyed by
// metric name — the reconciliation and expvar view.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// baseName strips a label set from a metric name: `a{b="c"}` -> `a`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labeled merges an extra label (`shard="0"`) into a metric name that may
// already carry a label set: `a` -> `a{extra}`, `a{b="c"}` -> `a{extra,b="c"}`.
func labeled(name, extra string) string {
	if extra == "" {
		return name
	}
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i+1] + extra + "," + name[i+1:]
	}
	return name + "{" + extra + "}"
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format, sorted by name, with one # TYPE line per metric family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeProm(w, "", true)
}

// WritePrometheusLabeled is WritePrometheus with an extra label pair
// (e.g. `shard="2"`) merged into every sample line, including histogram
// bucket/sum/count lines — the per-shard exposition dimension a federated
// run serves from one merged /metrics endpoint. withTypes controls the
// # TYPE header lines: when several labeled registries are concatenated
// into one exposition, only the first may emit them.
func (r *Registry) WritePrometheusLabeled(w io.Writer, extra string, withTypes bool) error {
	return r.writeProm(w, extra, withTypes)
}

func (r *Registry) writeProm(w io.Writer, extra string, withTypes bool) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type metric struct {
		name string
		line string
	}
	var all []metric
	types := make(map[string]string)
	for name, c := range r.counters {
		all = append(all, metric{name, fmt.Sprintf("%s %d\n", labeled(name, extra), c.Value())})
		types[baseName(name)] = "counter"
	}
	for name, g := range r.gauges {
		all = append(all, metric{name, fmt.Sprintf("%s %d\n", labeled(name, extra), g.Value())})
		types[baseName(name)] = "gauge"
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		var b strings.Builder
		bucket := func(le string, n uint64) {
			if extra != "" {
				le = extra + "," + le
			}
			fmt.Fprintf(&b, "%s_bucket{%s} %d\n", name, le, n)
		}
		s.Cumulative(func(le time.Duration, n uint64) { bucket(fmt.Sprintf("le=\"%g\"", le.Seconds()), n) })
		bucket(`le="+Inf"`, s.Count())
		fmt.Fprintf(&b, "%s %g\n", labeled(name+"_sum", extra), s.Sum().Seconds())
		fmt.Fprintf(&b, "%s %d\n", labeled(name+"_count", extra), s.Count())
		all = append(all, metric{name, b.String()})
		types[baseName(name)] = "histogram"
	}
	r.mu.Unlock()

	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	var b strings.Builder
	lastBase := ""
	for _, m := range all {
		if base := baseName(m.name); withTypes && base != lastBase {
			lastBase = base
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, types[base])
		}
		b.WriteString(m.line)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
