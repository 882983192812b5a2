package main

import (
	"io"
	"math"
	"testing"
	"time"

	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile(xs, 0.95); got != 950 {
		t.Errorf("p95 of 1..1000 = %v, want 950", got)
	}
	// p99.9 would leave one sample beyond; the rule lowers it to the
	// highest rank with ten.
	if got := percentile(xs, 0.999); got != 990 {
		t.Errorf("p99.9 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := percentile(xs[:15], 0.99); got != 5 {
		t.Errorf("p99 of 15 samples = %v, want the 5th (ten beyond)", got)
	}
	if got := percentile(xs[:5], 0.5); got != 1 {
		t.Errorf("fewer than eleven samples must fall to the smallest, got %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v; Python gives 1, 4", q1, q3)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("a single value is its own quartiles, got %v, %v", q1, q3)
	}
}

func TestSustainedRateInterpolatesAndClamps(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*want }
	// Crossing half-way (in margin) between 1000/s and 4000/s: log-linear
	// interpolation lands on the geometric mean.
	got := sustainedRate([]rateRung{{1000, 1.2}, {4000, 0.8}})
	if !near(got, 2000) {
		t.Errorf("half-way crossing = %v, want 2000", got)
	}
	// The crossing is searched above the last passing rung.
	got = sustainedRate([]rateRung{{1000, 1.3}, {2000, 1.1}, {4000, 0.9}})
	if !near(got, 2000*math.Sqrt2) {
		t.Errorf("crossing between rungs 2 and 3 = %v, want %v", got, 2000*math.Sqrt2)
	}
	if got := sustainedRate([]rateRung{{1000, 1.3}, {2000, 1.1}}); got != 2000 {
		t.Errorf("every rung passes: clamp to the top rate, got %v", got)
	}
	if got := sustainedRate([]rateRung{{1000, 0.9}, {2000, 0.7}}); got != 1000 {
		t.Errorf("lowest rung fails: clamp to the bottom rate, got %v", got)
	}
	if got := sustainedRate(nil); got != 0 {
		t.Errorf("no rungs = %v, want 0", got)
	}
	// A rung whose repetition failed has margin 0: it fails the limit
	// instead of dropping out and leaving the ladder to clamp at a pass.
	got = sustainedRate([]rateRung{{1000, 1.2}, {4000, 0}})
	if want := 1000 * math.Pow(4, 0.2/1.2); !near(got, want) {
		t.Errorf("failed top rung = %v, want %v", got, want)
	}
}

func TestRewriteBurstsShiftsDeadlinesWithArrivals(t *testing.T) {
	tasks := make([]*task.Task, 7)
	for i := range tasks {
		tasks[i] = &task.Task{ID: task.ID(i), Proc: time.Millisecond, Deadline: simtime.Instant(10 * time.Millisecond)}
	}
	rewriteBursts(tasks, 3, 20*time.Millisecond, 5*time.Millisecond)
	for i, tk := range tasks {
		want := simtime.Instant(5*time.Millisecond + time.Duration(i/3)*20*time.Millisecond)
		if tk.Arrival != want {
			t.Errorf("task %d arrives at %v, want %v", i, tk.Arrival, want)
		}
		if rel := tk.Deadline.Sub(tk.Arrival); rel != 10*time.Millisecond {
			t.Errorf("task %d relative deadline %v, want the generator's 10ms", i, rel)
		}
		if i > 0 && tk.Arrival.Before(tasks[i-1].Arrival) {
			t.Errorf("task %d arrives before task %d", i, i-1)
		}
	}
}

func TestAssembleSpansFirstOccurrencePerTask(t *testing.T) {
	const scale = 5.0
	epoch := time.Unix(1_000_000, 0)
	wall := func(us int) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }
	virt := func(us int) simtime.Instant {
		return simtime.Instant(time.Duration(float64(us)/scale) * time.Microsecond)
	}
	tasks := taskIndex{
		{ID: 0, Arrival: virt(100), Proc: 20 * time.Microsecond, Deadline: virt(100000)},
		{ID: 1, Arrival: virt(200), Proc: 20 * time.Microsecond, Deadline: virt(100000)},
	}
	entries := []obs.Entry{
		// Task 0: routed to shard 0, bounced, migrated to shard 1 — two
		// arrivals, counted once: one inbox and one dispatch sample.
		{Seq: 1, Type: "route", Task: 0, Shard: obs.RouterShard, Wall: wall(110), Virtual: virt(110)},
		{Seq: 1, Type: "arrival", Task: 0, Shard: 0, Wall: wall(120), Virtual: virt(119)},
		{Seq: 2, Type: "migrate", Task: 0, Shard: obs.RouterShard, Wall: wall(130), Virtual: virt(129)},
		{Seq: 1, Type: "arrival", Task: 0, Shard: 1, Wall: wall(140), Virtual: virt(139)},
		{Seq: 2, Type: "admit", Task: 0, Shard: 1, Wall: wall(141), Virtual: virt(139)},
		{Seq: 3, Type: "phase-start", Shard: 1, Wall: wall(142), Virtual: virt(139)},
		{Seq: 4, Type: "phase-end", Shard: 1, Wall: wall(150), Virtual: virt(149)},
		{Seq: 5, Type: "deliver", Task: 0, Shard: 1, Worker: 2, Wall: wall(160), Virtual: virt(159)},
		{Seq: 6, Type: "exec", Task: 0, Shard: 1, Worker: 2, Wall: wall(300), Virtual: virt(200), Dur: 10 * time.Microsecond, Hit: true},
		// Task 1: routed, delivered behind task 0 on the same worker, then
		// refused at the worker's queue head.
		{Seq: 3, Type: "route", Task: 1, Shard: obs.RouterShard, Wall: wall(205), Virtual: virt(205)},
		{Seq: 7, Type: "arrival", Task: 1, Shard: 1, Wall: wall(215), Virtual: virt(214)},
		{Seq: 8, Type: "phase-start", Shard: 1, Wall: wall(216), Virtual: virt(214)},
		{Seq: 9, Type: "phase-end", Shard: 1, Wall: wall(220), Virtual: virt(219)},
		{Seq: 10, Type: "deliver", Task: 1, Shard: 1, Worker: 2, Wall: wall(225), Virtual: virt(224)},
		{Seq: 11, Type: "purge", Task: 1, Shard: 1, Wall: wall(400), Virtual: virt(399)},
	}
	sp := assembleSpans(entries, tasks, scale)

	if d := sp.dispatchMicros(); len(d) != 2 || d[0] != 20 || d[1] != 50 {
		t.Errorf("dispatch (route → first deliver) = %v, want [20 50]", d)
	}
	if w := sp.inboxWaitMicros(); len(w) != 2 || w[0] != 10 || w[1] != 10 {
		t.Errorf("inbox wait (route → first arrival) = %v, want [10 10]", w)
	}
	if !sp.spans[0].executed || sp.spans[1].executed {
		t.Errorf("executed flags = %v, %v; want true, false", sp.spans[0].executed, sp.spans[1].executed)
	}
	if !sp.spans[1].expiredAtWorker || sp.spans[0].expiredAtWorker {
		t.Errorf("only task 1 expired at the worker")
	}
	// The smallest Wall − Virtual×Scale is the route entry's: the epoch.
	if !sp.epoch.Equal(epoch) {
		t.Errorf("epoch = %v, want %v", sp.epoch, epoch)
	}
	if l := sp.latenessMicros(); len(l) != 2 || math.Abs(l[0]-5) > 1e-6 || math.Abs(l[1]-10) > 1e-6 {
		t.Errorf("lateness (due → route) = %v, want [5 10]", l)
	}
	// Host iterations of shard 1: [140,160] and [215,225]; shard 0 absorbed
	// an arrival but never planned.
	if sp.phases != 2 || sp.hostWall != 30*time.Microsecond {
		t.Errorf("host iterations = %d spanning %v, want 2 spanning 30µs", sp.phases, sp.hostWall)
	}
	// Task 1 was planned to start when task 0's slot ends, not at delivery.
	if got, want := sp.spans[1].plannedStart, virt(159).Add(20*time.Microsecond); got != want {
		t.Errorf("task 1 planned start = %v, want %v", got, want)
	}
}

func TestJudgeUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	base := row{Values: []float64{100, 101, 102}, Median: 101, Q1: 100, Q3: 102}
	within := row{Values: []float64{103, 104, 105}, Median: 104, Q1: 103, Q3: 105}
	if _, _, v := judge(base, within, false, 0.10, false); v != verdictWithin {
		t.Errorf("3%% worse inside a 10%% bound = %s", v)
	}
	if _, _, v := judge(base, within, true, 0.01, false); v != verdictImproved {
		t.Errorf("3%% higher, higher-better, 1%% bound = %s", v)
	}
	worse := row{Values: []float64{120, 121, 122}, Median: 121, Q1: 120, Q3: 122}
	if _, _, v := judge(base, worse, false, 0.10, false); v != verdictRegressed {
		t.Errorf("20%% worse against a 10%% bound = %s", v)
	}
	noisy := row{Values: []float64{80, 101, 130}, Median: 101, Q1: 80, Q3: 130}
	if _, _, v := judge(base, noisy, false, 0.10, false); v != verdictUnresolved {
		t.Errorf("a 50%% spread against a 10%% bound must be unresolved, got %s", v)
	}
	// setup_s is compared median against median, whatever its spread.
	noisy.Metric, base.Metric = "setup_s", "setup_s"
	if _, _, v := judge(base, noisy, false, 0.10, false); v != verdictWithin {
		t.Errorf("setup_s with equal medians and a wide spread = %s", v)
	}
	base.Metric = ""
	// ... unless every run of the change beats every run of the base.
	better := row{Values: []float64{40, 60, 80}, Median: 60, Q1: 40, Q3: 80}
	if _, _, v := judge(base, better, false, 0.10, false); v != verdictImproved {
		t.Errorf("every run better than every base run = %s", v)
	}
}

func TestJudgeExactRowsMustRepeat(t *testing.T) {
	sim := row{Workload: wlSim, Metric: "guarantee_ratio", Values: []float64{0.126375, 0.126375}, Median: 0.126375, Q1: 0.126375, Q3: 0.126375}
	if !exactRow(sim) || exactRow(row{Workload: wlSteady, Metric: "guarantee_ratio"}) || exactRow(row{Workload: wlSim, Metric: "tasks_per_s"}) {
		t.Fatalf("exact rows are sim-paper's guarantee_ratio and sched_kept_ratio only")
	}
	if _, _, v := judge(sim, sim, true, 0.10, true); v != verdictWithin {
		t.Errorf("identical values = %s", v)
	}
	// A difference far inside the bound, in either direction, is a change
	// of behaviour.
	for _, d := range []float64{-1e-6, 1e-6} {
		other := sim
		other.Values = []float64{0.126375, 0.126375 + d}
		other.Median = 0.126375 + d/2
		if _, _, v := judge(sim, other, true, 0.10, true); v != verdictChanged {
			t.Errorf("values differing by %g = %s, want %s", d, v, verdictChanged)
		}
		// Measured with other seeds the row falls back to its bound.
		if _, _, v := judge(sim, other, true, 0.10, false); v != verdictWithin {
			t.Errorf("other seeds, differing by %g = %s", d, v)
		}
	}
}

// TestEveryDeclaredMetricIsEmitted runs each workload untraced and traced at
// a tiny size and holds what comes out against BENCHMARK.json: every name
// once, with its unit and a finite value, nothing undeclared.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, declared []specMetric, defs []metricDef) {
		units := make(map[string]string, len(defs))
		for _, d := range defs {
			if _, dup := units[d.name]; dup {
				t.Errorf("%s metric %s emitted twice", kind, d.name)
			}
			units[d.name] = d.unit
		}
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program emits %d", kind, len(declared), len(defs))
		}
		for _, m := range declared {
			if u, ok := units[m.Name]; !ok {
				t.Errorf("%s metric %s is declared but never emitted", kind, m.Name)
			} else if u != m.Unit {
				t.Errorf("%s metric %s: unit %q emitted, %q declared", kind, m.Name, u, m.Unit)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	check("per-layer", spec.PerLayer, perLayer)

	opt := options{seed: 7, seconds: 1}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(name, traced, opt, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.correct() {
				t.Errorf("%s traced=%v: %d of %d failed, %v", name, traced, rep.failed, rep.attempted, rep.failures)
			}
			line, err := rep.contractLine()
			if err != nil || len(line) == 0 {
				t.Errorf("%s traced=%v: contract line: %v", name, traced, err)
			}
			if got, want := len(rep.values), len(rep.defs()); got != want {
				t.Errorf("%s traced=%v: %d values for %d declared metrics", name, traced, got, want)
			}
		}
	}
}
