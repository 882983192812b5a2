package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Workload names, in suite order.
const (
	wlSteady = "live-steady"
	wlTCP    = "live-tcp-steady"
	wlBurst  = "live-burst"
	wlSim    = "sim-paper"
)

var workloadNames = []string{wlSteady, wlTCP, wlBurst, wlSim}

// metricDef names one metric and its unit. BENCHMARK.json is the contract
// the driver reads; these tables are what the program emits, and
// bench_test.go holds the two to each other.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, reported on every
// workload (README.md says what each means where it is not native).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"guarantee_ratio", "ratio"},
	{"sched_kept_ratio", "ratio"},
	{"sustained_rate", "1/s"},
	{"tasks_per_s", "1/s"},
	{"alloc_bytes_per_task", "B"},
}

// perLayer lists the metrics of a traced run, grouped by repo module. A
// layer that is not on a workload's path reports 0 there. The first three
// are end-to-end quantities, measured on the run's untraced repetitions;
// they are listed here because they hold no bound on a shared host
// (README.md, "How the bounds were measured").
var perLayer = []metricDef{
	{"dispatch_p50_us", "us"},
	{"dispatch_p95_us", "us"},
	{"cpu_us_per_task", "us"},

	{"workload.generate_ms", "ms"},

	{"admission.admit_ns", "ns"},
	{"admission.shed_share", "share"},

	{"federation.pick_ns_per_task", "ns"},
	{"federation.inbox_wait_p50_us", "us"},
	{"federation.inbox_wait_p99_us", "us"},
	{"federation.migrated_share", "share"},
	{"federation.bounced_share", "share"},
	{"fedsim.us_per_task", "us"},

	{"wire.encode_ns_per_task", "ns"},
	{"wire.decode_ns_per_task", "ns"},
	{"wire.allocs_per_batch", "count"},
	{"wire.bytes_per_task", "B"},
	{"wire.frame_rtt_us", "us"},

	{"livecluster.phases_per_task", "count"},
	{"livecluster.loop_overhead_us_per_phase", "us"},
	{"livecluster.deliver_us_per_job", "us"},
	{"livecluster.start_lateness_p95_us", "us"},
	{"livecluster.purged_share", "share"},
	{"livecluster.expired_at_worker_share", "share"},
	{"livecluster.dispatch_p99_us", "us"},
	{"livecluster.dispatch_p999_us", "us"},
	{"livecluster.response_p50_ms", "ms"},
	{"livecluster.response_p99_ms", "ms"},
	{"livecluster.verdict_lag_p95_us", "us"},

	{"core.plan_phase_us_p50", "us"},
	{"core.plan_phase_us_p99", "us"},
	{"core.plan_busy_share", "share"},
	{"core.batch_size_mean", "count"},
	{"core.scheduled_per_phase_mean", "count"},
	{"core.quanta_expired_share", "share"},

	{"search.vertices_per_task", "count"},
	{"search.backtracks_per_task", "count"},
	{"search.dead_end_share", "share"},
	{"search.expand_ns", "ns"},
	{"search.vertices_per_s", "1/s"},

	{"machine.us_per_task", "us"},
	{"db.execute_ns", "ns"},

	{"obs.entries_per_task", "count"},
	{"obs.journal_record_ns", "ns"},
	{"obs.evicted", "count"},

	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"loadgen.lateness_p99_us", "us"},
	{"trace.overhead_share", "share"},
	{"ladder.residual_share", "share"},
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// specPath is the contract, relative to the checkout root the program is
// run from.
const specPath = "BENCHMARK.json"

// loadSpec reads BENCHMARK.json; -compare and -sets take their bounds and
// directions from it, so the file stays the one place they are fixed.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}
