// Package obs is the live cluster's observability layer: a lock-cheap
// metrics registry (counters, gauges, duration histograms with Prometheus
// text exposition), a bounded structured event journal with wall-clock and
// virtual timestamps, the views rendered from that journal (JSONL, two
// Chrome/Perfetto traces, a Gantt chart, per-task lifecycles), and an HTTP
// debug endpoint serving /metrics, /healthz, expvar and pprof.
//
// The paper's evaluation (§5) measures scheduling cost, quantum sizing and
// deadline compliance as the system runs; this package makes the same
// quantities visible on the concurrent TCP path — phases, deliveries,
// heartbeats, redials, worker failures and reroutes — instead of only in
// the final RunResult. Every counter that mirrors a RunResult field is
// incremented at exactly the point the field is, so registry totals
// reconcile with the run's final metrics.
//
// All entry points are nil-safe: a nil *Observer (observability disabled)
// costs one pointer comparison per event.
package obs

import (
	"fmt"
	"sync"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/metrics"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// Metric names exposed by the registry. The *_total counters ending in
// hits/purged/missed/lost/worker_failures/rerouted mirror the equally-named
// RunResult fields one-to-one.
const (
	MetricPhases        = "rtsads_phases_total"
	MetricVertices      = "rtsads_search_vertices_total"
	MetricBacktracks    = "rtsads_search_backtracks_total"
	MetricDeadEnds      = "rtsads_search_dead_ends_total"
	MetricQuantaExpired = "rtsads_quanta_expired_total"

	MetricArrivals   = "rtsads_task_arrivals_total"
	MetricDeliveries = "rtsads_task_deliveries_total"
	MetricHits       = "rtsads_task_deadline_hits_total"
	MetricMissed     = "rtsads_task_scheduled_missed_total"
	MetricPurged     = "rtsads_task_purged_total"
	MetricLost       = "rtsads_task_lost_to_failure_total"
	MetricRerouted   = "rtsads_task_rerouted_total"

	// Overload-resilience metrics: admitted/shed mirror the RunResult
	// fields exactly (shed is also broken down by reason via
	// MetricShedPattern, and the labels sum to the total).
	MetricAdmitted     = "rtsads_task_admitted_total"
	MetricShed         = "rtsads_task_shed_total"
	MetricBounced      = "rtsads_task_bounced_total"
	MetricShedPattern  = "rtsads_task_shed_total{reason=%q}"
	MetricBatchSizeMax = "rtsads_batch_size_max"

	MetricWorkerFailures  = "rtsads_worker_failures_total"
	MetricDisruptions     = "rtsads_worker_disruptions_total"
	MetricStragglers      = "rtsads_straggler_reclaims_total"
	MetricHeartbeatsSent  = "rtsads_heartbeats_sent_total"
	MetricHeartbeatsRecv  = "rtsads_heartbeats_received_total"
	MetricRedials         = "rtsads_redials_total"
	MetricRedialFailures  = "rtsads_redial_failures_total"
	MetricWorkerJobs      = "rtsads_worker_jobs_total"
	MetricWorkersAlive    = "rtsads_workers_alive"
	MetricWorkersTotal    = "rtsads_workers_total"
	MetricInflight        = "rtsads_tasks_inflight"
	MetricBatchSize       = "rtsads_batch_size"
	MetricPhaseDuration   = "rtsads_phase_duration_seconds"
	MetricQuantumSize     = "rtsads_quantum_size_seconds"
	MetricResponseTime    = "rtsads_response_time_seconds"
	MetricWorkerUpPattern = "rtsads_worker_up{worker=%q}"

	// Worker wake-up overshoot: how far past its completion target a live
	// worker observed the clock (virtual time, like every histogram here;
	// × Scale for wall). Workers sleep to absolute targets, so this is the
	// per-job jitter that remains: the wake-up latency of one sleep — tens of
	// wall microseconds on a kernel timer (Linux), up to 1.1 ms on Go's
	// runtime timers, which sleep in whole milliseconds.
	MetricWorkerOvershoot = "rtsads_worker_overshoot_seconds"

	// SLO-plane metrics: deadline-slack distributions at the two ends of a
	// task's life (admission: d_l − t_c when the gate accepts; completion:
	// deadline − finish, clamped at zero for misses since the histogram is
	// non-negative), and the live guarantee ratio in parts-per-million
	// (hits over locally-terminal admitted tasks — the paper's guarantee
	// read as a running SLI).
	MetricSlackAdmission  = "rtsads_slack_admission_seconds"
	MetricSlackCompletion = "rtsads_slack_completion_seconds"
	MetricGuaranteeRatio  = "rtsads_slo_guarantee_ratio_ppm"

	// Vertices expanded (search.Stats.Expanded) summed across phases.
	MetricSearchExpanded = "rtsads_search_expanded_total"

	// Policy-tournament metrics: one labelled gauge family per reported
	// axis, published by policy.Report.Mirror so a -debug-addr scrape sees
	// each contender's guarantee ratio (parts per million), missed-task
	// count, and mean per-run scheduling cost (microseconds).
	MetricPolicyGuaranteePattern   = "rtsads_policy_guarantee_ratio_ppm{policy=%q}"
	MetricPolicyShedMissPattern    = "rtsads_policy_shed_miss_total{policy=%q}"
	MetricPolicySchedMicrosPattern = "rtsads_policy_scheduling_micros{policy=%q}"
)

// CountMetric names the registry counter that mirrors each position of the
// books' vector (metrics.Counts): the Observer call booking a count moves its
// counter with it.
var CountMetric = [metrics.NumCounts]string{
	metrics.CountHits:           MetricHits,
	metrics.CountMissed:         MetricMissed,
	metrics.CountPurged:         MetricPurged,
	metrics.CountLost:           MetricLost,
	metrics.CountShed:           MetricShed,
	metrics.CountShedHopeless:   fmt.Sprintf(MetricShedPattern, admission.Hopeless),
	metrics.CountShedQueueFull:  fmt.Sprintf(MetricShedPattern, admission.QueueFull),
	metrics.CountShedShutdown:   fmt.Sprintf(MetricShedPattern, admission.ShuttingDown),
	metrics.CountShedInfeasible: fmt.Sprintf(MetricShedPattern, admission.Infeasible),
	metrics.CountTotal:          MetricArrivals,
	metrics.CountAdmitted:       MetricAdmitted,
	metrics.CountRerouted:       MetricRerouted,
	metrics.CountBounced:        MetricBounced,
	metrics.CountWorkerFailures: MetricWorkerFailures,
	metrics.CountPhases:         MetricPhases,
	metrics.CountVertices:       MetricVertices,
	metrics.CountBacktracks:     MetricBacktracks,
	metrics.CountDeadEnds:       MetricDeadEnds,
	metrics.CountQuantaExpired:  MetricQuantaExpired,
}

// Mirror maps each registry counter the books' Observer calls move to the
// RunResult count it must equal once a run ends.
func Mirror(r *metrics.RunResult) map[string]int {
	m := make(map[string]int, metrics.NumCounts)
	for k, n := range r.Counts() {
		m[CountMetric[k]] = int(n)
	}
	return m
}

// PhaseStats is the per-phase search behaviour the observer records — a
// mirror of core.PhaseOutput without importing core (which must stay
// observation-free).
type PhaseStats struct {
	Quantum    time.Duration // allocated Qs(j)
	Used       time.Duration // scheduling time consumed
	Generated  int           // search vertices generated
	Backtracks int
	DeadEnd    bool
	Expired    bool

	// Expanded is search.Stats.Expanded: vertices whose successors were
	// generated.
	Expanded int
}

// WorkerHealth is one worker's liveness as the host sees it.
type WorkerHealth struct {
	Worker int  `json:"worker"`
	Alive  bool `json:"alive"`
}

// Observer fans one stream of run events out to the registry (counts) and
// the journal (the one event record every trace view renders from).
// Construct with New; a nil Observer ignores everything.
type Observer struct {
	reg     *Registry
	journal *Journal

	wall func() time.Time

	// Resolved metric handles: hot paths never touch the registry map.
	// books holds the counters that mirror a RunResult's counts, by
	// position (CountMetric).
	books                                                  [metrics.NumCounts]*Counter
	deliveries, disruptions, stragglers, searchExpanded    *Counter
	heartbeatsSent, heartbeatsRecv, redials, redialsFailed *Counter
	workersAlive, workersTotal, inflight, batchSize        *Gauge
	batchSizeMax, guaranteeRatio                           *Gauge
	phaseDur, quantumSize, responseTime                    *Histogram
	slackAdmission, slackCompletion, workerOvershoot       *Histogram

	mu       sync.Mutex
	alive    []bool
	workerUp []*Gauge
	jobs     []*Counter

	// settle, when set, fires once per task reaching a terminal verdict
	// (exec, purge, lost, shed — not bounce, which hands the task to
	// another domain), carrying the verdict's position in the books'
	// vector (a shed's reason's). Because the hook sees ID and bucket
	// together, a consumer can maintain verdict counts exactly consistent
	// with the ID stream it buffers — the property the federation's salvage
	// accounting leans on.
	settle func(task.ID, metrics.Count)

	lastVirtual Gauge // the latest virtual time any event carried
}

// New returns an observer over a fresh registry and a journal of the given
// capacity (<= 0 selects DefaultJournalCap).
func New(journalCap int) *Observer {
	reg := NewRegistry()
	o := &Observer{
		reg:     reg,
		journal: NewJournal(journalCap),
		wall:    time.Now,

		deliveries:     reg.Counter(MetricDeliveries),
		disruptions:    reg.Counter(MetricDisruptions),
		stragglers:     reg.Counter(MetricStragglers),
		heartbeatsSent: reg.Counter(MetricHeartbeatsSent),
		heartbeatsRecv: reg.Counter(MetricHeartbeatsRecv),
		redials:        reg.Counter(MetricRedials),
		redialsFailed:  reg.Counter(MetricRedialFailures),
		searchExpanded: reg.Counter(MetricSearchExpanded),

		workersAlive:    reg.Gauge(MetricWorkersAlive),
		workersTotal:    reg.Gauge(MetricWorkersTotal),
		inflight:        reg.Gauge(MetricInflight),
		batchSize:       reg.Gauge(MetricBatchSize),
		batchSizeMax:    reg.Gauge(MetricBatchSizeMax),
		guaranteeRatio:  reg.Gauge(MetricGuaranteeRatio),
		phaseDur:        reg.Histogram(MetricPhaseDuration),
		quantumSize:     reg.Histogram(MetricQuantumSize),
		responseTime:    reg.Histogram(MetricResponseTime),
		slackAdmission:  reg.Histogram(MetricSlackAdmission),
		slackCompletion: reg.Histogram(MetricSlackCompletion),
		workerOvershoot: reg.Histogram(MetricWorkerOvershoot),
	}
	for k, name := range CountMetric {
		o.books[k] = reg.Counter(name)
	}
	return o
}

// OnSettle registers fn to run once per terminal task verdict with the
// verdict's position in metrics.Counts (CountHits, CountMissed, CountPurged,
// CountLost, or for a shed the position Shed gave: its reason's, or
// CountShed for a reason without one). fn must be safe to call from scheduler
// goroutines and fast — it sits on the execution hot path. Call before
// the run starts; the federation's shard server uses it to feed
// Progress frames.
func (o *Observer) OnSettle(fn func(task.ID, metrics.Count)) {
	if o == nil {
		return
	}
	o.settle = fn
}

// Counts reads the counters that mirror the books, by position (zero for a
// nil observer).
func (o *Observer) Counts() metrics.Counts {
	var c metrics.Counts
	if o != nil {
		for k, ctr := range o.books {
			c[k] = ctr.Value()
		}
	}
	return c
}

// Registry returns the observer's metric registry (nil for a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Journal returns the observer's event journal (nil for a nil observer).
func (o *Observer) Journal() *Journal {
	if o == nil {
		return nil
	}
	return o.journal
}

// LastVirtual returns the virtual timestamp of the most recent event — the
// progress reporter's notion of "now".
func (o *Observer) LastVirtual() simtime.Instant {
	if o == nil {
		return 0
	}
	return simtime.Instant(o.lastVirtual.Value())
}

// note stamps an entry and journals it. The host loop, the router and the
// transport goroutines all call it, so lastVirtual is a
// compare-and-swap maximum: a goroutine carrying an older instant must never
// overwrite a newer one, or the progress reporter's "now" runs backwards.
func (o *Observer) note(at simtime.Instant, e Entry) {
	o.lastVirtual.SetMax(int64(at))
	e.Wall = o.wall()
	e.Virtual = at
	o.journal.Record(e)
}

// SetWorkers declares the machine size at run start: every worker starts
// alive. It resolves the per-worker metric handles.
func (o *Observer) SetWorkers(n int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.alive = make([]bool, n)
	o.workerUp = make([]*Gauge, n)
	o.jobs = make([]*Counter, n)
	for k := 0; k < n; k++ {
		o.alive[k] = true
		o.workerUp[k] = o.reg.Gauge(fmt.Sprintf(MetricWorkerUpPattern, fmt.Sprintf("%d", k)))
		o.workerUp[k].Set(1)
		o.jobs[k] = o.reg.Counter(fmt.Sprintf("%s{worker=%q}", MetricWorkerJobs, fmt.Sprintf("%d", k)))
	}
	o.mu.Unlock()
	o.workersTotal.Set(int64(n))
	o.workersAlive.Set(int64(n))
	o.note(0, Entry{Type: "run-start", Worker: -1, Detail: fmt.Sprintf("%d workers", n)})
}

// Health returns every worker's liveness as the host last recorded it.
func (o *Observer) Health() []WorkerHealth {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]WorkerHealth, len(o.alive))
	for k, a := range o.alive {
		out[k] = WorkerHealth{Worker: k, Alive: a}
	}
	return out
}

// Arrival records a task reaching the host. deadline is the task's
// absolute deadline, stamped on the entry so lifecycle assembly and slack
// accounting work from the journal alone.
func (o *Observer) Arrival(id task.ID, at, deadline simtime.Instant) {
	if o == nil {
		return
	}
	o.books[metrics.CountTotal].Inc()
	o.note(at, Entry{Type: "arrival", Task: int(id), Worker: -1, Deadline: deadline})
}

// PhaseStart records the beginning of scheduling phase n.
func (o *Observer) PhaseStart(phase, batch int, at simtime.Instant) {
	if o == nil {
		return
	}
	o.batchSize.Set(int64(batch))
	o.batchSizeMax.SetMax(int64(batch))
	o.note(at, Entry{Type: "phase-start", Phase: phase, Worker: -1})
}

// PhaseEnd records the end of a scheduling phase with its search stats.
func (o *Observer) PhaseEnd(phase int, at simtime.Instant, s PhaseStats) {
	if o == nil {
		return
	}
	o.books[metrics.CountPhases].Inc()
	o.books[metrics.CountVertices].Add(int64(s.Generated))
	o.books[metrics.CountBacktracks].Add(int64(s.Backtracks))
	if s.DeadEnd {
		o.books[metrics.CountDeadEnds].Inc()
	}
	if s.Expired {
		o.books[metrics.CountQuantaExpired].Inc()
	}
	o.phaseDur.Observe(s.Used)
	o.quantumSize.Observe(s.Quantum)
	o.searchExpanded.Add(int64(s.Expanded))
	o.note(at, Entry{Type: "phase-end", Phase: phase, Worker: -1, Dur: s.Used})
}

// Deliver records one task's assignment reaching a worker's ready queue.
// comm is the communication cost the placement pays (the §4.3 se_lk term's
// c_lk component — zero when the worker holds a replica), carried on the
// entry so slack accounting can separate comms from execution.
func (o *Observer) Deliver(phase int, id task.ID, worker int, comm time.Duration, at simtime.Instant) {
	if o == nil {
		return
	}
	o.deliveries.Inc()
	o.note(at, Entry{Type: "deliver", Phase: phase, Task: int(id), Worker: worker, Dur: comm})
}

// Exec records a task's completed execution. response is finish - arrival;
// hit mirrors exactly the RunResult Hits/ScheduledMissed decision; slack is
// deadline - finish (negative on a miss), observed into the
// completion-slack histogram (clamped at zero there) and stamped on the
// entry signed.
func (o *Observer) Exec(id task.ID, worker int, start, finish simtime.Instant, hit bool, response, slack time.Duration) {
	if o == nil {
		return
	}
	if o.settle != nil {
		if hit {
			o.settle(id, metrics.CountHits)
		} else {
			o.settle(id, metrics.CountMissed)
		}
	}
	if hit {
		o.books[metrics.CountHits].Inc()
	} else {
		o.books[metrics.CountMissed].Inc()
	}
	o.responseTime.Observe(response)
	if slack > 0 {
		o.slackCompletion.Observe(slack)
	} else {
		o.slackCompletion.Observe(0)
	}
	o.note(start, Entry{Type: "exec", Task: int(id), Worker: worker, Dur: finish.Sub(start), Hit: hit, Slack: slack})
	o.updateGuarantee()
}

// Purge records a task dropped at batch formation with its deadline missed.
func (o *Observer) Purge(id task.ID, at simtime.Instant) {
	if o == nil {
		return
	}
	if o.settle != nil {
		o.settle(id, metrics.CountPurged)
	}
	o.books[metrics.CountPurged].Inc()
	o.note(at, Entry{Type: "purge", Task: int(id), Worker: -1})
	o.updateGuarantee()
}

// Lost records a task written off to a worker failure.
func (o *Observer) Lost(id task.ID, worker int, at simtime.Instant) {
	if o == nil {
		return
	}
	if o.settle != nil {
		o.settle(id, metrics.CountLost)
	}
	o.books[metrics.CountLost].Inc()
	o.note(at, Entry{Type: "lost", Task: int(id), Worker: worker})
	o.updateGuarantee()
}

// Reroute records a task reclaimed from a failed or unresponsive worker
// and fed back into scheduling.
func (o *Observer) Reroute(id task.ID, fromWorker int, at simtime.Instant) {
	if o == nil {
		return
	}
	o.books[metrics.CountRerouted].Inc()
	o.note(at, Entry{Type: "reroute", Task: int(id), Worker: fromWorker})
}

// Admitted records a task passing admission control into the ready queue:
// the counter mirrors RunResult.Admitted, the admission-slack histogram
// observes slack = d_l − t_c (the headroom the gate accepted; clamped at
// zero when admission is disabled and a hopeless task slips through), and
// the journal gains the lifecycle's admit span.
func (o *Observer) Admitted(id task.ID, slack time.Duration, at simtime.Instant) {
	if o == nil {
		return
	}
	o.books[metrics.CountAdmitted].Inc()
	if slack > 0 {
		o.slackAdmission.Observe(slack)
	} else {
		o.slackAdmission.Observe(0)
	}
	o.note(at, Entry{Type: "admit", Task: int(id), Worker: -1, Slack: slack, Deadline: at.Add(slack)})
}

// updateGuarantee recomputes the live guarantee-ratio gauge from the
// resolved terminal counters: deadline hits over all tasks that reached a
// local post-admission terminal state (hit, scheduled miss, purge, lost to
// failure). Parts-per-million keeps six digits of resolution on an integer
// gauge.
func (o *Observer) updateGuarantee() {
	hits := o.books[metrics.CountHits].Value()
	done := hits + o.books[metrics.CountMissed].Value() + o.books[metrics.CountPurged].Value() + o.books[metrics.CountLost].Value()
	if done == 0 {
		return
	}
	o.guaranteeRatio.Set(hits * 1_000_000 / done)
}

// Route records the federation router placing a task on a shard. The
// destination shard rides in the entry's Worker field (Entry.Shard stays
// the source-journal tag in merged exports); detail names the policy and
// any rejected siblings so the placement decision is reconstructible from
// the journal alone.
func (o *Observer) Route(id task.ID, shard int, detail string, at simtime.Instant) {
	if o == nil {
		return
	}
	o.note(at, Entry{Type: "route", Task: int(id), Worker: shard, Detail: detail})
}

// Migrate records a cross-shard migration after a shard-side rejection:
// the router re-ran the §4.3 feasibility verdict against the sibling
// shards and found shard feasible. detail carries the verdict terms.
func (o *Observer) Migrate(id task.ID, shard int, detail string, at simtime.Instant) {
	if o == nil {
		return
	}
	o.note(at, Entry{Type: "migrate", Task: int(id), Worker: shard, Detail: detail})
}

// RouteReject records the router finding no feasible shard for a rejected
// task — the flow falls back to a local shed on the rejecting shard.
func (o *Observer) RouteReject(id task.ID, reason string, at simtime.Instant) {
	if o == nil {
		return
	}
	o.note(at, Entry{Type: "route-reject", Task: int(id), Worker: -1, Detail: reason})
}

// Shed records a task rejected or evicted by admission control, with its
// reason and the reason's position in metrics.Counts (CountShed for a reason
// that has none, and so no labelled counter). The total counter mirrors
// RunResult.Shed, and the per-reason labelled counters its Shed* fields.
func (o *Observer) Shed(id task.ID, reason string, k metrics.Count, at simtime.Instant) {
	if o == nil {
		return
	}
	if o.settle != nil {
		o.settle(id, k)
	}
	o.books[metrics.CountShed].Inc()
	if k != metrics.CountShed {
		o.books[k].Inc()
	}
	o.note(at, Entry{Type: "shed", Task: int(id), Worker: -1, Detail: reason})
}

// Bounce records a task handed back to a federation router for
// cross-shard migration instead of being shed or lost locally — the
// counter mirrors RunResult.Bounced exactly. reason is the admission
// reason that triggered the bounce.
func (o *Observer) Bounce(id task.ID, reason string, at simtime.Instant) {
	if o == nil {
		return
	}
	o.books[metrics.CountBounced].Inc()
	o.note(at, Entry{Type: "bounce", Task: int(id), Worker: -1, Detail: reason})
}

// WorkerDown records a worker failure. Fatal failures remove the worker
// from the health view and count as WorkerFailures (mirroring the
// RunResult field); non-fatal disruptions (reconnects, straggling) only
// count as disruptions.
func (o *Observer) WorkerDown(worker int, fatal bool, reason string, at simtime.Instant) {
	if o == nil {
		return
	}
	detail := "transient"
	if fatal {
		detail = "fatal"
		// Count (and journal) the alive→dead transition exactly once,
		// however many events report the same dead worker — the counter
		// must mirror RunResult.WorkerFailures.
		o.mu.Lock()
		first := true
		if worker >= 0 && worker < len(o.alive) {
			first = o.alive[worker]
			if first {
				o.alive[worker] = false
				o.workerUp[worker].Set(0)
				o.workersAlive.Add(-1)
			}
		}
		o.mu.Unlock()
		if !first {
			return
		}
		o.books[metrics.CountWorkerFailures].Inc()
	} else {
		o.disruptions.Inc()
	}
	if reason != "" {
		detail += ": " + reason
	}
	o.note(at, Entry{Type: "worker-down", Worker: worker, Detail: detail})
}

// StragglerReclaim records the straggler watchdog reclaiming a worker's
// overdue jobs.
func (o *Observer) StragglerReclaim(worker int, at simtime.Instant) {
	if o == nil {
		return
	}
	o.stragglers.Inc()
	o.note(at, Entry{Type: "straggler", Worker: worker})
}

// HeartbeatSent counts an outbound heartbeat (counter only: sends are
// frequent and tell less than receipts).
func (o *Observer) HeartbeatSent(worker int) {
	if o == nil {
		return
	}
	o.heartbeatsSent.Inc()
}

// HeartbeatRecv records a heartbeat received from a worker — the positive
// liveness evidence, journaled.
func (o *Observer) HeartbeatRecv(worker int, at simtime.Instant) {
	if o == nil {
		return
	}
	o.heartbeatsRecv.Inc()
	o.note(at, Entry{Type: "heartbeat", Worker: worker})
}

// Redial records one reconnection attempt's outcome.
func (o *Observer) Redial(worker int, ok bool, at simtime.Instant) {
	if o == nil {
		return
	}
	o.redials.Inc()
	if !ok {
		o.redialsFailed.Inc()
	}
	detail := "failed"
	if ok {
		detail = "reconnected"
	}
	o.note(at, Entry{Type: "redial", Worker: worker, Detail: detail})
}

// WorkerExecuted counts one job executed by a worker (the worker-side view
// of Exec; the two differ when completions are lost in transit).
func (o *Observer) WorkerExecuted(worker int, d time.Duration) {
	if o == nil {
		return
	}
	o.mu.Lock()
	var c *Counter
	if worker >= 0 && worker < len(o.jobs) {
		c = o.jobs[worker]
	}
	o.mu.Unlock()
	c.Inc()
}

// WorkerOvershoot records how far past its completion target a worker woke
// up (callers pass positive durations only).
func (o *Observer) WorkerOvershoot(d time.Duration) {
	if o == nil {
		return
	}
	o.workerOvershoot.Observe(d)
}

// Inflight publishes the host's current delivered-but-unfinished count.
func (o *Observer) Inflight(n int) {
	if o == nil {
		return
	}
	o.inflight.Set(int64(n))
}

// RunEnd journals the end of the run.
func (o *Observer) RunEnd(at simtime.Instant, summary string) {
	if o == nil {
		return
	}
	o.note(at, Entry{Type: "run-end", Worker: -1, Detail: summary})
}
