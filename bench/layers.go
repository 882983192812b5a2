package main

import (
	"fmt"
	"sort"
	"time"

	"rtsads/internal/stats"
)

// tracedTCPTasks keeps a traced wire repetition inside the 16384-entry
// journal rings (about six entries a task per shard, two shards), so the
// traced journal is complete (obs.evicted = 0) without touching the ring
// size that makes the session's final frame safe.
const tracedTCPTasks = 4000

// layerAcc pools the traced repetitions of one live workload.
type layerAcc struct {
	tasks   int
	runWall time.Duration

	dispatch, inbox, startLate, response, verdictLag, lateness []float64

	hostWall    time.Duration // journal: first → last host entry per iteration
	hostPhases  int
	hostEntries int
	entries     int
	evicted     int64

	plan        []planCall
	deliverWall time.Duration
	deliverJobs int

	phases, purged, shed, executed, delivered  int
	vertices, backtracks, deadEnds, quantaExp  int
	routed, migrated, bounced, expiredAtWorker int
	gcPause                                    time.Duration
	heapPeakMB                                 float64
	cpuTraced                                  []float64
	untraced                                   []repMetrics // the untraced half of each pair
}

func (a *layerAcc) add(res *liveResult, tr *tracer, tasks taskIndex) {
	sp := assembleSpans(res.entries, tasks, res.scale)
	a.tasks += res.tasks
	a.runWall += res.wall
	a.dispatch = append(a.dispatch, sp.dispatchMicros()...)
	a.inbox = append(a.inbox, sp.inboxWaitMicros()...)
	a.startLate = append(a.startLate, sp.startLatenessMicros()...)
	a.response = append(a.response, sp.responseMillis()...)
	a.verdictLag = append(a.verdictLag, sp.verdictLagMicros()...)
	a.lateness = append(a.lateness, sp.latenessMicros()...)
	a.hostWall += sp.hostWall
	a.hostPhases += sp.phases
	a.hostEntries += sp.hostEntries
	a.entries += len(res.entries)
	a.evicted += res.evicted
	a.plan = append(a.plan, tr.plan.calls...)
	a.deliverWall += tr.deliver.wall
	a.deliverJobs += tr.deliver.jobs
	c := res.combined
	a.phases += c.Phases
	a.purged += c.Purged
	a.shed += c.Shed
	a.executed += c.Hits + c.ScheduledMissed
	a.delivered += sp.count(func(s *taskSpan) bool { return s.delivered })
	a.expiredAtWorker += sp.count(func(s *taskSpan) bool { return s.expiredAtWorker })
	a.vertices += c.VerticesGenerated
	a.backtracks += c.Backtracks
	a.deadEnds += c.DeadEnds
	if res.fed != nil {
		a.routed += res.fed.Routed
		a.migrated += res.fed.Migrated
		a.bounced += res.fed.Bounced
	}
	a.gcPause += res.gcPause
}

// share is a/b, 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// planMetrics reports the PlanPhase calls seen by the timing decorator.
func planMetrics(calls []planCall, runWall time.Duration, rep *report) (planWall time.Duration) {
	walls := make([]float64, len(calls))
	var batch, scheduled, expired int
	for i, c := range calls {
		walls[i] = micros(c.wall)
		planWall += c.wall
		batch += c.batch
		scheduled += c.scheduled
		if c.expired {
			expired++
		}
	}
	sort.Float64s(walls)
	n := float64(len(calls))
	rep.set("core.plan_phase_us_p50", percentile(walls, 0.50))
	rep.set("core.plan_phase_us_p99", percentile(walls, 0.99))
	rep.set("core.plan_busy_share", share(float64(planWall), float64(runWall)))
	rep.set("core.batch_size_mean", share(float64(batch), n))
	rep.set("core.scheduled_per_phase_mean", share(float64(scheduled), n))
	rep.set("core.quanta_expired_share", share(float64(expired), n))
	return planWall
}

// report turns the pooled traced repetitions into the per-layer metrics
// that come from a run (the rungs add theirs separately).
func (a *layerAcc) report(rep *report) (planWall time.Duration) {
	for _, xs := range [][]float64{a.dispatch, a.inbox, a.startLate, a.response, a.verdictLag, a.lateness} {
		sort.Float64s(xs)
	}
	n := float64(a.tasks)
	rep.set("admission.shed_share", share(float64(a.shed), n))
	rep.set("federation.inbox_wait_p50_us", percentile(a.inbox, 0.50))
	rep.set("federation.inbox_wait_p99_us", percentile(a.inbox, 0.99))
	rep.set("federation.migrated_share", share(float64(a.migrated), float64(a.routed)))
	rep.set("federation.bounced_share", share(float64(a.bounced), float64(a.routed)))

	planWall = planMetrics(a.plan, a.runWall, rep)
	rep.set("livecluster.phases_per_task", share(float64(a.phases), n))
	rep.set("livecluster.loop_overhead_us_per_phase",
		share(micros(a.hostWall-planWall), float64(a.hostPhases)))
	rep.set("livecluster.deliver_us_per_job", share(micros(a.deliverWall), float64(a.deliverJobs)))
	rep.set("livecluster.start_lateness_p95_us", percentile(a.startLate, 0.95))
	rep.set("livecluster.purged_share", share(float64(a.purged), n))
	rep.set("livecluster.expired_at_worker_share", share(float64(a.expiredAtWorker), n))
	rep.set("livecluster.dispatch_p99_us", percentile(a.dispatch, 0.99))
	rep.set("livecluster.dispatch_p999_us", percentile(a.dispatch, 0.999))
	rep.set("livecluster.response_p50_ms", percentile(a.response, 0.50))
	rep.set("livecluster.response_p99_ms", percentile(a.response, 0.99))
	rep.set("livecluster.verdict_lag_p95_us", percentile(a.verdictLag, 0.95))

	rep.set("search.vertices_per_task", share(float64(a.vertices), n))
	rep.set("search.backtracks_per_task", share(float64(a.backtracks), n))
	rep.set("search.dead_end_share", share(float64(a.deadEnds), float64(a.phases)))

	rep.set("obs.entries_per_task", share(float64(a.entries)+float64(a.evicted), n))
	rep.set("obs.evicted", float64(a.evicted))
	rep.set("runtime.gc_pause_ms", float64(a.gcPause)/1e6)
	rep.set("runtime.heap_peak_mb", a.heapPeakMB)
	rep.set("loadgen.lateness_p99_us", percentile(a.lateness, 0.99))
	rep.note("%s traced: %d tasks, %d dispatch samples, %d PlanPhase calls, %d journal entries (%d evicted)",
		rep.workload, a.tasks, len(a.dispatch), len(a.plan), a.entries, a.evicted)
	return planWall
}

// tracedLive measures a live workload's per-layer metrics at the reference
// rate: pairs of one untraced and one traced repetition of the same task
// list (their CPU per task gives trace.overhead_share), then the rungs.
func tracedLive(p *livePrep, seconds float64, rep *report) error {
	rg := p.rungs[p.refIdx]
	n := len(rg.w.Tasks)
	if p.tcp {
		n = min(n, tracedTCPTasks)
	}
	rg.w = prefix(rg.w, n)
	p.rungs[p.refIdx] = rg
	p.first = nil // built for the full list
	pairs := min(max(int(0.8*seconds/(2*float64(n)/rate(rg.scale))), 1), 3)
	tasks := indexTasks(rg.w.Tasks)

	acc := &layerAcc{}
	for k := 0; k < pairs; k++ {
		plain, err := p.runRep(p.refIdx, nil, rep, fmt.Sprintf("pair %d untraced", k))
		if err != nil {
			return err
		}
		if plain.err == nil {
			acc.untraced = append(acc.untraced, plain.endToEnd(tasks))
		}

		tr, err := newTracer()
		if err != nil {
			return err
		}
		heap := startHeapSampler()
		res, err := p.runRep(p.refIdx, tr, rep, fmt.Sprintf("pair %d traced", k))
		acc.heapPeakMB = max(acc.heapPeakMB, heap.peakMB())
		if err != nil {
			return err
		}
		if res.err != nil {
			continue
		}
		acc.cpuTraced = append(acc.cpuTraced, res.cpuMicrosPerTask())
		acc.add(&res, tr, tasks)
	}
	if acc.tasks == 0 || len(acc.untraced) == 0 {
		return fmt.Errorf("%s: no traced pair succeeded", p.name)
	}
	planWall := acc.report(rep)
	rep.set("workload.generate_ms", p.genMillis)

	batch := 2
	if p.name == wlBurst {
		batch = burstSize
	}
	if err := runRungs(rungInputs{w: rg.w, batch: batch, budget: rungBudget(seconds)}, rep); err != nil {
		return err
	}

	cpuUntraced := medianOf(acc.untraced, func(m repMetrics) float64 { return m.cpuUs })
	rep.set("cpu_us_per_task", cpuUntraced)
	rep.set("dispatch_p50_us", medianOf(acc.untraced, func(m repMetrics) float64 { return m.dispatchP50 }))
	rep.set("dispatch_p95_us", medianOf(acc.untraced, func(m repMetrics) float64 { return m.dispatchP95 }))
	rep.set("trace.overhead_share", stats.Median(acc.cpuTraced)/cpuUntraced-1)

	// The ladder: what the rungs and the traced spans account for, per
	// task, against the untraced CPU per task. Rungs the host-loop span
	// already covers (admission, the host's own journal entries) are not
	// added a second time.
	nTasks := float64(acc.tasks)
	sum := micros(planWall)/nTasks +
		rep.values["livecluster.loop_overhead_us_per_phase"]*float64(acc.hostPhases)/nTasks +
		rep.values["livecluster.deliver_us_per_job"]*float64(acc.delivered)/nTasks +
		rep.values["db.execute_ns"]/1e3*float64(acc.executed)/nTasks +
		rep.values["obs.journal_record_ns"]/1e3*float64(acc.entries-acc.hostEntries)/nTasks
	if p.name != wlBurst {
		sum += rep.values["federation.pick_ns_per_task"] / 1e3
	}
	if p.tcp {
		sum += (rep.values["wire.encode_ns_per_task"] + rep.values["wire.decode_ns_per_task"]) / 1e3
	}
	rep.set("ladder.residual_share", 1-sum/cpuUntraced)
	rep.note("%s ladder: rungs account for %.1f of %.1f us CPU per task", p.name, sum, cpuUntraced)
	return nil
}

// rungBudget is the wall time one rung may loop for.
func rungBudget(seconds float64) time.Duration {
	d := time.Duration(seconds * float64(15*time.Millisecond))
	return min(max(d, 20*time.Millisecond), 300*time.Millisecond)
}
