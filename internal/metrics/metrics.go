// Package metrics defines the per-run results the paper's evaluation
// reports — deadline hit ratio, scheduling cost, search behaviour — and the
// aggregation of repeated runs into means and confidence intervals.
package metrics

import (
	"fmt"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/histogram"
	"rtsads/internal/simtime"
	"rtsads/internal/stats"
	"rtsads/internal/task"
)

// Completion records the fate of one task.
type Completion struct {
	Task   task.ID
	Proc   int // -1 when the task was never executed
	Start  simtime.Instant
	Finish simtime.Instant
	Hit    bool // finished at or before its deadline
	// Executed is false for tasks purged (or still unscheduled) when their
	// deadline passed.
	Executed bool
}

// RunResult is the outcome of one complete simulation run.
type RunResult struct {
	Algorithm string
	Workers   int

	Total int // tasks generated
	Hits  int // tasks completed by their deadline
	// Purged counts tasks dropped at batch formation because their
	// deadlines had already passed (p_i + t_c > d_i).
	Purged int
	// ScheduledMissed counts tasks that were scheduled for execution and
	// then missed their deadline anyway. The §4.3 theorem guarantees it is
	// zero for every planner in this repository; the machine still counts
	// rather than assumes.
	ScheduledMissed int
	// LostToFailure counts tasks dropped because their worker crashed
	// before they completed (failure-injection runs only).
	LostToFailure int
	// WorkerFailures counts workers that permanently failed during the
	// run (live cluster under fault injection).
	WorkerFailures int
	// Rerouted counts tasks reclaimed from a failed or unresponsive
	// worker and fed back into scheduling against the surviving machine.
	// A rerouted task's eventual fate still lands in Hits, Purged,
	// ScheduledMissed, LostToFailure or Shed.
	Rerouted int

	// Admitted counts tasks that passed the arrival-time admission gate
	// and entered the ready queue (re-admissions of reclaimed tasks are
	// not counted twice). With admission control disabled it equals the
	// number of arrivals absorbed.
	Admitted int
	// Shed counts tasks rejected or evicted by admission control — a
	// terminal bucket alongside Hits, Purged, ScheduledMissed and
	// LostToFailure: Hits + Purged + ScheduledMissed + LostToFailure +
	// Shed == Total. The Shed* fields break it down by reason and sum to
	// Shed exactly.
	Shed int
	// ShedHopeless counts tasks rejected at enqueue because they could
	// not meet their deadline even on an idle worker.
	ShedHopeless int
	// ShedQueueFull counts tasks rejected or evicted because the bounded
	// ready queue was at capacity.
	ShedQueueFull int
	// ShedShutdown counts tasks turned away during a graceful shutdown.
	ShedShutdown int
	// ShedInfeasible counts tasks rejected by the admission controller's
	// schedulability predicate (the policy registry's utilization
	// quick-test): individually servable, but infeasible together with
	// the queue they would have joined.
	ShedInfeasible int
	// Bounced counts tasks this scheduler domain handed back to a
	// federation router for cross-shard migration instead of shedding or
	// losing them locally. It is a terminal bucket for *this* domain —
	// Hits + Purged + ScheduledMissed + LostToFailure + Shed + Bounced ==
	// Total — while the migrated task is counted again in the sibling
	// shard's Total, so federation-wide the non-bounce buckets still sum
	// to the number of distinct tasks. Zero outside federated runs.
	Bounced int
	// Overloads counts job deliveries deferred by backend backpressure
	// (the worker's queue cap was reached and the host was told to retry).
	// Deferred tasks return to the batch, so this is not a terminal bucket.
	Overloads int

	// Degradations counts transitions into degraded-mode planning (the
	// search planner replaced by the greedy fallback); Recoveries counts
	// transitions back. DegradedPhases counts phases planned while
	// degraded.
	Degradations   int
	Recoveries     int
	DegradedPhases int

	Phases            int
	SchedulingTime    time.Duration // Σ Used over phases: the paper's scheduling cost
	VerticesGenerated int
	Backtracks        int
	DeadEnds          int // phases that ended in a dead-end
	QuantaExpired     int // phases that ended by quantum expiry

	Makespan   simtime.Instant // when the last executed task finished
	WorkerBusy []time.Duration // per-worker busy time

	// Response is the distribution of response times (finish - arrival)
	// over executed tasks.
	Response histogram.Histogram

	Completions []Completion // per-task records (optional; nil when disabled)
}

// HitRatio returns the paper's deadline-compliance metric: the fraction of
// all generated tasks that completed by their deadline.
func (r *RunResult) HitRatio() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Total)
}

// Misses returns the number of tasks that did not meet their deadline.
func (r *RunResult) Misses() int { return r.Total - r.Hits }

// Utilization returns aggregate worker busy time divided by the capacity
// available up to the makespan.
func (r *RunResult) Utilization() float64 {
	if r.Makespan <= 0 || len(r.WorkerBusy) == 0 {
		return 0
	}
	var busy time.Duration
	for _, b := range r.WorkerBusy {
		busy += b
	}
	capacity := time.Duration(r.Makespan) * time.Duration(len(r.WorkerBusy))
	return float64(busy) / float64(capacity)
}

// IdleWorkers returns how many workers never executed a task — the
// signature of the sequence-oriented representation's shallow-termination
// pathology (§3).
func (r *RunResult) IdleWorkers() int {
	idle := 0
	for _, b := range r.WorkerBusy {
		if b == 0 {
			idle++
		}
	}
	return idle
}

// CountShed books one task rejected or evicted by admission control under
// its reason, keeping the per-reason breakdown summing to Shed.
func (r *RunResult) CountShed(reason admission.Reason) {
	r.Shed++
	switch reason {
	case admission.Hopeless:
		r.ShedHopeless++
	case admission.QueueFull:
		r.ShedQueueFull++
	case admission.ShuttingDown:
		r.ShedShutdown++
	case admission.Infeasible:
		r.ShedInfeasible++
	}
}

// String renders a one-line summary.
func (r *RunResult) String() string {
	s := fmt.Sprintf("%s w=%d hit=%.1f%% (hits=%d purged=%d schedMissed=%d) phases=%d sched=%v deadEnds=%d",
		r.Algorithm, r.Workers, 100*r.HitRatio(), r.Hits, r.Purged, r.ScheduledMissed,
		r.Phases, r.SchedulingTime, r.DeadEnds)
	if r.LostToFailure > 0 {
		s += fmt.Sprintf(" lostToFailure=%d", r.LostToFailure)
	}
	if r.WorkerFailures > 0 {
		s += fmt.Sprintf(" workerFailures=%d", r.WorkerFailures)
	}
	if r.Rerouted > 0 {
		s += fmt.Sprintf(" rerouted=%d", r.Rerouted)
	}
	if r.Shed > 0 {
		s += fmt.Sprintf(" shed=%d (hopeless=%d queueFull=%d shutdown=%d infeasible=%d)",
			r.Shed, r.ShedHopeless, r.ShedQueueFull, r.ShedShutdown, r.ShedInfeasible)
	}
	if r.Bounced > 0 {
		s += fmt.Sprintf(" bounced=%d", r.Bounced)
	}
	if r.Overloads > 0 {
		s += fmt.Sprintf(" overloads=%d", r.Overloads)
	}
	if r.Degradations > 0 {
		s += fmt.Sprintf(" degradations=%d recoveries=%d degradedPhases=%d",
			r.Degradations, r.Recoveries, r.DegradedPhases)
	}
	return s
}

// Aggregate summarises repeated runs of one configuration.
type Aggregate struct {
	Algorithm string
	Runs      int

	HitRatio        stats.Summary
	SchedulingMS    stats.Summary // scheduling cost in milliseconds
	Phases          stats.Summary
	DeadEnds        stats.Summary
	Backtracks      stats.Summary
	Vertices        stats.Summary
	IdleWorkers     stats.Summary
	Utilization     stats.Summary
	LostToFailure   stats.Summary
	WorkerFailures  stats.Summary
	Rerouted        stats.Summary
	ScheduledMissed int // summed; must stay zero
	// Response pools the per-run response-time distributions.
	Response histogram.Histogram
	// HitRatios keeps the raw per-run hit ratios, in run order, so that
	// algorithms evaluated on the same seeds can be compared with a paired
	// difference-of-means test.
	HitRatios []float64
}

// Add folds one run into the aggregate.
func (a *Aggregate) Add(r *RunResult) {
	if a.Algorithm == "" {
		a.Algorithm = r.Algorithm
	}
	a.Runs++
	a.HitRatio.Add(r.HitRatio())
	a.HitRatios = append(a.HitRatios, r.HitRatio())
	a.SchedulingMS.Add(float64(r.SchedulingTime) / float64(time.Millisecond))
	a.Phases.Add(float64(r.Phases))
	a.DeadEnds.Add(float64(r.DeadEnds))
	a.Backtracks.Add(float64(r.Backtracks))
	a.Vertices.Add(float64(r.VerticesGenerated))
	a.IdleWorkers.Add(float64(r.IdleWorkers()))
	a.Utilization.Add(r.Utilization())
	a.LostToFailure.Add(float64(r.LostToFailure))
	a.WorkerFailures.Add(float64(r.WorkerFailures))
	a.Rerouted.Add(float64(r.Rerouted))
	a.ScheduledMissed += r.ScheduledMissed
	a.Response.Merge(&r.Response)
}

// HitRatioCI returns the half-width of the 99% confidence interval on the
// mean hit ratio (the paper's reporting convention), or 0 when it cannot be
// computed.
func (a *Aggregate) HitRatioCI() float64 {
	ci, err := a.HitRatio.CI(0.99)
	if err != nil {
		return 0
	}
	return ci
}
