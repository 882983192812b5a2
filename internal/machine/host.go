package machine

import (
	"fmt"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// Host is the virtual-time host processor of one scheduler domain and the
// one scheduling step every virtual-time driver shares: Machine.Run drives a
// Host over a fixed arrival list, federation.Simulate drives one per shard
// behind an admission gate. The driver owns arrivals (Batch.Add, Res.Total
// and whatever gate sits in front); Step owns everything from the purge to
// the delivery. The zero value is ready for Reset.
type Host struct {
	cfg Config

	// Res is the run's books, Batch the admitted-but-unscheduled tasks and
	// FreeAt the instant each worker's ready queue drains.
	Res    *metrics.RunResult
	Batch  *task.Batch
	FreeAt []simtime.Instant

	busyUntil simtime.Instant // the previous phase's delivery instant
	// failed marks each injected crash once it manifests, so
	// Res.WorkerFailures counts dead workers (not lost tasks) — the same
	// contract the live cluster keeps.
	failed map[int]bool
	// loads and scheduled are per-step scratch, kept across steps and runs.
	loads     []time.Duration
	scheduled []*task.Task
}

// Reset readies the host for a new run under cfg with fresh books, keeping
// its storage. The driver applies cfg's defaults.
func (h *Host) Reset(cfg Config) {
	h.cfg = cfg
	h.Res = &metrics.RunResult{
		Algorithm:  cfg.Planner.Name(),
		Workers:    cfg.Workers,
		WorkerBusy: make([]time.Duration, cfg.Workers),
	}
	if h.Batch == nil {
		h.Batch = task.NewBatch()
	} else {
		h.Batch.Reset()
	}
	if cap(h.FreeAt) < cfg.Workers {
		h.FreeAt = make([]simtime.Instant, cfg.Workers)
		h.loads = make([]time.Duration, cfg.Workers)
	}
	h.FreeAt = h.FreeAt[:cfg.Workers]
	clear(h.FreeAt)
	h.loads = h.loads[:cfg.Workers]
	h.scheduled = h.scheduled[:0]
	h.busyUntil = 0
	h.failed = nil
	cfg.Obs.SetWorkers(cfg.Workers)
}

// BusyUntil is the instant the phase in progress delivers: the earliest a
// driver should wake the host for an arrival.
func (h *Host) BusyUntil() simtime.Instant { return h.busyUntil }

// Restart models a restarted host process at now: idle workers, no phase in
// progress. The batch and the books are the driver's to settle.
func (h *Host) Restart(now simtime.Instant) {
	for k := range h.FreeAt {
		h.FreeAt[k] = now
	}
	h.busyUntil = now
}

func (h *Host) markFailed(k int, at simtime.Instant) {
	if h.failed[k] {
		return
	}
	if h.failed == nil {
		h.failed = make(map[int]bool, len(h.cfg.FailAt))
	}
	h.failed[k] = true
	h.Res.WorkerFailures++
	h.cfg.Obs.WorkerDown(k, true, "machine: injected crash", at)
}

func (h *Host) record(c metrics.Completion) {
	if h.cfg.RecordCompletions {
		h.Res.Completions = append(h.Res.Completions, c)
	}
}

// Step runs one scheduling iteration at now — purge, plan one phase, book
// it, deliver the schedule analytically — and returns the next instant the
// host has work of its own: the delivery instant after a phase that
// scheduled something, the earliest worker completion or purge point after
// one that did not, Never when the batch is empty. The host runs phases back
// to back (§4), never two at once: called before the previous phase's
// delivery instant, Step does nothing and returns that instant.
func (h *Host) Step(now simtime.Instant) (simtime.Instant, error) {
	if now.Before(h.busyUntil) {
		return h.busyUntil, nil
	}
	cfg, res := &h.cfg, h.Res
	// Purge tasks whose deadlines have already been missed (§4.1).
	for _, t := range h.Batch.PurgeMissed(now) {
		res.Purged++
		cfg.Obs.Purge(t.ID, now)
		h.record(metrics.Completion{Task: t.ID, Proc: -1})
	}
	if h.Batch.Len() == 0 {
		return simtime.Never, nil
	}
	if res.Phases >= cfg.MaxPhases {
		return 0, fmt.Errorf("exceeded %d phases at %s with %d tasks in the batch",
			cfg.MaxPhases, now, h.Batch.Len())
	}

	for k, f := range h.FreeAt {
		h.loads[k] = simtime.NonNeg(f.Sub(now))
		if failAt, dead := cfg.FailAt[k]; dead && !now.Before(failAt) {
			// A crashed worker never frees: every assignment to it is
			// infeasible, so the planners route around it. (The
			// feasibility tests also guard against saturated loads
			// wrapping; FreeAt may already be Never here.)
			h.loads[k] = unreachableLoad
			h.markFailed(k, failAt)
		}
	}
	phase := res.Phases
	cfg.Obs.PhaseStart(phase, h.Batch.Len(), now)
	out, err := cfg.Planner.PlanPhase(core.PhaseInput{Now: now, Batch: h.Batch.Tasks(), Loads: h.loads})
	if err != nil {
		return 0, fmt.Errorf("phase %d: %w", phase, err)
	}
	cfg.Obs.PhaseEnd(phase, now.Add(out.Used), BookPhase(res, &out))

	deliver := now.Add(simtime.MaxDur(out.Used, cfg.MinAdvance))
	h.busyUntil = deliver
	if cfg.CombinedHost && h.FreeAt[0] != simtime.Never {
		// Worker 0 spent the phase scheduling instead of executing:
		// push its backlog back by the scheduling time.
		h.FreeAt[0] = h.FreeAt[0].Max(now).Add(out.Used)
	}

	// Deliver S_j to the worker ready queues; tasks run back to back,
	// non-preemptively, in delivery order.
	scheduled := h.scheduled[:0]
	for _, a := range out.Schedule {
		start := deliver.Max(h.FreeAt[a.Proc])
		actual := a.Task.ActualProc() + a.Comm
		finish := start.Add(actual)
		scheduled = append(scheduled, a.Task)
		if failAt, dead := cfg.FailAt[a.Proc]; dead && finish.After(failAt) {
			// The worker crashes before this task completes: the task
			// is lost, and the worker never frees again.
			h.FreeAt[a.Proc] = simtime.Never
			res.LostToFailure++
			h.markFailed(a.Proc, failAt)
			cfg.Obs.Lost(a.Task.ID, a.Proc, failAt)
			h.record(metrics.Completion{Task: a.Task.ID, Proc: a.Proc, Start: start})
			continue
		}
		if cfg.NoReclaim {
			// The slot is reserved for the full worst case.
			h.FreeAt[a.Proc] = start.Add(a.Task.Proc + a.Comm)
		} else {
			h.FreeAt[a.Proc] = finish
		}
		res.WorkerBusy[a.Proc] += actual
		res.Response.Add(finish.Sub(a.Task.Arrival))
		if finish.After(res.Makespan) {
			res.Makespan = finish
		}
		hit := !finish.After(a.Task.Deadline)
		if hit {
			res.Hits++
		} else {
			// §4.3's theorem says this cannot happen; count it rather
			// than assume, so a planner bug surfaces in every result.
			res.ScheduledMissed++
		}
		cfg.Obs.Deliver(phase, a.Task.ID, a.Proc, a.Comm, deliver)
		cfg.Obs.Exec(a.Task.ID, a.Proc, start, finish, hit,
			finish.Sub(a.Task.Arrival), a.Task.Deadline.Sub(finish))
		h.record(metrics.Completion{
			Task: a.Task.ID, Proc: a.Proc, Start: start, Finish: finish,
			Hit: hit, Executed: true,
		})
	}
	h.Batch.RemoveScheduled(scheduled)
	h.scheduled = scheduled[:0]

	if len(out.Schedule) > 0 {
		return deliver, nil
	}
	// The phase scheduled nothing: every batch task is currently
	// infeasible. Feasibility can only change at the next worker
	// completion, the next arrival (the driver's to add), or a task's purge
	// point — skip the host's idle spinning to the earliest such event.
	event := simtime.Never
	for _, f := range h.FreeAt {
		if f.After(deliver) {
			event = event.Min(f)
		}
	}
	for _, t := range h.Batch.Tasks() {
		event = event.Min(t.Deadline.Add(-t.Proc + 1))
	}
	return deliver.Max(event), nil
}

// BookPhase folds one phase's outcome into the run's books and returns the
// observer's record of it — shared by every host loop (the live one calls it
// under its result mutex and adds its degraded-mode flag).
func BookPhase(res *metrics.RunResult, out *core.PhaseResult) obs.PhaseStats {
	res.Phases++
	res.SchedulingTime += out.Used
	res.VerticesGenerated += out.Stats.Generated
	res.Backtracks += out.Stats.Backtracks
	if out.Stats.DeadEnd {
		res.DeadEnds++
	}
	if out.Stats.Expired {
		res.QuantaExpired++
	}
	return obs.PhaseStats{
		Quantum:    out.Quantum,
		Used:       out.Used,
		Generated:  out.Stats.Generated,
		Backtracks: out.Stats.Backtracks,
		DeadEnd:    out.Stats.DeadEnd,
		Expired:    out.Stats.Expired,
		Expanded:   out.Stats.Expanded,
	}
}
