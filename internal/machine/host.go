package machine

import (
	"fmt"
	"maps"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/metrics"
	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// Host is the host processor of one scheduler domain and the one scheduling
// step every driver shares: Machine.Run drives a Host over a fixed arrival
// list, federation.Simulate drives one per shard behind an admission gate,
// and livecluster drives one on a wall clock with real workers behind it.
// The driver owns when things happen: arrivals, the gate in front, worker
// completions and failures. Step owns everything from the purge to the
// delivery. Host owns the books (books.go): every fact lands in Res through
// one of its methods, whichever driver learned it. The zero value is ready
// for Reset.
type Host struct {
	cfg Config

	// Res is the run's books, Batch the admitted-but-unscheduled tasks and
	// FreeAt the instant each worker's ready queue drains.
	Res    *metrics.RunResult
	Batch  *task.Batch
	FreeAt []simtime.Instant
	// Seams, when set, are a live driver's: see Seams. Virtual drivers leave
	// it nil.
	Seams Seams

	busyUntil simtime.Instant // the previous phase's delivery instant
	// failed marks each crash once it manifests, so Res.WorkerFailures
	// counts dead workers (not lost tasks) — the same contract the live
	// cluster keeps.
	failed map[int]bool
	// loads and scheduled are per-step scratch, kept across steps and runs.
	loads     []time.Duration
	scheduled []*task.Task
	slots     slots // the tasks the driver hands over by value (Take)
}

// Seams are the two places a driver's world differs from the virtual one,
// each a method the driver's code supplies. Without them a Host is a
// virtual-time host: a phase ends Used after it began, delivers no sooner
// than MinAdvance after it, and its schedule executes analytically.
type Seams interface {
	// PhaseEnd returns the instant the phase begun at now ended, having
	// spent used of scheduling time; the phase is booked at that instant.
	PhaseEnd(now simtime.Instant, used time.Duration) simtime.Instant
	// Deliver hands S_j to the workers at the delivery instant.
	Deliver(phase int, at simtime.Instant, schedule []search.Assignment) error
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

// Fail removes worker k from the machine at at, the way a FailAt crash
// does: from then on it never frees, so every assignment to it is
// infeasible and the planner routes around it. The driver settles what the
// worker still held; reason is journaled with the worker-down entry.
func (h *Host) Fail(k int, at simtime.Instant, reason string) {
	if _, dead := h.cfg.FailAt[k]; !dead {
		failAt := maps.Clone(h.cfg.FailAt) // the caller's map stays untouched
		if failAt == nil {
			failAt = make(map[int]simtime.Instant, 1)
		}
		failAt[k] = at
		h.cfg.FailAt = failAt
	}
	h.FreeAt[k] = simtime.Never
	h.markFailed(k, at, reason)
}

const injectedCrash = "machine: injected crash"

// Step runs one scheduling iteration at now — purge, plan one phase, book
// it, deliver the schedule — and returns the next instant the host has work
// of its own: the delivery instant after a phase that scheduled a task or
// that ran out of quantum before proving anything, the earliest
// worker completion or purge point after any other, Never when the batch is
// empty. The host runs phases back to back
// (§4), never two at once: called before the previous phase's delivery
// instant, Step does nothing and returns that instant.
func (h *Host) Step(now simtime.Instant) (simtime.Instant, error) {
	if now.Before(h.busyUntil) {
		return h.busyUntil, nil
	}
	cfg, res := &h.cfg, h.Res
	// Purge tasks whose deadlines have already been missed (§4.1).
	for _, t := range h.Batch.PurgeMissed(now) {
		h.Purge(t, now)
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
			h.loads[k] = search.Unreachable
			h.markFailed(k, failAt, injectedCrash)
		}
	}
	phase := res.Phases
	cfg.Obs.PhaseStart(phase, h.Batch.Len(), now)
	h.Batch.Order(cfg.Planner.Priority())
	out, err := cfg.Planner.PlanPhase(core.PhaseInput{Now: now, Batch: h.Batch.Tasks(), Loads: h.loads, Margin: cfg.Margin})
	if err != nil {
		return 0, fmt.Errorf("phase %d: %w", phase, err)
	}
	end := now.Add(out.Used)
	if h.Seams != nil {
		end = h.Seams.PhaseEnd(now, out.Used)
	}
	h.bookPhase(phase, &out, end)

	deliver := end.Max(now.Add(cfg.MinAdvance))
	h.busyUntil = deliver
	if cfg.CombinedHost && h.FreeAt[0] != simtime.Never {
		// Worker 0 spent the phase scheduling instead of executing:
		// push its backlog back by the scheduling time.
		h.FreeAt[0] = h.FreeAt[0].Max(now).Add(out.Used)
	}

	// Take S_j out of the batch, then deliver it (a book may free a slot).
	scheduled := h.scheduled[:0]
	for _, a := range out.Schedule {
		scheduled = append(scheduled, a.Task)
	}
	h.Batch.RemoveScheduled(scheduled)
	h.scheduled = scheduled[:0]
	if h.Seams == nil {
		h.execute(phase, deliver, out.Schedule)
	} else if err = h.Seams.Deliver(phase, deliver, out.Schedule); err != nil {
		return 0, err
	}

	if len(out.Schedule) > 0 {
		return deliver, nil
	}
	if len(out.Schedule) == 0 && out.Stats.Expired && !out.Stats.DeadEnd {
		// The quantum ran out before the search proved anything about the
		// batch (a stalled host can spend a whole quantum before its first
		// expansion): plan again at once.
		return deliver, nil
	}
	// Every task in the batch is currently infeasible. That can only change
	// at the next worker completion, the next arrival (the driver's to add),
	// or a task's purge point — skip the host's idle spinning to the
	// earliest such event.
	event := simtime.Never
	for _, f := range h.FreeAt {
		if f.After(deliver) {
			event = event.Min(f)
		}
	}
	event = event.Min(h.Batch.LatestStart().Add(1))
	return deliver.Max(event), nil
}

// execute runs S_j analytically from its delivery instant: tasks run back to
// back, non-preemptively, in delivery order.
func (h *Host) execute(phase int, deliver simtime.Instant, schedule []search.Assignment) {
	cfg := &h.cfg
	for _, a := range schedule {
		start := deliver.Max(h.FreeAt[a.Proc])
		actual := a.Task.ActualProc() + a.Comm
		finish := start.Add(actual)
		if failAt, dead := cfg.FailAt[a.Proc]; dead && finish.After(failAt) {
			// The worker crashes before this task completes: the task
			// is lost, and the worker never frees again.
			h.FreeAt[a.Proc] = simtime.Never
			h.markFailed(a.Proc, failAt, injectedCrash)
			h.Lose(a.Task, a.Proc, failAt)
			continue
		}
		if cfg.NoReclaim {
			// The slot is reserved for the full worst case.
			h.FreeAt[a.Proc] = start.Add(a.Task.Proc + a.Comm)
		} else {
			h.FreeAt[a.Proc] = finish
		}
		cfg.Obs.Deliver(phase, a.Task.ID, a.Proc, a.Comm, deliver)
		h.Exec(a.Task, a.Proc, start, finish, true)
	}
}
