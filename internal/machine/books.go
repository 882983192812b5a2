package machine

import (
	"rtsads/internal/admission"
	"rtsads/internal/core"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// The books. Every fact a driver learns about a task is booked by exactly
// one of the methods below: the RunResult field it moves, the Observer call
// that mirrors it into the registry and the journal, in one place. The
// journal is the one per-task record. Drivers write no count themselves. The
// terminal methods free the slot of a task the host took (Host.Take).

// BounceFunc is offered each task the admission gate turns away, before the
// host sheds it: true means a federation router took the task, and the
// host books it Bounced instead. A nil BounceFunc declines everything.
type BounceFunc func(t *task.Task, reason admission.Reason, now simtime.Instant) bool

// Arrive books t reaching this domain at at: the only place Total grows.
func (h *Host) Arrive(t *task.Task, at simtime.Instant) {
	h.Res.Total++
	h.cfg.Obs.Arrival(t.ID, at, t.Deadline)
}

// Admit runs an arrived task through gate (nil admits everything) into the
// batch and books it Admitted; a task the gate turns away — t, or a queued
// task it evicts for t — is bounced or shed by its reason.
func (h *Host) Admit(t *task.Task, now simtime.Instant, gate *admission.Controller, bounce BounceFunc) {
	if h.enter(t, now, gate, bounce) {
		h.Res.Admitted++
		h.cfg.Obs.Admitted(t.ID, t.Deadline.Sub(now), now)
	}
}

// Reroute books t reclaimed from worker and feeds it back through gate, like
// Admit except that it was admitted once already and is not counted again.
func (h *Host) Reroute(t *task.Task, worker int, now simtime.Instant, gate *admission.Controller, bounce BounceFunc) {
	h.Res.Rerouted++
	h.cfg.Obs.Reroute(t.ID, worker, now)
	h.enter(t, now, gate, bounce)
}

func (h *Host) enter(t *task.Task, now simtime.Instant, gate *admission.Controller, bounce BounceFunc) bool {
	return gate.Enter(t, now, h.Batch, func(x *task.Task, reason admission.Reason) {
		if bounce != nil && bounce(x, reason, now) {
			h.Bounce(x, reason, now)
		} else {
			h.Shed(x, reason, now)
		}
	})
}

// Shed books t rejected or evicted by admission control under its reason.
func (h *Host) Shed(t *task.Task, reason admission.Reason, now simtime.Instant) {
	r := h.Res
	r.Shed++
	k := metrics.CountShed // a reason outside the four is booked as Shed alone
	switch reason {
	case admission.Hopeless:
		r.ShedHopeless++
		k = metrics.CountShedHopeless
	case admission.QueueFull:
		r.ShedQueueFull++
		k = metrics.CountShedQueueFull
	case admission.ShuttingDown:
		r.ShedShutdown++
		k = metrics.CountShedShutdown
	case admission.Infeasible:
		r.ShedInfeasible++
		k = metrics.CountShedInfeasible
	}
	h.cfg.Obs.Shed(t.ID, string(reason), k, now)
	h.slots.release(t)
}

// Bounce books t handed to a federation router, which took it: terminal for
// this domain.
func (h *Host) Bounce(t *task.Task, reason admission.Reason, now simtime.Instant) {
	h.Res.Bounced++
	h.cfg.Obs.Bounce(t.ID, string(reason), now)
	h.slots.release(t)
}

// Lose books t written off to a failure: its worker died (-1: no worker
// survives to take it).
func (h *Host) Lose(t *task.Task, worker int, now simtime.Instant) {
	h.Res.LostToFailure++
	h.cfg.Obs.Lost(t.ID, worker, now)
	h.slots.release(t)
}

// Purge books t dropped unexecuted because its deadline became
// unreachable — at batch formation, or at a worker's queue head.
func (h *Host) Purge(t *task.Task, now simtime.Instant) {
	h.Res.Purged++
	h.cfg.Obs.Purge(t.ID, now)
	h.slots.release(t)
}

// Exec books t executed on worker from start to finish: a hit when it ran
// ok and finished by its deadline, a scheduled miss otherwise.
func (h *Host) Exec(t *task.Task, worker int, start, finish simtime.Instant, ok bool) {
	r := h.Res
	hit := ok && task.Fits(finish, 0, 0, t.Deadline)
	if hit {
		r.Hits++
	} else {
		// §4.3's theorem says this cannot happen; count it rather than
		// assume, so a planner bug surfaces in every result.
		r.ScheduledMissed++
	}
	if worker >= 0 && worker < len(r.WorkerBusy) {
		r.WorkerBusy[worker] += finish.Sub(start)
	}
	r.Response.Add(finish.Sub(t.Arrival))
	if finish.After(r.Makespan) {
		r.Makespan = finish
	}
	h.cfg.Obs.Exec(t.ID, worker, start, finish, hit, finish.Sub(t.Arrival), t.Deadline.Sub(finish))
	h.slots.release(t)
}

// markFailed books worker k's crash at at, once however many events
// report it: WorkerFailures counts dead workers, not lost tasks.
func (h *Host) markFailed(k int, at simtime.Instant, reason string) {
	if h.failed[k] {
		return
	}
	if h.failed == nil {
		h.failed = make(map[int]bool, len(h.cfg.FailAt))
	}
	h.failed[k] = true
	h.Res.WorkerFailures++
	h.cfg.Obs.WorkerDown(k, true, reason, at)
}

// bookPhase books one planned phase, ended at end: its search counters.
func (h *Host) bookPhase(phase int, out *core.PhaseResult, end simtime.Instant) {
	r := h.Res
	r.Phases++
	r.SchedulingTime += out.Used
	r.VerticesGenerated += out.Stats.Generated
	r.Backtracks += out.Stats.Backtracks
	if out.Stats.DeadEnd {
		r.DeadEnds++
	}
	if out.Stats.Expired {
		r.QuantaExpired++
	}
	h.cfg.Obs.PhaseEnd(phase, end, obs.PhaseStats{
		Quantum:    out.Quantum,
		Used:       out.Used,
		Generated:  out.Stats.Generated,
		Backtracks: out.Stats.Backtracks,
		DeadEnd:    out.Stats.DeadEnd,
		Expired:    out.Stats.Expired,
		Expanded:   out.Stats.Expanded,
	})
}

// Journaled counts the journal entries that book a count obs.Mirror names,
// under that name; a journal that evicted nothing agrees with Mirror on
// every one of them.
func Journaled(entries []obs.Entry) map[string]int {
	n := map[string]int{}
	for _, name := range journaledTypes {
		n[name] = 0
	}
	n[obs.MetricMissed] = 0
	for i := range entries {
		e := &entries[i]
		if e.Type == "exec" && !e.Hit {
			n[obs.MetricMissed]++
		} else if name, ok := journaledTypes[e.Type]; ok {
			n[name]++
		}
	}
	return n
}

// journaledTypes maps each journal entry type that books one count to the
// count's registry name (an exec entry books a hit or, unhit, a miss).
var journaledTypes = map[string]string{
	"arrival":   obs.MetricArrivals,
	"admit":     obs.MetricAdmitted,
	"exec":      obs.MetricHits,
	"purge":     obs.MetricPurged,
	"lost":      obs.MetricLost,
	"reroute":   obs.MetricRerouted,
	"shed":      obs.MetricShed,
	"bounce":    obs.MetricBounced,
	"phase-end": obs.MetricPhases,
}
