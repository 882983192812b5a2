// Package admission implements overload control at the host's front door:
// the paper's §4.3 feasibility test applied at *enqueue* time, plus a
// configurable bound on the ready queue with deadline-aware shedding.
//
// RT-SADS's guarantee is conditional: every task it admits and schedules
// provably meets its deadline. Under sustained overload that condition is
// where the system must spend its honesty — tasks whose deadlines cannot be
// met even on an idle worker (Hopeless) only burn scheduling quantum if
// they are allowed into the batch, and an unbounded ready queue turns
// arrival bursts into unbounded memory and ever-longer phases. This package
// makes both decisions explicit and typed: every arriving task is either
// admitted or rejected with a reason, and when the queue is full a policy
// decides who pays — the newcomer (Reject) or the queued task least likely
// to survive anyway (ShedOldest, ShedLeastSlack).
//
// The controller is a pure, deterministic decision function over the
// arriving task, the current time and the queue contents; it owns no state
// and takes no locks, so the host loop can consult it inline. Counting and
// journaling the outcomes is the caller's job (the live cluster mirrors
// every decision into metrics.RunResult and the obs registry).
package admission

import (
	"fmt"
	"time"

	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// Policy selects who is shed when the bounded ready queue is full.
type Policy int

const (
	// Reject turns away the arriving task and keeps the queue untouched —
	// first-come, first-admitted.
	Reject Policy = iota
	// ShedOldest evicts the earliest-arrived queued task to admit the
	// newcomer — drop the work that has already waited longest (and so has
	// burned the most of its slack sitting still).
	ShedOldest
	// ShedLeastSlack evicts the task — queued or arriving, whichever —
	// with the least slack: the closest deadline-loser pays first, which
	// preserves the most aggregate slack in the queue.
	ShedLeastSlack
)

// String returns the policy's flag-friendly name.
func (p Policy) String() string {
	switch p {
	case Reject:
		return "reject"
	case ShedOldest:
		return "shed-oldest"
	case ShedLeastSlack:
		return "shed-least-slack"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps a flag value back to a policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "reject":
		return Reject, nil
	case "shed-oldest":
		return ShedOldest, nil
	case "shed-least-slack":
		return ShedLeastSlack, nil
	default:
		return 0, fmt.Errorf("admission: unknown policy %q (want reject, shed-oldest or shed-least-slack)", s)
	}
}

// Reason is the typed cause attached to every non-admission.
type Reason string

const (
	// Hopeless marks a task that cannot meet its deadline even if it
	// started immediately on an idle worker with local data — the §4.3
	// bound now + p_l (+ min communication) > d_l. Admitting it could only
	// waste quantum: no feasible schedule will ever contain it.
	Hopeless Reason = "hopeless"
	// QueueFull marks a task turned away (or evicted) because the ready
	// queue is at capacity and the policy chose it as the victim.
	QueueFull Reason = "queue-full"
	// ShuttingDown marks a task turned away because the host has stopped
	// admitting work for a graceful shutdown.
	ShuttingDown Reason = "shutting-down"
	// ShardDown marks a task re-offered to a federation router because
	// its scheduler domain has no live workers left: no local schedule
	// can exist, but a sibling shard may still meet the deadline. The
	// admission controller never emits it; the live cluster's host loop
	// does when every worker has failed.
	ShardDown Reason = "shard-down"
	// Infeasible marks a task rejected by a schedulability Predicate: the
	// task is individually servable (not Hopeless), but adding it to the
	// current queue fails the predicate's quick-test — e.g. the
	// utilization demand bound — so admitting it could only trade an
	// existing deadline for this one.
	Infeasible Reason = "infeasible"
)

// Predicate is a pluggable admission-time schedulability quick-test — the
// policy registry's extension point for utilization-style checks. Admit
// reports whether the arriving task, taken together with the current queue
// contents, passes; the controller rejects with Infeasible when it does
// not. Implementations must be deterministic, must not mutate their
// arguments, and must be NECESSARY conditions only: returning false must
// prove no schedule can serve queue ∪ {t}, never merely guess — a false
// negative here silently sheds schedulable work.
type Predicate interface {
	// Name identifies the predicate in logs and flag errors.
	Name() string
	// Admit reports whether queue ∪ {t} passes the quick-test at now.
	Admit(t *task.Task, now simtime.Instant, queue []*task.Task) bool
}

// Decision is the controller's verdict for one arriving task.
type Decision struct {
	// Admit reports whether the arriving task enters the queue.
	Admit bool
	// Reason is set when the arriving task was not admitted.
	Reason Reason
	// Victim is the already-queued task evicted to make room, when a shed
	// policy chose one. It is only non-nil when Admit is true; the caller
	// must remove it from the queue and account for it with QueueFull.
	Victim *task.Task
}

// Config bounds the ready queue and picks the shedding policy. The zero
// value admits everything (no cap, no hopeless rejection) so existing
// callers are unaffected until they opt in.
type Config struct {
	// Policy selects the overflow behaviour; irrelevant while QueueCap is
	// zero.
	Policy Policy
	// QueueCap bounds the ready queue (0 = unbounded).
	QueueCap int
	// RejectHopeless enables the enqueue-time feasibility test.
	RejectHopeless bool
	// MinComm is the optimistic communication cost assumed by the
	// hopeless test — zero models a task with affinity to an idle worker,
	// a positive value tightens the test for clusters where every
	// placement pays at least that much.
	MinComm time.Duration
	// Predicate, when non-nil, adds a schedulability quick-test after the
	// hopeless check: arrivals failing it are rejected with Infeasible.
	// Interfaces do not serialize — a shard driven over the wire protocol
	// must construct its own predicate locally.
	Predicate Predicate `json:"-"`
}

// Enabled reports whether the configuration changes any behaviour.
func (c Config) Enabled() bool {
	return c.QueueCap > 0 || c.RejectHopeless || c.Predicate != nil
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.QueueCap < 0 {
		return fmt.Errorf("admission: QueueCap %d must be non-negative", c.QueueCap)
	}
	if c.MinComm < 0 {
		return fmt.Errorf("admission: MinComm %v must be non-negative", c.MinComm)
	}
	switch c.Policy {
	case Reject, ShedOldest, ShedLeastSlack:
		return nil
	default:
		return fmt.Errorf("admission: unknown policy %v", c.Policy)
	}
}

// Controller applies one Config. Construct with New.
type Controller struct {
	cfg Config
}

// New validates the configuration and returns a controller.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg}, nil
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// HopelessAt reports whether t cannot meet its deadline even on an idle
// worker starting immediately at now: now + p_l + MinComm > d_l. It is the
// zero-quantum specialisation of search.Problem.Hopeless — the most
// optimistic bound any schedule could achieve, so rejection on it never
// turns away a schedulable task.
func (c *Controller) HopelessAt(t *task.Task, now simtime.Instant) bool {
	return now.Add(t.Proc + c.cfg.MinComm).After(t.Deadline)
}

// Admit decides the fate of an arriving task given the current queue
// contents. The queue slice is read, never mutated; when the decision names
// a Victim the caller removes it. Deterministic: identical inputs always
// produce identical decisions.
func (c *Controller) Admit(t *task.Task, now simtime.Instant, queue []*task.Task) Decision {
	if c == nil {
		return Decision{Admit: true}
	}
	if c.cfg.RejectHopeless && c.HopelessAt(t, now) {
		return Decision{Reason: Hopeless}
	}
	if c.cfg.Predicate != nil && !c.cfg.Predicate.Admit(t, now, queue) {
		return Decision{Reason: Infeasible}
	}
	if c.cfg.QueueCap <= 0 || len(queue) < c.cfg.QueueCap {
		return Decision{Admit: true}
	}
	switch c.cfg.Policy {
	case ShedOldest:
		if v := oldest(queue); v != nil {
			return Decision{Admit: true, Victim: v}
		}
	case ShedLeastSlack:
		if v := leastSlack(queue, now); v != nil {
			// The arriving task is itself the worst-placed candidate when
			// its slack is smaller than every queued task's: rejecting it
			// is the same shed, without churning the queue.
			if v.Slack(now) < t.Slack(now) || (v.Slack(now) == t.Slack(now) && v.ID < t.ID) {
				return Decision{Admit: true, Victim: v}
			}
			return Decision{Reason: QueueFull}
		}
	}
	return Decision{Reason: QueueFull}
}

// Enter runs one arriving task through the gate into the batch — the
// sequence every host shares: a rejected task, and the victim an admission
// evicts, go to reject (the victim first, so the batch never exceeds its
// cap). It reports whether t entered the batch.
func (c *Controller) Enter(t *task.Task, now simtime.Instant, b *task.Batch, reject func(*task.Task, Reason)) bool {
	d := c.Admit(t, now, b.Tasks())
	if !d.Admit {
		reject(t, d.Reason)
		return false
	}
	if d.Victim != nil {
		b.RemoveScheduled([]*task.Task{d.Victim})
		reject(d.Victim, QueueFull)
	}
	b.Add(t)
	return true
}

// oldest returns the queued task with the earliest arrival (ties broken by
// lowest ID), or nil for an empty queue.
func oldest(queue []*task.Task) *task.Task {
	var best *task.Task
	for _, q := range queue {
		if best == nil || q.Arrival < best.Arrival ||
			(q.Arrival == best.Arrival && q.ID < best.ID) {
			best = q
		}
	}
	return best
}

// leastSlack returns the queued task with the smallest slack at now (ties
// broken by lowest ID), or nil for an empty queue.
func leastSlack(queue []*task.Task, now simtime.Instant) *task.Task {
	var best *task.Task
	for _, q := range queue {
		if best == nil || q.Slack(now) < best.Slack(now) ||
			(q.Slack(now) == best.Slack(now) && q.ID < best.ID) {
			best = q
		}
	}
	return best
}
