// Package machine implements the deterministic virtual-time model of the
// paper's execution platform: a distributed-memory multiprocessor with one
// dedicated host processor that runs scheduling phases and m-1 working
// processors that execute delivered schedules from their ready queues,
// concurrently with the next scheduling phase (§4, §5).
//
// The machine substitutes for the paper's Intel Paragon (see DESIGN.md): it
// advances a virtual clock by exactly the scheduling time each phase
// consumes, drains worker queues in parallel with scheduling, and records
// every task's fate. Runs are bit-for-bit reproducible.
package machine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// Config configures a machine.
type Config struct {
	// Workers is the number of working processors (the host is implicit
	// and additional).
	Workers int
	// Planner is the scheduling algorithm the host runs.
	Planner core.Planner
	// MinAdvance is the minimum clock advance per phase, guarding against
	// zero-progress loops when a phase consumes no measurable scheduling
	// time. Defaults to DefaultMinAdvance.
	MinAdvance time.Duration
	// MaxPhases aborts pathological runs. Defaults to DefaultMaxPhases.
	MaxPhases int
	// Obs, when non-nil, records the run's timeline (arrivals, phases,
	// deliveries, executions, purges, injected crashes) through the live
	// cluster's observability hooks — the same named metrics and journal
	// entries, for simulator/live parity. Virtual timestamps are exact;
	// wall timestamps are the (meaningless) recording times.
	Obs *obs.Observer
	// NoReclaim disables resource reclaiming: a worker holds each task's
	// slot for its full worst-case time even when the task finishes early.
	// The default (reclaiming on) lets the next queued task start as soon
	// as its predecessor actually completes — the behaviour of the
	// resource-reclaiming schedulers the paper builds on [3][5].
	NoReclaim bool
	// FailAt injects worker crashes: worker k halts permanently at
	// FailAt[k]. Queued tasks that have not finished by then are lost
	// (counted in RunResult.LostToFailure), and from the crash onward the
	// scheduler sees the worker as permanently loaded, so feasibility
	// routes everything to the survivors.
	FailAt map[int]simtime.Instant
	// CombinedHost runs the scheduler on worker 0 instead of a dedicated
	// processor: each phase's scheduling time is stolen from worker 0's
	// capacity by pushing its ready queue back. This deliberately breaks
	// the §4.3 guarantee for tasks queued on worker 0 (their execution
	// slides later than the feasibility test assumed) — the ablation that
	// quantifies the value of the paper's dedicated scheduling processor.
	CombinedHost bool
	// Margin is the planning guard band handed to every phase
	// (core.PhaseInput.Margin): each scheduled task must finish this much
	// before its deadline. The books still judge hits against the true
	// deadline, so a live driver's margin absorbs wall-clock jitter (late
	// dequeues, timer overshoot) that would otherwise turn a zero-slack
	// schedule into a miss. Zero on the virtual machine.
	Margin time.Duration
}

// Machine executes workloads under a planner.
type Machine struct {
	cfg Config
	// h and pending are Run's scratch, kept across runs: the host with its
	// batch and step buffers, and the arrival-ordered copy of an unordered
	// task list.
	h       Host
	pending []*task.Task
}

// The virtual drivers' phase guards: what New resolves a zero MinAdvance
// and MaxPhases to.
const (
	DefaultMinAdvance = time.Microsecond
	DefaultMaxPhases  = 10_000_000
)

// New validates the configuration and returns a machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("machine: Workers %d must be positive", cfg.Workers)
	}
	if cfg.Planner == nil {
		return nil, errors.New("machine: Planner is nil")
	}
	if cfg.MinAdvance <= 0 {
		cfg.MinAdvance = DefaultMinAdvance
	}
	if cfg.MaxPhases <= 0 {
		cfg.MaxPhases = DefaultMaxPhases
	}
	return &Machine{cfg: cfg}, nil
}

// Run simulates the full lifetime of the given tasks: arrivals feed the
// host's batch, the host runs scheduling phases back to back, and workers
// execute delivered schedules. It returns the run's metrics. Run is the thin
// driver of Host.Step: absorb arrivals, step, advance the clock.
//
// Run reuses the machine's scratch, so it is not safe for concurrent use on
// one Machine; its planner is not either.
func (m *Machine) Run(tasks []*task.Task) (*metrics.RunResult, error) {
	byArrival := func(a, b *task.Task) int { return cmp.Compare(a.Arrival, b.Arrival) }
	pending := tasks
	if !slices.IsSortedFunc(tasks, byArrival) {
		m.pending = append(m.pending[:0], tasks...)
		slices.SortStableFunc(m.pending, byArrival)
		pending = m.pending
	}

	h := &m.h
	h.Reset(m.cfg)
	now := simtime.Instant(0)
	for next := 0; ; {
		// Absorb every arrival at or before the current time.
		for ; next < len(pending) && !pending[next].Arrival.After(now); next++ {
			t := pending[next]
			h.Arrive(t, t.Arrival)
			h.Batch.Add(t)
		}
		wake, err := h.Step(now)
		if err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		if next < len(pending) {
			// An arrival wakes an idle host early; one that lands inside a
			// running phase waits for that phase to deliver.
			wake = wake.Min(pending[next].Arrival.Max(h.BusyUntil()))
		}
		if wake == simtime.Never {
			return h.Res, nil // all tasks accounted for; workers just drain
		}
		now = wake
	}
}
