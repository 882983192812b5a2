// Package core implements the paper's primary contribution: the RT-SADS
// scheduler (Real-Time Self-Adjusting Dynamic Scheduling, §4), the D-COLS
// sequence-oriented baseline it is compared against (§5.2), and two classic
// greedy baselines. All schedulers are expressed as phase planners: given
// the current time, the batch, and the workers' outstanding loads, a
// planner allocates a scheduling quantum, searches for a feasible partial
// schedule within it, and returns the schedule for delivery.
package core

import (
	"fmt"
	"time"

	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// PhaseInput is the state of the system at the start of scheduling phase j.
type PhaseInput struct {
	// Now is t_s, the phase start time.
	Now simtime.Instant
	// Batch is Batch(j) with already-missed tasks purged. Planners may
	// reorder the slice but must not mutate the tasks.
	Batch []*task.Task
	// Loads is Load_k(j-1): each worker's outstanding execution time at
	// Now, including the remains of the task it is currently running.
	Loads []time.Duration
	// Margin is the slack every scheduled task must keep past its finish
	// (task.Fits): a live host's guard band against wall-clock jitter, zero
	// on the virtual machine. The quantum policies see each slack shrunk by
	// it too.
	Margin time.Duration
}

// QuantumPolicy decides Qs(j), the scheduling time allocated to a phase.
type QuantumPolicy interface {
	// Quantum returns the allocated scheduling time for the phase.
	Quantum(in PhaseInput) time.Duration
	// Name identifies the policy in results.
	Name() string
}

// Bounds clamp every policy's output: a floor keeps phases from collapsing
// to zero work when slack runs out, and a ceiling keeps the scheduler
// responsive to arrivals (§4.2's motivation: shorter phases account for
// arriving tasks more frequently).
type Bounds struct {
	Min, Max time.Duration
}

// DefaultBounds returns the calibration used by the experiments: phases
// between 50µs (a few dozen vertex evaluations) and 500µs. The ceiling
// matters: the paper's criterion is an upper bound ("Qs(j) <= Max[...]"),
// and because the feasibility test conservatively charges the whole
// quantum, letting Qs grow to the batch's full minimum slack would make
// every admission hopeless. Half a millisecond keeps the host responsive
// while allowing several hundred vertex evaluations per phase.
func DefaultBounds() Bounds {
	return Bounds{Min: 50 * time.Microsecond, Max: 500 * time.Microsecond}
}

func (b Bounds) clamp(d time.Duration) time.Duration {
	return simtime.ClampDur(d, b.Min, b.Max)
}

// Adaptive is the paper's self-adjusting criterion (§4.2, Figure 3):
// Qs(j) = max(Min_Slack, Min_Load). When slacks are large or workers are
// busy, scheduling gets more time to optimise; when slacks shrink or
// workers fall idle, phases shorten to honour deadlines and reduce idle
// time.
type Adaptive struct {
	Bounds Bounds
}

// NewAdaptive returns the adaptive policy with default bounds.
func NewAdaptive() Adaptive { return Adaptive{Bounds: DefaultBounds()} }

// Name implements QuantumPolicy.
func (a Adaptive) Name() string { return "adaptive" }

// Quantum implements QuantumPolicy.
func (a Adaptive) Quantum(in PhaseInput) time.Duration {
	return a.Bounds.clamp(simtime.MaxDur(minSlack(in), minLoad(in)))
}

// SlackOnly is the ablation that ignores worker load: Qs(j) = Min_Slack.
type SlackOnly struct {
	Bounds Bounds
}

// Name implements QuantumPolicy.
func (s SlackOnly) Name() string { return "slack-only" }

// Quantum implements QuantumPolicy.
func (s SlackOnly) Quantum(in PhaseInput) time.Duration {
	return s.Bounds.clamp(minSlack(in))
}

// LoadOnly is the ablation that ignores task slack: Qs(j) = Min_Load.
type LoadOnly struct {
	Bounds Bounds
}

// Name implements QuantumPolicy.
func (l LoadOnly) Name() string { return "load-only" }

// Quantum implements QuantumPolicy.
func (l LoadOnly) Quantum(in PhaseInput) time.Duration {
	return l.Bounds.clamp(minLoad(in))
}

// Fixed allocates the same quantum to every phase — the static alternative
// the self-adjusting mechanism is evaluated against.
type Fixed struct {
	D time.Duration
}

// Name implements QuantumPolicy.
func (f Fixed) Name() string { return fmt.Sprintf("fixed(%v)", f.D) }

// Quantum implements QuantumPolicy.
func (f Fixed) Quantum(PhaseInput) time.Duration { return f.D }

// minSlack is the paper's Min_Slack: the smallest slack among the batch's
// tasks less the phase's margin, floored at zero (a negative slack means the
// task will be purged; it must not drive the quantum negative).
func minSlack(in PhaseInput) time.Duration {
	if len(in.Batch) == 0 {
		return 0
	}
	min := in.Batch[0].Slack(in.Now)
	for _, t := range in.Batch[1:] {
		if s := t.Slack(in.Now); s < min {
			min = s
		}
	}
	return simtime.NonNeg(min - in.Margin)
}

// minLoad is the paper's Min_Load: the smallest outstanding load among the
// working processors — the time until the first worker would fall idle.
func minLoad(in PhaseInput) time.Duration {
	if len(in.Loads) == 0 {
		return 0
	}
	min := in.Loads[0]
	for _, l := range in.Loads[1:] {
		if l < min {
			min = l
		}
	}
	return simtime.NonNeg(min)
}
