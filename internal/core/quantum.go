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
	"math"
	"time"

	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// PhaseInput is the state of the system at the start of scheduling phase j.
type PhaseInput struct {
	// Now is t_s, the phase start time.
	Now simtime.Instant
	// Batch is Batch(j) with already-missed tasks purged, in the planner's
	// Priority order (the host orders it). It is read-only: planners must
	// not reorder the slice or mutate the tasks.
	Batch []*task.Task
	// Loads is Load_k(j-1): each worker's outstanding execution time at
	// Now, including the remains of the task it is currently running.
	Loads []time.Duration
	// Margin is the slack every scheduled task must keep past its finish
	// (task.Fits): a live host's guard band against wall-clock jitter, zero
	// on the virtual machine. The quantum policies see each slack shrunk by
	// it too.
	Margin time.Duration
	// Bounds, when set, are the quantum bounds the planner measured for its
	// own host (HostMeter); the bounded policies clamp with them in place of
	// their configured ones. Zero on the virtual machine.
	Bounds Bounds
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
// arriving tasks more frequently). A HostCost writes them: bounds are work
// the host can do, converted to time at the host's speed. The policies rely
// on Min <= Max, which validate enforces and HostCost.Bounds guarantees.
type Bounds struct {
	Min, Max time.Duration
}

// Work, in vertex evaluations past the per-phase setup, that the quantum
// bounds reserve: the floor leaves a phase enough work to place a few
// tasks, the ceiling enough for a few dozen.
const (
	minVertices = 25
	maxVertices = 475
)

// HostCost is the scheduling speed of the host that plans, in nanoseconds
// of virtual time: Phase is the fixed setup every phase pays before its
// search starts, Vertex the cost of one vertex evaluation. The experiments
// fix it (DefaultBounds); a live planner measures it (HostMeter). Fields are
// floats because a live host's vertex costs a fraction of a nanosecond of
// virtual time at a high clock scale.
type HostCost struct {
	Phase, Vertex float64
}

// Bounds returns the quantum bounds this host needs: the phase setup plus
// minVertices evaluations at the floor, plus maxVertices at the ceiling,
// each rounded up to the nanosecond.
func (h HostCost) Bounds() Bounds {
	return Bounds{
		Min: time.Duration(math.Ceil(h.Phase + minVertices*h.Vertex)),
		Max: time.Duration(math.Ceil(h.Phase + maxVertices*h.Vertex)),
	}
}

// DefaultBounds returns the calibration used by the experiments: a host
// whose phase setup costs 25µs and whose vertex evaluations cost 1µs, so
// phases last between 50µs and 500µs. The ceiling matters: the paper's
// criterion is an upper bound ("Qs(j) <= Max[...]"), and because the
// feasibility test conservatively charges the whole quantum, letting Qs grow
// to the batch's full minimum slack would make every admission hopeless. A
// live host is hundreds of times faster and sizes its own (HostMeter).
func DefaultBounds() Bounds {
	return HostCost{Phase: float64(25 * time.Microsecond), Vertex: float64(time.Microsecond)}.Bounds()
}

func (b Bounds) clamp(d time.Duration) time.Duration {
	return simtime.ClampDur(d, b.Min, b.Max)
}

// or returns b when it is set (the planner measured its host), else def.
func (b Bounds) or(def Bounds) Bounds {
	if b.Max > 0 {
		return b
	}
	return def
}

// validate reports whether a phase costing phaseCost still has time left
// to search at the floor.
func (b Bounds) validate(phaseCost time.Duration) error {
	switch {
	case b.Min < 0:
		return fmt.Errorf("core: quantum floor %v must be non-negative", b.Min)
	case b.Min > b.Max:
		return fmt.Errorf("core: quantum floor %v above its ceiling %v", b.Min, b.Max)
	case b.Min <= phaseCost:
		return fmt.Errorf("core: quantum floor %v must exceed the phase cost %v, or phases at the floor schedule nothing", b.Min, phaseCost)
	}
	return nil
}

// hostDecay is the weight the meter keeps of its past per phase.
const hostDecay = 0.99

// HostMeter measures a live host's HostCost, phase by phase, in virtual
// time: Phase is the decayed mean setup time (from the phase's Now to its
// search start), Vertex the decayed total search time over the decayed
// total vertices generated. Both are ratios of times the host actually
// spent, so a phase the quantum cut short counts as much as one that ran to
// a dead end. The zero value has no samples.
type HostMeter struct {
	setup, phases     float64
	search, generated float64
}

// Observe books one phase: its setup time, the time its search ran, and
// the vertices that search generated.
func (m *HostMeter) Observe(setup, search time.Duration, generated int) {
	m.setup = hostDecay*m.setup + float64(simtime.NonNeg(setup))
	m.phases = hostDecay*m.phases + 1
	m.search = hostDecay*m.search + float64(simtime.NonNeg(search))
	m.generated = hostDecay*m.generated + float64(generated)
}

// Cost returns the measured host cost, and false until a phase has
// generated a vertex.
func (m *HostMeter) Cost() (HostCost, bool) {
	if m.generated <= 0 {
		return HostCost{}, false
	}
	return HostCost{Phase: m.setup / m.phases, Vertex: m.search / m.generated}, true
}

// Bounds returns the measured host's quantum bounds, or the zero Bounds —
// unset, so each policy keeps its configured ones — before the first
// sample.
func (m *HostMeter) Bounds() (b Bounds) {
	if c, ok := m.Cost(); ok {
		b = c.Bounds()
	}
	return b
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

// Quantum implements QuantumPolicy. A Min_Load at the ceiling decides the
// quantum alone, and the Min_Slack scan stops at max(Min_Load, Min): below
// that every slack yields the same quantum.
func (a Adaptive) Quantum(in PhaseInput) time.Duration {
	b := in.Bounds.or(a.Bounds)
	load := minLoad(in)
	if load >= b.Max {
		return b.Max
	}
	return b.clamp(simtime.MaxDur(minSlack(in, simtime.MaxDur(load, b.Min)), load))
}

// SlackOnly is the ablation that ignores worker load: Qs(j) = Min_Slack.
type SlackOnly struct {
	Bounds Bounds
}

// Name implements QuantumPolicy.
func (s SlackOnly) Name() string { return "slack-only" }

// Quantum implements QuantumPolicy.
func (s SlackOnly) Quantum(in PhaseInput) time.Duration {
	b := in.Bounds.or(s.Bounds)
	return b.clamp(minSlack(in, b.Min))
}

// LoadOnly is the ablation that ignores task slack: Qs(j) = Min_Load.
type LoadOnly struct {
	Bounds Bounds
}

// Name implements QuantumPolicy.
func (l LoadOnly) Name() string { return "load-only" }

// Quantum implements QuantumPolicy.
func (l LoadOnly) Quantum(in PhaseInput) time.Duration {
	return in.Bounds.or(l.Bounds).clamp(minLoad(in))
}

// Fixed allocates the same quantum to every phase — the static alternative
// the self-adjusting mechanism is evaluated against. It ignores measured
// bounds.
type Fixed struct {
	D time.Duration
}

// Name implements QuantumPolicy.
func (f Fixed) Name() string { return fmt.Sprintf("fixed(%v)", f.D) }

// Quantum implements QuantumPolicy.
func (f Fixed) Quantum(PhaseInput) time.Duration { return f.D }

// minSlack is the paper's Min_Slack: the smallest slack among the batch's
// tasks less the phase's margin, floored at zero (a negative slack means the
// task will be purged; it must not drive the quantum negative). The scan
// stops at the first value at or below floor, since a caller clamps every
// such value to the same quantum: the result is exact when it is above
// floor, and otherwise some value at or below it. A floor of zero makes it
// exact.
func minSlack(in PhaseInput, floor time.Duration) time.Duration {
	if len(in.Batch) == 0 {
		return 0
	}
	stop := floor + in.Margin
	min := in.Batch[0].Slack(in.Now)
	for _, t := range in.Batch[1:] {
		if min <= stop {
			break
		}
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
