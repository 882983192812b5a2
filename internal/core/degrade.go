package core

import (
	"fmt"
	"time"
)

// DegradeConfig tunes the degraded-mode controller. The zero value gets
// conservative defaults from withDefaults.
type DegradeConfig struct {
	// After is the number of consecutive bad phases — quantum expired
	// before scheduling anything, or planning latency over the slack
	// fraction — before the controller falls back to the fallback planner
	// (default 3).
	After int
	// Recover is the number of consecutive clean fallback phases before
	// the controller returns to the primary planner (default 2). The
	// asymmetry is the hysteresis: entering degraded mode is cheap to
	// trigger and deliberate to leave, so a borderline workload does not
	// flap between planners every phase.
	Recover int
	// SlackFraction, when positive, also marks a phase bad when its
	// scheduling time exceeded this fraction of the batch's minimum slack —
	// the planner was eating the very margin it is supposed to protect.
	// Zero disables the latency criterion; empty expired phases alone
	// degrade.
	SlackFraction float64
}

func (c DegradeConfig) withDefaults() DegradeConfig {
	if c.After <= 0 {
		c.After = 3
	}
	if c.Recover <= 0 {
		c.Recover = 2
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c DegradeConfig) Validate() error {
	if c.SlackFraction < 0 || c.SlackFraction > 1 {
		return fmt.Errorf("core: SlackFraction %v must be in [0, 1]", c.SlackFraction)
	}
	return nil
}

// Degrading is a planner controller implementing graceful degradation:
// it runs the primary planner (RT-SADS search) while phases stay healthy
// and falls back to a cheap fallback planner (EDF-greedy) when After
// consecutive phases go bad, recovering hysteretically after Recover
// consecutive clean fallback phases. The guarantee is preserved across the
// switch because both planners gate every assignment on the same §4.3
// deadline-safe feasibility test — degradation trades schedule quality
// (load balance, hit count under contention), never correctness.
//
// Degrading keeps core observation-free: it emits nothing. Each phase's
// result carries a DegradeStep, which the host books into its metrics and
// journal. Like every Planner it is driven by a single goroutine; it is not
// safe for concurrent use.
type Degrading struct {
	primary  Planner
	fallback Planner
	cfg      DegradeConfig
	name     string

	degraded    bool
	badStreak   int
	cleanStreak int
}

// DegradeStep is what a degraded-mode controller did in one phase. The mode
// switched when Fallback and Degraded differ: into degraded mode when
// Degraded is set, out of it otherwise.
type DegradeStep struct {
	// Fallback marks a phase planned by the fallback planner.
	Fallback bool
	// Degraded is the mode after the phase: the fallback plans the next one.
	Degraded bool
}

// NewDegrading wraps primary with a fallback under the given controller
// configuration.
func NewDegrading(primary, fallback Planner, cfg DegradeConfig) (*Degrading, error) {
	if primary == nil || fallback == nil {
		return nil, fmt.Errorf("core: Degrading needs both a primary and a fallback planner")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Degrading{
		primary:  primary,
		fallback: fallback,
		cfg:      cfg.withDefaults(),
		name:     primary.Name() + "+degrade",
	}, nil
}

// Name implements Planner.
func (d *Degrading) Name() string { return d.name }

// PlanPhase implements Planner: delegate to the active planner, then judge
// the phase and advance the state machine. The result's Degrade is this
// controller's step, overwriting any a nested rung reported: a ladder
// reports transitions out of its primary.
func (d *Degrading) PlanPhase(in PhaseInput) (PhaseResult, error) {
	active := d.primary
	if d.degraded {
		active = d.fallback
	}
	res, err := active.PlanPhase(in)
	if err != nil {
		return res, err
	}
	res.Degrade.Fallback = d.degraded
	bad := d.bad(in, res)
	switch {
	case d.degraded && bad:
		d.cleanStreak = 0
	case d.degraded:
		d.cleanStreak++
		if d.cleanStreak >= d.cfg.Recover {
			d.degraded = false
			d.badStreak, d.cleanStreak = 0, 0
		}
	case bad:
		d.badStreak++
		if d.badStreak >= d.cfg.After {
			d.degraded = true
			d.badStreak, d.cleanStreak = 0, 0
		}
	default:
		d.badStreak = 0
	}
	res.Degrade.Degraded = d.degraded
	return res, nil
}

// bad judges one phase: the quantum expired before the planner scheduled
// anything — it proved nothing in its quantum — or (when the latency
// criterion is on) scheduling time ate more than the configured fraction of
// the batch's minimum slack. An expired phase that scheduled tasks is
// clean: quanta sized in work cut a deep batch short by design.
func (d *Degrading) bad(in PhaseInput, res PhaseResult) bool {
	if res.Stats.Expired && len(res.Schedule) == 0 {
		return true
	}
	if f := d.cfg.SlackFraction; f > 0 {
		if ms := minSlack(in, 0); ms > 0 && res.Used > time.Duration(f*float64(ms)) {
			return true
		}
	}
	return false
}
