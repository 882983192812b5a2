package core

import (
	"fmt"
	"time"

	"rtsads/internal/represent"
	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

func newAssignmentRep(cfg SearchConfig) search.Representation {
	rep := represent.NewAssignment()
	if cfg.SumCost {
		rep.Cost = search.SumCost{}
	}
	return rep
}

func newSequenceRep(cfg SearchConfig) search.Representation {
	rep := represent.NewSequence(cfg.Workers)
	if cfg.SumCost {
		rep.Cost = search.SumCost{}
	}
	return rep
}

// PhaseResult is the outcome of one scheduling phase.
type PhaseResult struct {
	// Quantum is the Qs(j) the policy allocated.
	Quantum time.Duration
	// Used is the scheduling time actually consumed (<= Quantum in virtual
	// mode). The machine advances its clock by Used; the paper's
	// "scheduling cost" metric is the sum of Used over all phases.
	Used time.Duration
	// Schedule is S_j: the feasible (partial) schedule, in path order,
	// which is also each worker's queue order. Every assignment satisfies
	// phaseEnd + EndOffset <= deadline, so delivery at or before phaseEnd
	// guarantees the deadline (§4.3's theorem). It is valid until the
	// planner's next PlanPhase, which may reuse its storage.
	Schedule []search.Assignment
	// Stats carries the search counters for the phase: the experiments
	// reconcile on them and the callers forward them into obs.PhaseStats.
	Stats search.Stats
}

// Planner runs one scheduling phase. Implementations must be deterministic
// functions of the input.
type Planner interface {
	// PlanPhase schedules as much of the batch as the quantum allows.
	PlanPhase(in PhaseInput) (PhaseResult, error)
	// Priority is the order PlanPhase reads its batch in: the host orders
	// the batch by it (task.Batch.Order) before every phase.
	Priority() task.Priority
	// Name identifies the algorithm in results.
	Name() string
}

// CommFunc returns c_lk, the communication cost of running a task on a
// worker (zero when the task has affinity with it). It is never negative:
// the search's hopeless test and least-load bound rely on c_lk >= 0.
type CommFunc func(t *task.Task, proc int) time.Duration

// SearchConfig parameterises the search-based planners.
type SearchConfig struct {
	// Workers is the number of working processors.
	Workers int
	// Comm is the communication-cost function (the paper's c_lk).
	Comm CommFunc
	// VertexCost is the scheduling time charged per search vertex
	// generated — the model of the host processor's scheduling speed.
	VertexCost time.Duration
	// PhaseCost is a fixed scheduling time charged once per phase, before
	// the search starts. It models the per-phase work a real host performs
	// regardless of quantum length — re-forming the batch, sorting it by
	// priority, delivering the schedule to the worker ready queues — and is
	// what makes pathologically short fixed quanta expensive, as they are
	// on real hardware. Zero disables it.
	PhaseCost time.Duration
	// Policy allocates the quantum of each phase.
	Policy QuantumPolicy
	// Clock, when non-nil, switches the quantum budget to wall-clock time
	// (live deployments). It must report the virtual time elapsed since the
	// phase's Now. The planner then also meters its own speed (HostMeter)
	// and sizes the quantum bounds from it.
	Clock func() time.Duration
	// Strategy selects the search's exploration order (default: the
	// paper's depth-first strategy).
	Strategy search.Strategy
	// MaxBacktracks and MaxDepth enable the §3 pruning heuristics; zero
	// disables each.
	MaxBacktracks int
	MaxDepth      int
	// Priority selects the batch's scheduling-priority order (default:
	// EDF, the paper's deadline heuristic).
	Priority task.Priority
	// SumCost swaps the §4.4 load-balancing cost CE = max_k ce_k for the
	// total-completion alternative Σ_k ce_k — a design-choice ablation.
	SumCost bool
}

// Validate reports whether the configuration is usable.
func (c SearchConfig) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("core: Workers %d must be positive", c.Workers)
	}
	if c.Comm == nil {
		return fmt.Errorf("core: Comm function is nil")
	}
	if c.VertexCost <= 0 && c.Clock == nil {
		return fmt.Errorf("core: need VertexCost > 0 or a Clock")
	}
	if c.PhaseCost < 0 {
		return fmt.Errorf("core: PhaseCost %v must be non-negative", c.PhaseCost)
	}
	if err := validatePolicy(c.Policy, c.PhaseCost); err != nil {
		return err
	}
	return nil
}

// quantum allocates Qs(j). A planner under a Clock hands its policy the
// bounds it measured for its own host.
func (c *SearchConfig) quantum(in PhaseInput, m *HostMeter) time.Duration {
	if c.Clock != nil {
		in.Bounds = m.Bounds()
	}
	return c.Policy.Quantum(in)
}

// validatePolicy refuses a quantum that could never cover the phase cost:
// such a phase charges its whole quantum and schedules nothing.
func validatePolicy(p QuantumPolicy, phaseCost time.Duration) error {
	switch p := p.(type) {
	case nil:
		return fmt.Errorf("core: Policy is nil")
	case Fixed:
		if p.D <= phaseCost {
			return fmt.Errorf("core: fixed quantum %v must exceed the phase cost %v, or every phase schedules nothing", p.D, phaseCost)
		}
	case Adaptive:
		return p.Bounds.validate(phaseCost)
	case SlackOnly:
		return p.Bounds.validate(phaseCost)
	case LoadOnly:
		return p.Bounds.validate(phaseCost)
	}
	return nil
}

// searchPlanner runs one search per phase over a pluggable representation.
// RT-SADS and D-COLS are both instances of it; they differ only in the
// representation, reproducing the paper's controlled comparison.
type searchPlanner struct {
	cfg  SearchConfig
	rep  search.Representation
	name string
	// searcher, drained, prob and sched are per-instance scratch reused
	// across phases; a planner serves exactly one host loop, so PlanPhase
	// is deliberately not reentrant. A search does not retain the Problem
	// past return, and a phase's Schedule is read before the next phase
	// plans.
	searcher search.Searcher
	drained  []time.Duration
	prob     search.Problem
	sched    []search.Assignment
	// meter is the host's measured speed; it runs only under a Clock.
	meter HostMeter
}

// NewRTSADS returns the paper's algorithm: assignment-oriented search with
// the self-adjusting quantum and the load-balancing cost function.
func NewRTSADS(cfg SearchConfig) (Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &searchPlanner{cfg: cfg, rep: newAssignmentRep(cfg), name: "RT-SADS"}, nil
}

// NewDCOLS returns the sequence-oriented baseline (Distributed Continuous
// On-Line Scheduling). Per §5.2, it receives the same quantum formula as
// RT-SADS so that only the representation differs.
func NewDCOLS(cfg SearchConfig) (Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &searchPlanner{cfg: cfg, rep: newSequenceRep(cfg), name: "D-COLS"}, nil
}

// NewSearchPlanner returns a planner over an arbitrary representation —
// the hook ablation experiments use to test representation variants.
func NewSearchPlanner(cfg SearchConfig, rep search.Representation, name string) (Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, fmt.Errorf("core: representation is nil")
	}
	return &searchPlanner{cfg: cfg, rep: rep, name: name}, nil
}

// Name implements Planner.
func (s *searchPlanner) Name() string { return s.name }

// Priority implements Planner: the configured order (EDF by default).
func (s *searchPlanner) Priority() task.Priority { return s.cfg.Priority }

// PlanPhase implements Planner: allocate Qs(j), and search the
// representation's task space — the batch in scheduling-priority order —
// for a feasible partial schedule until a leaf, a dead-end, or quantum
// expiry.
func (s *searchPlanner) PlanPhase(in PhaseInput) (PhaseResult, error) {
	if len(in.Loads) != s.cfg.Workers {
		return PhaseResult{}, fmt.Errorf("core: phase has %d loads for %d workers", len(in.Loads), s.cfg.Workers)
	}
	quantum := s.cfg.quantum(in, &s.meter)
	// The fixed per-phase cost comes off the top of the quantum; phases
	// too short to cover it schedule nothing.
	budget := quantum - s.cfg.PhaseCost
	if budget <= 0 {
		return PhaseResult{Quantum: quantum, Used: quantum}, nil
	}
	// Workers also drain during the phase-cost prefix; pre-discount it so
	// the search's max(0, load - budget) equals max(0, Load_k(j-1) - Qs(j))
	// exactly (clamps compose: max(0, max(0, l-c) - b) == max(0, l-c-b)).
	if s.drained == nil {
		s.drained = make([]time.Duration, len(in.Loads))
	}
	drained := s.drained
	for k, l := range in.Loads {
		drained[k] = simtime.NonNeg(l - s.cfg.PhaseCost)
	}
	p := &s.prob
	*p = search.Problem{
		Now:           in.Now,
		Quantum:       budget,
		Tasks:         in.Batch,
		Workers:       s.cfg.Workers,
		BaseLoad:      drained,
		Comm:          s.cfg.Comm,
		VertexCost:    s.cfg.VertexCost,
		Clock:         s.cfg.Clock,
		Strategy:      s.cfg.Strategy,
		MaxBacktracks: s.cfg.MaxBacktracks,
		MaxDepth:      s.cfg.MaxDepth,
		Margin:        in.Margin,
	}
	// The feasibility test must still charge the full quantum: execution is
	// only guaranteed to start by in.Now + quantum. Shift the search's
	// phase-end reference by the phase cost.
	p.Now = in.Now.Add(s.cfg.PhaseCost)
	var setup time.Duration
	if s.cfg.Clock != nil {
		setup = s.cfg.Clock()
	}
	res, err := s.searcher.Run(p, s.rep)
	if err != nil {
		return PhaseResult{}, fmt.Errorf("core: %s search: %w", s.name, err)
	}
	if s.cfg.Clock != nil {
		// Under a Clock the search's Consumed is the clock at its stop.
		s.meter.Observe(setup, res.Stats.Consumed-setup, res.Stats.Generated)
	}
	stats := res.Stats
	stats.Consumed = minDur(s.cfg.PhaseCost+res.Stats.Consumed, quantum)
	s.sched = res.AppendSchedule(s.sched[:0])
	out := PhaseResult{
		Quantum:  quantum,
		Used:     stats.Consumed,
		Schedule: s.sched,
		Stats:    stats,
	}
	// The schedule has been copied out: recycle the result and its best path.
	res.Release()
	return out, nil
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
