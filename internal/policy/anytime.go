package policy

import (
	"fmt"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/represent"
	"rtsads/internal/rng"
	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// anytimePlanner is the RT-SADS+GA policy: a genetic optimizer and the
// paper's DFS cooperating inside one quantum, each covering the other's
// weakness. The phase budget splits three ways:
//
//  1. Stage A — the GA spends budget/ShareDen evolving permutation-encoded
//     task orders, keeping the best COMPLETE-or-partial schedule as a
//     monotone incumbent.
//  2. The DFS runs on the remaining budget. When the incumbent is complete
//     the DFS inherits its cost as search.Problem.BoundCE, pruning every
//     subtree that can no longer beat it — the GA's quick global estimate
//     buys the systematic search a head start.
//  3. Stage B — whatever budget the DFS returns unused (leaf or dead-end
//     before expiry) goes back to the GA, now with the DFS's own order
//     injected into the population for recombination.
//
// The winner by (tasks scheduled, then cost CE) — the engine's better()
// order — becomes the phase schedule. Both contenders are validated by the
// same §4.3 feasibility test against the same phase end, so the deadline
// guarantee is identical to RT-SADS's.
//
// Everything is charged in the same virtual currency (VertexCost per
// feasibility evaluation), so Used never exceeds the quantum and the
// planner remains a deterministic function of its inputs: all randomness
// flows from one rng.Source seeded at construction, persisting across
// phases. In wall-clock mode (SearchConfig.Clock set) the DFS measures
// elapsed time from the PHASE start, not from its own start, so it sees
// conservatively less budget after the GA stage — it can undershoot the
// quantum, never overrun it.
type anytimePlanner struct {
	cfg core.SearchConfig
	ga  GAConfig
	rep search.Representation
	src *rng.Source

	// pressure arms the pre-search GA stage: it is set whenever the last
	// phase failed to schedule its whole batch. In light load the DFS
	// reaches a leaf on its own and stage A would be pure overhead — Used
	// advances the machine's clock, so idle optimization costs real time;
	// under pressure, order diversity is exactly what a struggling DFS
	// lacks. Deterministic: a pure function of the phase sequence.
	pressure bool

	// Per-phase scratch reused across phases; a planner serves exactly one
	// host loop, so PlanPhase is deliberately not reentrant.
	drained   []time.Duration
	gaLoads   []time.Duration
	prob      search.Problem
	injectBuf []int
}

// NewAnytime returns the RT-SADS+GA anytime planner.
func NewAnytime(cfg core.SearchConfig, ga GAConfig) (core.Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ga = ga.withDefaults()
	if err := ga.Validate(); err != nil {
		return nil, err
	}
	rep := represent.NewAssignment()
	if cfg.SumCost {
		rep.Cost = search.SumCost{}
	}
	return &anytimePlanner{cfg: cfg, ga: ga, rep: rep, src: rng.New(ga.Seed)}, nil
}

// Name implements core.Planner.
func (a *anytimePlanner) Name() string { return "RT-SADS+GA" }

// PlanPhase implements core.Planner.
func (a *anytimePlanner) PlanPhase(in core.PhaseInput) (core.PhaseResult, error) {
	if len(in.Loads) != a.cfg.Workers {
		return core.PhaseResult{}, fmt.Errorf("policy: phase has %d loads for %d workers", len(in.Loads), a.cfg.Workers)
	}
	quantum := a.cfg.Policy.Quantum(in)
	budget := quantum - a.cfg.PhaseCost
	if budget <= 0 {
		return core.PhaseResult{Quantum: quantum, Used: quantum}, nil
	}
	if a.cfg.Priority == core.LLF {
		task.SortLLF(in.Batch)
	} else {
		task.SortEDF(in.Batch)
	}

	// Both contenders work in the phase-end frame: per-worker completion
	// offsets relative to t_e = Now + quantum, where every worker has
	// drained the full quantum. That makes GA fitness CE and search vertex
	// CE the same number, so the incumbent bound is sound.
	phaseEnd := in.Now.Add(quantum)
	if a.gaLoads == nil {
		a.gaLoads = make([]time.Duration, len(in.Loads))
	}
	for k, l := range in.Loads {
		a.gaLoads[k] = simtime.NonNeg(l - quantum)
	}
	allowance := budget / time.Duration(a.ga.ShareDen)
	ga := newGAState(a.ga, a.src, a.cfg.Workers, a.cfg.SumCost,
		a.cfg.Comm, a.cfg.VertexCost, a.cfg.Clock, phaseEnd, a.gaLoads, in.Batch, allowance)

	// Stage A: evolve on the budget's GA share, when armed.
	var aUsed time.Duration
	if a.pressure {
		aUsed = ga.evolve(allowance)
	}

	// The DFS takes over the rest. Its frame shifts by the GA's spend the
	// same way searchPlanner shifts by PhaseCost: Now advances, loads
	// pre-discount, quantum shrinks — so NonNeg(BaseLoad − Quantum)
	// reproduces NonNeg(load − quantum), the frame above, exactly
	// (clamps compose: max(0, max(0, l−c) − b) == max(0, l−c−b)).
	dfsBudget := budget - aUsed
	var stats search.Stats
	var dfsSched []search.Assignment
	var dfsCE time.Duration
	if dfsBudget > 0 {
		spent := a.cfg.PhaseCost + aUsed
		if a.drained == nil {
			a.drained = make([]time.Duration, len(in.Loads))
		}
		for k, l := range in.Loads {
			a.drained[k] = simtime.NonNeg(l - spent)
		}
		bound := a.cfg.IncumbentCE
		if ga.complete() && (bound == 0 || ga.best.ce < bound) {
			bound = ga.best.ce
		}
		p := &a.prob
		*p = search.Problem{
			Now:           in.Now.Add(spent),
			Quantum:       dfsBudget,
			Tasks:         in.Batch,
			Workers:       a.cfg.Workers,
			BaseLoad:      a.drained,
			Comm:          a.cfg.Comm,
			VertexCost:    a.cfg.VertexCost,
			Clock:         a.cfg.Clock,
			Strategy:      a.cfg.Strategy,
			MaxBacktracks: a.cfg.MaxBacktracks,
			MaxDepth:      a.cfg.MaxDepth,
			BoundCE:       bound,
		}
		res, err := search.Run(p, a.rep)
		if err != nil {
			return core.PhaseResult{}, fmt.Errorf("policy: RT-SADS+GA search: %w", err)
		}
		stats = res.Stats
		dfsSched = res.Schedule()
		if res.Best != nil {
			dfsCE = res.Best.CE
		}
		res.Release()
	}

	// Stage B: the DFS's leftover (leaf or dead-end before expiry) goes
	// back to the GA, seeded with the DFS's own order. Polishing is only
	// worth paying for when the DFS came back short of the GA's reach —
	// Used advances the machine's clock, so burning leftover the winner
	// rule can never cash in would trade real time for nothing.
	var bUsed time.Duration
	if leftover := dfsBudget - stats.Consumed; leftover > 0 && ga.k >= 2 && len(dfsSched) < ga.k {
		if len(dfsSched) > 0 {
			ga.inject(a.dfsPerm(ga.k, dfsSched))
		}
		bUsed = ga.evolve(leftover)
	}

	// The winner by the engine's better() order: deeper first, then
	// cheaper. A BoundCE-pruned DFS can come back shallower than the
	// incumbent — this comparison is the contract's required fallback.
	sched := dfsSched
	if ga.best.evaluated && (ga.best.depth > len(dfsSched) ||
		(ga.best.depth == len(dfsSched) && ga.best.ce < dfsCE)) {
		sched = ga.bestSched
	}

	a.pressure = len(sched) < len(in.Batch)

	used := a.cfg.PhaseCost + aUsed + stats.Consumed + bUsed
	if used > quantum {
		used = quantum
	}
	stats.Generated += ga.generated
	stats.Consumed = used
	if len(sched) == len(in.Batch) {
		stats.Leaf = true
	}
	return core.PhaseResult{
		Quantum:  quantum,
		Used:     used,
		Schedule: sched,
		Stats:    stats,
	}, nil
}

// dfsPerm converts the DFS schedule into a GA permutation: the prefix
// tasks the DFS placed, in its placement order, then the rest in batch
// order — the individual Stage B injects for recombination.
func (a *anytimePlanner) dfsPerm(k int, sched []search.Assignment) []int {
	if cap(a.injectBuf) < k {
		a.injectBuf = make([]int, 0, k)
	}
	perm := a.injectBuf[:0]
	seen := make([]bool, k)
	for _, s := range sched {
		if s.TaskIndex < k && !seen[s.TaskIndex] {
			seen[s.TaskIndex] = true
			perm = append(perm, s.TaskIndex)
		}
	}
	for i := 0; i < k; i++ {
		if !seen[i] {
			perm = append(perm, i)
		}
	}
	a.injectBuf = perm
	// inject keeps the slice; hand over a copy so the scratch stays ours.
	return append([]int(nil), perm...)
}
