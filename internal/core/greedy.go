package core

import (
	"fmt"
	"time"

	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// greedyPlanner is the classic list-scheduling baseline: take the batch in
// EDF order and put each task on the feasible worker with the earliest
// completion, with no backtracking. It shares the quantum accounting and
// the §4.3 feasibility test with the search planners, so its schedules
// carry the same deadline guarantee.
type greedyPlanner struct {
	cfg   SearchConfig
	meter HostMeter // the host's measured speed; runs only under a Clock
}

// NewEDFGreedy returns the greedy earliest-deadline-first baseline.
func NewEDFGreedy(cfg SearchConfig) (Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &greedyPlanner{cfg: cfg}, nil
}

// Name implements Planner.
func (g *greedyPlanner) Name() string { return "EDF-greedy" }

// Priority implements Planner.
func (g *greedyPlanner) Priority() task.Priority { return task.EDF }

// PlanPhase implements Planner.
func (g *greedyPlanner) PlanPhase(in PhaseInput) (PhaseResult, error) {
	if len(in.Loads) != g.cfg.Workers {
		return PhaseResult{}, fmt.Errorf("core: phase has %d loads for %d workers", len(in.Loads), g.cfg.Workers)
	}
	quantum := g.cfg.quantum(in, &g.meter)

	st := newGreedyState(g.cfg, in, quantum, &g.meter)
	for _, t := range in.Batch {
		if st.expired() {
			st.stats.Expired = true
			break
		}
		st.placeEarliestCompletion(t)
	}
	return st.result(quantum), nil
}

// myopicPlanner adapts the myopic algorithm of Ramamritham, Stankovic and
// Zhao (the lineage the paper cites for sequence-oriented schedulers [3][6])
// as a second greedy baseline: at each step only the Window most urgent
// unscheduled tasks are considered, and the (task, worker) pair minimising
// H = d_l + W_est × est is chosen, where est is the task's earliest start
// offset. No backtracking is performed.
type myopicPlanner struct {
	cfg       SearchConfig
	window    int
	estWeight float64
	meter     HostMeter // the host's measured speed; runs only under a Clock
	// pending is per-phase scratch; PlanPhase is not reentrant.
	pending []*task.Task
}

// NewMyopic returns the myopic baseline with the given feasibility-check
// window (a typical value is 7) and earliest-start weight.
func NewMyopic(cfg SearchConfig, window int, estWeight float64) (Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if window <= 0 {
		return nil, fmt.Errorf("core: myopic window %d must be positive", window)
	}
	if estWeight < 0 {
		return nil, fmt.Errorf("core: myopic weight %v must be non-negative", estWeight)
	}
	return &myopicPlanner{cfg: cfg, window: window, estWeight: estWeight}, nil
}

// Name implements Planner.
func (m *myopicPlanner) Name() string { return "myopic" }

// Priority implements Planner.
func (m *myopicPlanner) Priority() task.Priority { return task.EDF }

// PlanPhase implements Planner.
func (m *myopicPlanner) PlanPhase(in PhaseInput) (PhaseResult, error) {
	if len(in.Loads) != m.cfg.Workers {
		return PhaseResult{}, fmt.Errorf("core: phase has %d loads for %d workers", len(in.Loads), m.cfg.Workers)
	}
	quantum := m.cfg.quantum(in, &m.meter)

	st := newGreedyState(m.cfg, in, quantum, &m.meter)
	m.pending = append(m.pending[:0], in.Batch...)
	remaining := m.pending
	for len(remaining) > 0 {
		if st.expired() {
			st.stats.Expired = true
			break
		}
		window := remaining
		if len(window) > m.window {
			window = window[:m.window]
		}
		pick, proc, end, comm := st.bestByHeuristic(window, m.estWeight)
		if pick < 0 {
			// Nothing in the window is feasible anywhere: drop the most
			// urgent task from consideration and retry with the window
			// shifted — the myopic equivalent of skipping a hopeless task.
			remaining = remaining[1:]
			continue
		}
		st.commit(window[pick], proc, end, comm)
		remaining = append(remaining[:pick], remaining[pick+1:]...)
	}
	clear(m.pending) // the scratch does not pin tasks past the phase
	return st.result(quantum), nil
}

// greedyState is the shared mechanics of the non-search planners: load
// tracking, §4.3 feasibility, quantum charging and schedule assembly.
type greedyState struct {
	cfg      SearchConfig
	phaseEnd simtime.Instant
	margin   time.Duration
	quantum  time.Duration
	loads    []time.Duration
	consumed time.Duration
	sched    []search.Assignment
	stats    search.Stats
	// Under a Clock: the planner's meter and the clock when placement began.
	meter *HostMeter
	setup time.Duration
}

func newGreedyState(cfg SearchConfig, in PhaseInput, quantum time.Duration, meter *HostMeter) *greedyState {
	loads := make([]time.Duration, cfg.Workers)
	for k, l := range in.Loads {
		loads[k] = simtime.NonNeg(l - quantum)
	}
	st := &greedyState{
		cfg:      cfg,
		phaseEnd: in.Now.Add(quantum),
		margin:   in.Margin,
		quantum:  quantum,
		loads:    loads,
		consumed: cfg.PhaseCost, // fixed per-phase overhead, off the top
	}
	if cfg.Clock != nil {
		st.meter, st.setup = meter, cfg.Clock()
	}
	return st
}

// expired reports whether the quantum is spent: by the probes charged, or
// under a Clock by the wall clock, as the search's budget reads it.
func (st *greedyState) expired() bool {
	if st.cfg.Clock != nil {
		return st.cfg.PhaseCost+st.cfg.Clock() >= st.quantum
	}
	return st.consumed >= st.quantum
}

// charge accounts for n feasibility evaluations against the quantum.
func (st *greedyState) charge(n int) {
	st.stats.Generated += n
	st.consumed += time.Duration(n) * st.cfg.VertexCost
}

// feasible applies the §4.3 test (task.Fits) for task t on worker k and
// returns the resulting completion offset, meaningful only when ok.
func (st *greedyState) feasible(t *task.Task, k int) (end, comm time.Duration, ok bool) {
	comm = st.cfg.Comm(t, k)
	end = st.loads[k] + t.Proc + comm
	return end, comm, task.Fits(st.phaseEnd, end, st.margin, t.Deadline)
}

// placeEarliestCompletion assigns t to the feasible worker with the
// earliest completion, if any.
func (st *greedyState) placeEarliestCompletion(t *task.Task) {
	bestProc := -1
	var bestEnd, bestComm time.Duration
	st.charge(st.cfg.Workers)
	for k := 0; k < st.cfg.Workers; k++ {
		end, comm, ok := st.feasible(t, k)
		if !ok {
			continue
		}
		if bestProc < 0 || end < bestEnd {
			bestProc, bestEnd, bestComm = k, end, comm
		}
	}
	if bestProc >= 0 {
		st.commit(t, bestProc, bestEnd, bestComm)
	}
}

// bestByHeuristic scans the window×workers space for the assignment
// minimising H = d + estWeight × est.
func (st *greedyState) bestByHeuristic(window []*task.Task, estWeight float64) (pick, proc int, end, comm time.Duration) {
	pick = -1
	bestH := 0.0
	st.charge(len(window) * st.cfg.Workers)
	for i, t := range window {
		for k := 0; k < st.cfg.Workers; k++ {
			e, c, ok := st.feasible(t, k)
			if !ok {
				continue
			}
			start := e - t.Proc // earliest start offset on k
			h := float64(t.Deadline) + estWeight*float64(start)
			if pick < 0 || h < bestH {
				pick, proc, end, comm, bestH = i, k, e, c, h
			}
		}
	}
	return pick, proc, end, comm
}

// commit appends the assignment and advances the worker's load.
func (st *greedyState) commit(t *task.Task, proc int, end, comm time.Duration) {
	st.loads[proc] = end
	st.sched = append(st.sched, search.Assignment{Task: t, Proc: proc, Comm: comm, EndOffset: end})
}

// result packages the phase outcome. Under a Clock the phase has used what
// the clock says, and the meter books it.
func (st *greedyState) result(quantum time.Duration) PhaseResult {
	if st.cfg.Clock != nil {
		now := st.cfg.Clock()
		st.consumed = st.cfg.PhaseCost + now
		st.meter.Observe(st.setup, now-st.setup, st.stats.Generated)
	}
	st.stats.Consumed = minDur(st.consumed, quantum)
	return PhaseResult{
		Quantum:  quantum,
		Used:     st.stats.Consumed,
		Schedule: st.sched,
		Stats:    st.stats,
	}
}
