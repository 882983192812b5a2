package represent

import (
	"time"

	"rtsads/internal/search"
	"rtsads/internal/task"
)

// Sequence is the sequence-oriented representation (§3, Figure 1): at each
// tree level a processor is selected in round-robin order, and the branches
// decide which of the remaining tasks to run next on it. It is the direct
// extension of uni-processor scheduling the paper attributes to prior work
// [3][6] and to D-COLS [2].
//
// Structurally, backtracking at level l can only re-sequence tasks on the
// processors of levels <= l, and a level whose processor has no feasible
// remaining task is a dead branch: the representation cannot route around a
// stuck processor. When the quantum bound truncates the search at a shallow
// depth, only the first few round-robin processors receive tasks — the
// scalability pathology the paper's experiments demonstrate.
type Sequence struct {
	// Breadth caps the number of feasible successors kept per level (0
	// means no cap). Dynamic sequence-oriented schedulers prune breadth to
	// stay responsive; candidates are examined in deadline order, so the
	// cap keeps the most urgent ones.
	Breadth int
	// AllowIdle, when set, adds a lowest-priority successor that leaves the
	// level's processor without a task. The strict representation (the
	// default) does not have this escape hatch; it exists for ablations
	// that quantify how much of D-COLS's gap is due to dead-ends.
	AllowIdle bool
	// LeastLoaded selects each level's processor as the least-loaded one
	// instead of round-robin — the "heuristic function ... applied to
	// affect this order" the paper mentions for Figure 1's processor
	// selection. The structural limitation remains: the level still
	// commits to a single processor before choosing a task.
	LeastLoaded bool
	// Cost overrides the partial-schedule cost model; nil uses the paper's
	// §4.4 load-balancing cost CE = max_k ce_k (search.MaxCost).
	Cost search.CostModel
}

// cost returns the configured cost model (default: §4.4's max).
func (s *Sequence) cost() search.CostModel {
	if s.Cost != nil {
		return s.Cost
	}
	return search.MaxCost{}
}

// NewSequence returns the strict sequence-oriented representation with a
// breadth cap matching the assignment-oriented branching factor.
func NewSequence(workers int) *Sequence {
	return &Sequence{Breadth: workers}
}

// Name implements search.Representation.
func (s *Sequence) Name() string { return "sequence-oriented" }

// Root implements search.Representation.
func (s *Sequence) Root(p *search.Problem) *search.Vertex {
	return search.NewRoot(p, s.cost())
}

// IsLeaf implements search.Representation: all batch tasks are scheduled.
func (s *Sequence) IsLeaf(p *search.Problem, v *search.Vertex) bool {
	return v.Depth >= len(p.Tasks)
}

// Expand implements search.Representation. The level's processor is
// Cursor mod Workers; unscheduled tasks (those not in the path's used set)
// are examined in the batch's priority order (EDF) and each feasibility
// test is charged as one generated vertex. A task whose p_l on top of the
// load overflows its room fits for no c_lk >= 0: it is ruled out unprobed.
func (s *Sequence) Expand(p *search.Problem, v *search.Vertex, st *search.PathState) ([]*search.Vertex, int) {
	proc := v.Cursor % p.Workers
	if s.LeastLoaded {
		proc = leastLoadedProc(st.Loads)
	}
	model := s.cost()
	load := st.Loads[proc]
	generated := 0
	succs := st.Succs()
	for i, t := range p.Tasks {
		if st.Used.Has(i) {
			continue
		}
		generated++
		room := p.Room(t)
		if !task.InRoom(t.Proc, room) || load > room-t.Proc { // room-t.Proc >= 0: it cannot wrap
			continue
		}
		comm := p.Comm(t, proc)
		end := load + t.Proc + comm
		if !task.InRoom(end, room) {
			continue
		}
		sv := st.NewVertex()
		sv.Parent = v
		sv.Assign = search.Assignment{Task: t, TaskIndex: i, Proc: proc, Comm: comm, EndOffset: end}
		sv.IsAssignment = true
		sv.Depth = v.Depth + 1
		sv.Cursor = v.Cursor + 1
		sv.CE = model.Extend(v.CE, load, end)
		succs = append(succs, sv)
		if s.Breadth > 0 && len(succs) >= s.Breadth {
			break
		}
	}
	if s.AllowIdle && s.canIdle(p, v) {
		// Leave the processor idle this round, ranked after every real
		// assignment. The skip vertex adds no assignment, so it carries no
		// delta: the engine's Descend treats it as a no-op.
		sv := st.NewVertex()
		sv.Parent = v
		sv.Depth = v.Depth
		sv.Cursor = v.Cursor + 1
		sv.CE = v.CE
		succs = append(succs, sv)
		generated++
	}
	if len(succs) == 0 {
		st.PutSuccs(succs)
		return nil, generated
	}
	return succs, generated
}

// leastLoadedProc returns the worker with the smallest completion offset,
// breaking ties by index.
func leastLoadedProc(loads []time.Duration) int {
	best := 0
	for k, l := range loads {
		if l < loads[best] {
			best = k
		}
	}
	return best
}

// canIdle bounds idle levels: after skipping every processor once in a row
// the schedule cannot make progress, so further skips are pointless.
func (s *Sequence) canIdle(p *search.Problem, v *search.Vertex) bool {
	skips := 0
	for cur := v; cur != nil && !cur.IsAssignment && cur.Parent != nil; cur = cur.Parent {
		skips++
		if skips >= p.Workers {
			return false
		}
	}
	return true
}
