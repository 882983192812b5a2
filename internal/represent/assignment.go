// Package represent provides the two task-space representations the paper
// compares: the assignment-oriented representation used by RT-SADS (§3,
// Figure 2) and the sequence-oriented representation used by D-COLS (§3,
// Figure 1). Both plug into the generic quantum-bounded search engine in
// package search; they differ only in the topology of the task space and
// therefore in what backtracking can undo — the paper's central variable.
//
// Both representations speak the engine's delta-vertex API: successors
// carry only their one changed (proc, endOffset) pair, read the path's
// loads from the engine's PathState scratch, and derive CE incrementally
// through a search.CostModel. Vertices and the successor slice come from
// the PathState they are handed (the running Searcher's buffers), and a
// depth-first search hands back every vertex but its best path, which
// Result.Release returns: a phase's whole search allocates nothing in
// steady state.
package represent

import (
	"slices"
	"time"

	"rtsads/internal/search"
	"rtsads/internal/task"
)

// Assignment is the assignment-oriented representation: at each tree level
// the next task (in the batch's priority order) is selected, and the
// branches decide which processor it is assigned to. All processors are
// candidates at every level, so backtracking can re-route any task to any
// processor and greedy load balancing across the whole machine is possible.
type Assignment struct {
	// SkipInfeasible makes a level fall through to the next task when the
	// current task has no feasible processor, leaving the task for the next
	// batch instead of dead-ending the branch. This is the behaviour
	// RT-SADS's batch semantics imply (unscheduled tasks merge into
	// Batch(j+1)); disable it only for ablations.
	SkipInfeasible bool
	// Breadth caps the number of successors kept per expansion (0 = keep
	// every feasible processor).
	Breadth int
	// Cost overrides the partial-schedule cost model; nil uses the paper's
	// §4.4 load-balancing cost CE = max_k ce_k (search.MaxCost).
	Cost search.CostModel
}

// NewAssignment returns the representation with the paper's behaviour.
func NewAssignment() *Assignment {
	return &Assignment{SkipInfeasible: true}
}

// Name implements search.Representation.
func (a *Assignment) Name() string { return "assignment-oriented" }

// cost returns the configured cost model (default: §4.4's max).
func (a *Assignment) cost() search.CostModel {
	if a.Cost != nil {
		return a.Cost
	}
	return search.MaxCost{}
}

// Root implements search.Representation. The root is the empty schedule:
// worker completion offsets start at max(0, Load_k(j-1) - Qs(j)) (§4.4).
func (a *Assignment) Root(p *search.Problem) *search.Vertex {
	return search.NewRoot(p, a.cost())
}

// IsLeaf implements search.Representation: every batch task has been
// considered (assigned or skipped).
func (a *Assignment) IsLeaf(p *search.Problem, v *search.Vertex) bool {
	return v.Cursor >= len(p.Tasks)
}

// Expand implements search.Representation. It finds the first task at or
// after the vertex's cursor with at least one feasible processor and
// returns one successor per feasible processor, ordered by the cost
// function (smallest resulting CE, then earliest completion).
//
// Each task is tested against its room (search.Problem.Room), the largest
// completion offset that meets its deadline. Quantum charging: probing a
// task's processors generates Workers candidate vertices, feasible or not.
// A task that is hopeless on every processor regardless of load (p_l
// outside its room) is rejected with a single comparison and charges one
// generated vertex — not Workers. A task whose p_l on the least-loaded
// processor already overflows its room fits nowhere, since c_lk >= 0 and
// every other load is at least as large: it is ruled out without a probe
// but still charges Workers, the candidates the probes would have
// generated, so the quantum, Stats and every schedule are the probes'.
// Both tests read the task's latest start against a search.Problem.Cut;
// only a task that passes them is read itself.
func (a *Assignment) Expand(p *search.Problem, v *search.Vertex, st *search.PathState) ([]*search.Vertex, int) {
	generated := 0
	model := a.cost()
	minLoad := slices.Min(st.Loads)
	late, hopeless, fits := st.Late, p.Cut(0), p.Cut(minLoad)
	succs := st.Succs()
	for i := v.Cursor; i < len(p.Tasks); i++ {
		switch {
		case late[i] < hopeless:
			generated++
		case late[i] < fits:
			generated += p.Workers
		default:
			t := p.Tasks[i]
			room := p.Room(t)
			if !task.InRoom(t.Proc, room) { // Hopeless: a Never key passes both cuts
				generated++
				break // out of the switch, on to SkipInfeasible
			}
			generated += p.Workers
			if minLoad <= room-t.Proc { // room-t.Proc >= 0: it cannot wrap
				succs = appendTaskSuccessors(p, v, st, t, i, room, model, succs)
			}
			if len(succs) > 0 {
				sortSuccessors(succs)
				if a.Breadth > 0 && len(succs) > a.Breadth {
					for _, pruned := range succs[a.Breadth:] {
						st.FreeVertex(pruned)
					}
					succs = succs[:a.Breadth]
				}
				return succs, generated
			}
		}
		if !a.SkipInfeasible {
			break
		}
	}
	st.PutSuccs(succs)
	return nil, generated
}

// appendTaskSuccessors appends v's feasible successors that assign t
// (batch index ti, deadline room room) to succs, stamping each with cursor
// ti+1.
func appendTaskSuccessors(p *search.Problem, v *search.Vertex, st *search.PathState,
	t *task.Task, ti int, room time.Duration, model search.CostModel, succs []*search.Vertex) []*search.Vertex {
	for k, load := range st.Loads {
		comm := p.Comm(t, k)
		end := load + t.Proc + comm
		if !task.InRoom(end, room) {
			continue
		}
		sv := st.NewVertex()
		sv.Parent = v
		sv.Assign = search.Assignment{Task: t, TaskIndex: ti, Proc: k, Comm: comm, EndOffset: end}
		sv.IsAssignment = true
		sv.Depth = v.Depth + 1
		sv.Cursor = ti + 1
		sv.CE = model.Extend(v.CE, load, end)
		succs = append(succs, sv)
	}
	return succs
}

// sortSuccessors orders sibling vertices best-first: by the load-balancing
// cost CE, then by the assigned task's completion offset (which prefers
// affine processors, since they avoid the communication cost), then by
// processor index for determinism. Sibling sets are small (at most the
// machine size), so a closure-free insertion sort beats sort.Slice's
// interface dispatch on the hot path.
func sortSuccessors(succs []*search.Vertex) {
	for i := 1; i < len(succs); i++ {
		v := succs[i]
		j := i - 1
		for j >= 0 && lessVertex(v, succs[j]) {
			succs[j+1] = succs[j]
			j--
		}
		succs[j+1] = v
	}
}

// lessVertex is sortSuccessors' ordering predicate.
func lessVertex(a, b *search.Vertex) bool {
	if a.CE != b.CE {
		return a.CE < b.CE
	}
	if a.Assign.EndOffset != b.Assign.EndOffset {
		return a.Assign.EndOffset < b.Assign.EndOffset
	}
	return a.Assign.Proc < b.Assign.Proc
}
