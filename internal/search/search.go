// Package search implements the paper's §3 scheduling model: scheduling as
// an incremental depth-first search for a feasible schedule in a tree-shaped
// task space G, where vertices are task-to-processor assignments, a path
// from the root is a feasible partial schedule, and the search is bounded by
// an explicitly allocated scheduling-time quantum.
//
// The engine is representation-agnostic: the assignment-oriented
// representation used by RT-SADS and the sequence-oriented representation
// used by D-COLS (package represent) plug in through the Representation
// interface, so the two algorithms differ in nothing but the structure of G
// — exactly the controlled comparison the paper performs.
//
// Vertices are deltas, not snapshots: a vertex records only the one
// (processor, end-offset) pair its assignment changed, and the engine
// maintains the full per-worker load array incrementally in a reusable
// PathState as the search walks the tree. On the depth-first fast path a
// move costs O(1); a backtrack re-derives the state in O(depth). Because
// per-worker loads only grow along a path within a phase, the §4.4 cost
// CE = max_k ce_k is maintained in O(1) per vertex as max(parent.CE, end)
// instead of an O(P) rescan.
//
// Every buffer a search uses belongs to the Searcher that runs it: a planner
// keeps one next to its other per-phase scratch. Every vertex born in one of
// its runs, the root included, comes from its LIFO free list, and every
// successor slice is its one scratch slice, both handed out through the
// PathState the representation is handed. A depth-first search returns to
// the free list every vertex it leaves that does not lead to the best
// schedule, and Result.Release returns that path, so in steady state a whole
// search — not just each expansion — allocates nothing. There is no second
// recycling path: the package-level Run searches on a fresh Searcher.
package search

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// Assignment is one task-to-processor assignment (T_l -> P_k), the paper's
// vertex label. It doubles as the vertex's delta: applying it to the
// parent's load array (Loads[Proc] = EndOffset) yields the vertex's loads.
type Assignment struct {
	Task *task.Task
	// TaskIndex is the task's index within Problem.Tasks. The engine uses
	// it to maintain the path's used-task set incrementally;
	// representations must fill it for every assignment vertex.
	TaskIndex int
	Proc      int
	// Comm is c_lk, the communication cost of running the task on Proc.
	Comm time.Duration
	// EndOffset is se_lk: the scheduled end time of the task relative to
	// the end of the scheduling phase (t_e), assuming every earlier task on
	// the same processor runs back to back. The feasibility test guarantees
	// phaseEnd + EndOffset <= deadline.
	EndOffset time.Duration
}

// Vertex is a node of the task space G. A vertex represents the partial
// schedule formed by the assignments on the path from the root to it, but
// stores only its own delta — the engine reconstructs per-worker loads into
// a PathState scratch array instead of copying them per vertex.
type Vertex struct {
	Parent *Vertex
	Assign Assignment // zero-valued on the root and on skip vertices
	// IsAssignment distinguishes real task-to-processor assignments from
	// structural vertices (the root, and "skip" vertices the
	// sequence-oriented representation emits for idle levels).
	IsAssignment bool
	// step is the engine step at which the vertex became current (the root
	// is step 0). It sits in IsAssignment's padding, so it costs no space.
	step uint32
	// Depth is the number of assignments on the path (skips excluded).
	Depth int
	// Cursor is representation-private: the next task index for the
	// assignment-oriented representation, the level number for the
	// sequence-oriented one.
	Cursor int
	// CE is the paper's cost function: the cost of the partial schedule
	// (default max_k ce_k, the total execution time). Lower is better
	// (load balancing). It is computed incrementally from the parent's CE
	// by a CostModel.
	CE time.Duration
}

// FreeVertex zeroes v and recycles nothing. It is kept for bench/rungs.go
// until ROADMAP item 1 moves that rung onto a kept Searcher; everything else
// frees through PathState.FreeVertex.
func FreeVertex(v *Vertex) { *v = Vertex{} }

// PutSuccs clears s and recycles nothing. It is kept for bench/rungs.go
// until ROADMAP item 1 moves that rung onto a kept Searcher; everything else
// hands slices back through PathState.PutSuccs.
func PutSuccs(s []*Vertex) { clear(s) }

// newVertex pops a zeroed vertex off s's free list.
func (s *Searcher) newVertex() *Vertex {
	n := len(s.free)
	if n == 0 {
		return new(Vertex)
	}
	v := s.free[n-1]
	s.free = s.free[:n-1]
	return v
}

// freeVertex zeroes v and pushes it onto s's free list, where the next birth
// takes it. No live reference may remain — in-engine that holds for
// candidates that were never expanded, for breadth-pruned successors, and
// for path vertices whose subtrees are exhausted and hold no part of
// Result.Best.
func (s *Searcher) freeVertex(v *Vertex) {
	*v = Vertex{}
	s.free = append(s.free, v)
}

// Problem is the input to one scheduling phase's search.
type Problem struct {
	// Now is t_s, the start time of the scheduling phase.
	Now simtime.Instant
	// Quantum is Qs(j), the scheduling time allocated to this phase. The
	// search's feasibility test charges the entire quantum: a schedule is
	// feasible only if its tasks meet their deadlines when execution starts
	// at Now+Quantum (§4.3).
	Quantum time.Duration
	// Tasks is the batch, pre-sorted by scheduling priority (the planners
	// use EDF order).
	Tasks []*task.Task
	// Workers is the number of working processors.
	Workers int
	// BaseLoad is Load_k(j-1): each worker's outstanding execution time at
	// Now, including the task it is currently running.
	BaseLoad []time.Duration
	// Comm returns c_lk for a task on a worker. It must never be negative:
	// a completion offset is then at least the worker's load plus p_l,
	// which is what lets Hopeless and a representation's least-load bound
	// rule a task out without probing every worker.
	Comm func(t *task.Task, proc int) time.Duration
	// VertexCost is the scheduling time charged for generating (allocating
	// and evaluating) one vertex, including vertices that fail the
	// feasibility test. It is the knob that converts search effort into
	// scheduling overhead.
	VertexCost time.Duration
	// Clock, when non-nil, reports wall-clock time elapsed since the phase
	// started; it overrides the virtual VertexCost accounting for live
	// (non-simulated) deployments.
	Clock func() time.Duration
	// Strategy selects how the candidate list is ordered. The zero value
	// is DFS, the paper's strategy.
	Strategy Strategy
	// MaxBacktracks stops the search after this many backtracks — the
	// "limited backtracking" pruning heuristic of §3. Zero means
	// unlimited.
	MaxBacktracks int
	// MaxDepth stops the search once a vertex with this many assignments
	// is reached — the "limit on the depth of search" pruning heuristic of
	// §3. Zero means unlimited.
	MaxDepth int
	// Margin is the planning guard band every feasibility test keeps: a
	// schedule is feasible only if each task finishes Margin before its
	// deadline. Zero is the paper's test.
	Margin time.Duration
	// Late, when set, holds each task's task.LateKey, aligned with Tasks: a
	// purged batch's task.Batch.LatestStarts. Nil derives them (PathState).
	Late []simtime.Instant

	// phaseEnd caches Now.Add(Quantum), the term every feasibility test
	// adds; Run computes it once before the engine starts.
	phaseEnd    simtime.Instant
	phaseEndSet bool
	// src is the Searcher running the problem, whose free list NewRoot
	// draws from; nil outside a run.
	src *Searcher
}

// prepare caches the problem's derived terms. Run calls it once before
// searching.
func (p *Problem) prepare() {
	p.phaseEnd = p.Now.Add(p.Quantum)
	p.phaseEndSet = true
}

// Strategy is the exploration order of the task space.
type Strategy int

const (
	// DFS is the paper's depth-first strategy: a vertex's successors are
	// explored before its siblings, so the search commits to a partial
	// schedule and extends it (§3).
	DFS Strategy = iota
	// BestFirst always expands the candidate with the smallest cost CE
	// (ties broken by greater depth), trading the depth-first dive for
	// global cost ordering.
	BestFirst
)

// String returns the strategy's name.
func (s Strategy) String() string {
	switch s {
	case DFS:
		return "dfs"
	case BestFirst:
		return "best-first"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Validate reports whether the problem is well-formed.
func (p *Problem) Validate() error {
	if p.Workers <= 0 {
		return fmt.Errorf("search: Workers %d must be positive", p.Workers)
	}
	if len(p.BaseLoad) != p.Workers {
		return fmt.Errorf("search: BaseLoad has %d entries for %d workers", len(p.BaseLoad), p.Workers)
	}
	if p.Quantum < 0 {
		return fmt.Errorf("search: negative quantum %v", p.Quantum)
	}
	if p.Comm == nil {
		return fmt.Errorf("search: Comm function is nil")
	}
	if p.VertexCost <= 0 && p.Clock == nil {
		return fmt.Errorf("search: need VertexCost > 0 or a Clock")
	}
	if p.Late != nil && len(p.Late) != len(p.Tasks) {
		return fmt.Errorf("search: Late has %d entries for %d tasks", len(p.Late), len(p.Tasks))
	}
	return nil
}

// PhaseEnd returns t_e = t_s + Qs(j), the instant execution of the phase's
// schedule is guaranteed to have started by.
func (p *Problem) PhaseEnd() simtime.Instant {
	if p.phaseEndSet {
		return p.phaseEnd
	}
	return p.Now.Add(p.Quantum)
}

// Room returns the largest completion offset se_lk = loadK + p_l + c_lk
// that still meets t's deadline this phase, PhaseEnd + se_lk + Margin <=
// d_l (task.Room); negative when none does. A representation that probes
// one task on many workers computes it once and tests each offset against
// it with task.InRoom.
func (p *Problem) Room(t *task.Task) time.Duration {
	return task.Room(p.PhaseEnd(), p.Margin, t.Deadline)
}

// Cut returns PhaseEnd + Margin + load, saturated at Never: a finite
// latest start (PathState.Late, d - p exactly) is at least Cut(load) exactly
// when 0 <= p_l and load + p_l <= Room, and at least Cut(0) exactly when
// the task is not Hopeless. A Never entry passes every cut, as does every
// entry when no exact cut exists (a negative phase end or load): the task
// is then tested itself.
func (p *Problem) Cut(load time.Duration) simtime.Instant {
	end := p.PhaseEnd()
	switch {
	case end < 0 || load < 0:
		return math.MinInt64
	case p.Margin < 0:
		return simtime.Never // task.Room: nothing fits
	}
	return end.Add(p.Margin).Add(load)
}

// Feasible applies the paper's feasibility test (§4.3, Figure 4) to
// extending a partial schedule whose worker-k completion offset is loadK
// with task t on worker k: t_c + RQs(j) + se_lk <= d_l, which — since
// t_c + RQs(j) is always the phase end — reduces to
// 0 <= loadK + p_l + c_lk <= Room(t). It returns the new completion offset,
// meaningful only when the extension is feasible. Saturated loads (a
// machine reporting a crashed worker as permanently busy) are always
// infeasible.
func (p *Problem) Feasible(t *task.Task, loadK, comm time.Duration) (time.Duration, bool) {
	end := loadK + t.Proc + comm
	return end, task.InRoom(end, p.Room(t))
}

// Hopeless reports that t cannot meet its deadline on any worker this
// phase, even an idle one with affinity: every completion offset is at
// least p_l, since loads and c_lk are never negative, so p_l outside
// Room(t) stands in for P per-processor probes. Representations use it to
// charge one generated candidate — not Workers — for tasks rejected
// without probing any processor.
func (p *Problem) Hopeless(t *task.Task) bool {
	return !task.InRoom(t.Proc, p.Room(t))
}

// RootLoads fills dst with the root vertex's per-worker completion offsets
// max(0, Load_k(j-1) - Qs(j)) (§4.4) and returns it; a nil or short dst is
// reallocated.
func RootLoads(p *Problem, dst []time.Duration) []time.Duration {
	if cap(dst) < p.Workers {
		dst = make([]time.Duration, p.Workers)
	}
	dst = dst[:p.Workers]
	for k := range dst {
		dst[k] = 0
	}
	for k, l := range p.BaseLoad {
		if rem := l - p.Quantum; rem > 0 {
			dst[k] = rem
		}
	}
	return dst
}

// NewRoot builds the root vertex — the empty schedule — costed by model.
// Inside a run it comes from the running Searcher's free list and is costed
// from its path state, which the run has positioned at the root; outside a
// run it is a plain vertex.
func NewRoot(p *Problem, model CostModel) *Vertex {
	if p.src == nil {
		return &Vertex{CE: model.FromLoads(RootLoads(p, nil))}
	}
	v := p.src.newVertex()
	v.CE = model.FromLoads(p.src.st.Loads)
	return v
}

// CostModel computes the partial-schedule cost CE incrementally: FromLoads
// seeds the root from a materialized load array, Extend derives a child's
// cost in O(1) from the parent's cost and the single load the child's
// assignment changed. Models may rely on loads being monotone
// non-decreasing along a path (true within a phase: assignments only add
// work).
type CostModel interface {
	// FromLoads computes the cost of a full load array (used at the root).
	FromLoads(loads []time.Duration) time.Duration
	// Extend computes a child's cost from the parent's cost and the one
	// changed worker load (oldLoad -> newLoad, newLoad >= oldLoad).
	Extend(parentCE, oldLoad, newLoad time.Duration) time.Duration
}

// Unreachable is the load of a worker no schedule can use — a dead one: far
// beyond any deadline, yet small enough that adding task durations cannot
// overflow. The cost models leave such a worker (or one that never frees)
// out of CE, so CE stays the live workers' real load: counted in, it makes
// every vertex's CE the same constant, and SumCost over 128 dead workers
// would overflow.
const Unreachable = time.Duration(1) << 56 // ~2.3 years

// saturated reports a load of an unusable worker, discounted by a phase or
// not.
func saturated(l time.Duration) bool { return l >= Unreachable/2 }

// MaxCost is the paper's §4.4 load-balancing cost CE = max_k ce_k. Because
// loads are monotone along a path, the child's max is simply
// max(parent.CE, newLoad) — O(1) instead of an O(P) rescan.
type MaxCost struct{}

// FromLoads implements CostModel.
func (MaxCost) FromLoads(loads []time.Duration) time.Duration {
	var m time.Duration
	for _, l := range loads {
		if l > m && !saturated(l) {
			m = l
		}
	}
	return m
}

// Extend implements CostModel.
func (MaxCost) Extend(parentCE, _, newLoad time.Duration) time.Duration {
	if newLoad > parentCE {
		return newLoad
	}
	return parentCE
}

// SumCost is the total-completion alternative Σ_k ce_k — a design-choice
// ablation against the paper's max.
type SumCost struct{}

// FromLoads implements CostModel.
func (SumCost) FromLoads(loads []time.Duration) time.Duration {
	var sum time.Duration
	for _, l := range loads {
		if !saturated(l) {
			sum += l
		}
	}
	return sum
}

// Extend implements CostModel.
func (SumCost) Extend(parentCE, oldLoad, newLoad time.Duration) time.Duration {
	return parentCE - oldLoad + newLoad
}

// PathState is the engine's reusable scratch for the state of the current
// path: the per-worker completion offsets and the set of batch tasks
// already assigned. The engine updates it in O(1) on a depth-first descend
// and rebuilds it in O(depth) on a backtrack; representations read it in
// Expand and must not mutate it.
type PathState struct {
	// Loads is ce_k for each worker at the current vertex: the completion
	// offset of worker k relative to the end of the scheduling phase after
	// the path's assignments (§4.4).
	Loads []time.Duration
	// Used marks which batch task indices appear on the current path. It
	// is nil when the problem has no tasks.
	Used *Bitset
	// Late is each batch task's latest start, Problem.Late or derived.
	Late []simtime.Instant

	path []*Vertex // rebuild scratch
	src  *Searcher // the Searcher whose buffers the state hands out
}

// NewVertex returns a zeroed vertex for a successor from the Searcher's free
// list. Callers must set every field they need.
func (st *PathState) NewVertex() *Vertex { return st.src.newVertex() }

// FreeVertex recycles a vertex the representation made and will not hand
// the engine, such as a breadth-pruned successor.
func (st *PathState) FreeVertex(v *Vertex) { st.src.freeVertex(v) }

// Succs returns the Searcher's empty successor slice. There is one: an
// expansion appends its successors to it and returns it, and nothing else
// may hold it across another Succs call.
func (st *PathState) Succs() []*Vertex { return st.src.succs }

// PutSuccs hands a successor slice back, so the next Succs call reuses its
// capacity. The engine calls it once it has copied the successors out; a
// representation calls it when it returns none. nil is a no-op.
func (st *PathState) PutSuccs(s []*Vertex) {
	if s != nil {
		st.src.succs = s[:0]
	}
}

// NewPathState returns the state of a fresh Searcher, positioned at the root
// of p's task space: its vertices and successor slice recycle through the
// state as a run's do.
func NewPathState(p *Problem) *PathState {
	s := new(Searcher)
	s.position(p)
	return &s.st
}

// Reset repositions the state at the root: loads max(0, Load_k(j-1) -
// Qs(j)), no tasks used.
func (st *PathState) Reset(p *Problem) {
	st.Loads = RootLoads(p, st.Loads)
	if st.Used != nil {
		st.Used.Reset()
	}
}

// Descend applies v's delta: a single store for the changed worker load and
// a single bit for the assigned task. Structural vertices are no-ops.
func (st *PathState) Descend(v *Vertex) {
	if !v.IsAssignment {
		return
	}
	st.Loads[v.Assign.Proc] = v.Assign.EndOffset
	if st.Used != nil {
		st.Used.Set(v.Assign.TaskIndex)
	}
}

// RebuildTo repositions the state at v by replaying the deltas on the path
// from the root — the O(depth) backtrack path.
func (st *PathState) RebuildTo(p *Problem, v *Vertex) {
	st.path = st.path[:0]
	for cur := v; cur != nil; cur = cur.Parent {
		st.path = append(st.path, cur)
	}
	st.Reset(p)
	for i := len(st.path) - 1; i >= 0; i-- {
		st.Descend(st.path[i])
	}
}

// MoveTo transitions the state from vertex `from` to vertex `to`: O(1) when
// `to` extends `from` (the DFS fast path), O(depth) otherwise.
func (st *PathState) MoveTo(p *Problem, from, to *Vertex) {
	if to.Parent == from {
		st.Descend(to)
		return
	}
	st.RebuildTo(p, to)
}

// Representation defines the topology of the task space G: how the root
// looks and how a vertex expands into feasible successors. Implementations
// must be stateless (or read-only): one value serves every phase of a run,
// and the engine revisits vertices in backtrack order, so Expand may depend
// only on its arguments.
type Representation interface {
	// Name identifies the representation in results and logs.
	Name() string
	// Root returns the root vertex (the empty schedule), built by NewRoot
	// so that a run's root comes from the running Searcher.
	Root(p *Problem) *Vertex
	// Expand generates v's feasible successors, best first, reading the
	// path's loads and used-task set from st (it must not mutate st). It
	// returns the successors and the number of vertices
	// generated-and-evaluated (including infeasible ones that were
	// discarded), which the engine charges against the quantum. The
	// returned slice should come from st.Succs and its vertices from
	// st.NewVertex; the engine recycles both.
	Expand(p *Problem, v *Vertex, st *PathState) (succs []*Vertex, generated int)
	// IsLeaf reports whether v is a complete schedule.
	IsLeaf(p *Problem, v *Vertex) bool
}

// Stats describes one search run.
type Stats struct {
	// Generated counts the charged candidates, the unit the virtual
	// quantum is spent in: each one probed by the feasibility test, or
	// ruled out by a bound that proves the probe would fail.
	Generated  int
	Expanded   int  // vertices whose successors were generated
	Backtracks int  // expansions that did not extend the previous vertex
	DeadEnd    bool // the candidate list emptied before a leaf was reached
	Leaf       bool // a complete schedule was reached
	Expired    bool // the quantum ran out
	// DepthLimited reports that the MaxDepth pruning bound stopped the
	// search; BacktrackLimited that the MaxBacktracks bound did.
	DepthLimited     bool
	BacktrackLimited bool
	// Consumed is the scheduling time actually used, <= Quantum (virtual
	// mode) — the paper's "scheduling cost" metric.
	Consumed time.Duration
}

// Result is the outcome of a search: the best feasible (partial) schedule
// found, plus run statistics.
type Result struct {
	// Best is the deepest vertex reached; ties are broken by the smaller
	// cost CE. The assignments on the path from the root to Best form the
	// phase's schedule S_j.
	Best  *Vertex
	Stats Stats

	src *Searcher // the Searcher whose free list Release refills
}

// Release recycles the result and every vertex on its best path into the
// Searcher that ran it. Call it after the schedule has been extracted; the
// result and its vertices must not be touched afterwards. Without Release
// the best path's vertices — the one chain the engine can never recycle
// itself, because the caller still reads it — are left to the GC, one path
// per phase.
func (r *Result) Release() {
	for v := r.Best; v != nil; {
		parent := v.Parent
		r.src.freeVertex(v)
		v = parent
	}
	*r = Result{}
}

// Schedule returns Best's assignments in path (root-to-leaf) order, which
// is also each worker's queue order.
func (r *Result) Schedule() []Assignment { return r.AppendSchedule(nil) }

// AppendSchedule appends Best's assignments to dst in path order: a planner
// that keeps one slice across phases schedules without allocating.
func (r *Result) AppendSchedule(dst []Assignment) []Assignment {
	n := len(dst)
	for v := r.Best; v != nil; v = v.Parent {
		if v.IsAssignment {
			n++
		}
	}
	dst = slices.Grow(dst, n-len(dst))[:n]
	for v := r.Best; v != nil; v = v.Parent {
		if v.IsAssignment {
			n--
			dst[n] = v.Assign
		}
	}
	return dst
}

// Loads materializes the per-worker completion offsets of the best partial
// schedule — the array delta vertices no longer carry.
func (r *Result) Loads(p *Problem) []time.Duration {
	return PathLoads(p, r.Best)
}

// PathLoads materializes the per-worker completion offsets of v's partial
// schedule by replaying the path's deltas over the root loads.
func PathLoads(p *Problem, v *Vertex) []time.Duration {
	loads := RootLoads(p, nil)
	for cur := v; cur != nil; cur = cur.Parent {
		if cur.IsAssignment && loads[cur.Assign.Proc] < cur.Assign.EndOffset {
			loads[cur.Assign.Proc] = cur.Assign.EndOffset
		}
	}
	return loads
}

// Run performs the paper's quantum-bounded depth-first search: it expands
// the current vertex, prepends its feasible successors (already sorted
// best-first by the representation) to the candidate list CL, and picks the
// head of CL as the next current vertex. When an expansion yields no
// feasible successors the head of CL belongs to another branch and the move
// counts as a backtrack; an empty CL is a dead-end. The search stops at a
// leaf, at a dead-end, or when the quantum expires.
//
// Run searches on a fresh Searcher, so everything the search uses is
// allocated anew; a caller that searches repeatedly keeps a Searcher.
func Run(p *Problem, rep Representation) (*Result, error) {
	return new(Searcher).Run(p, rep)
}

// Searcher runs searches and keeps everything a run needs between runs —
// path state, used-task bitset, budget, both candidate lists, the engine,
// the result, the successor slice and a LIFO free list of vertices — so a
// steady-state phase loop allocates nothing per search. Every vertex born in
// its runs comes from the free list and goes back to it. A Searcher serves
// one goroutine at a time: a planner owns one next to its other per-phase
// scratch. The zero value is ready to use.
type Searcher struct {
	st    PathState
	used  Bitset
	bud   budget
	cl    stackCL
	bf    bestFirstCL
	e     engine
	res   Result
	free  []*Vertex
	succs []*Vertex
	late  []simtime.Instant
}

// FreeVertices returns the number of vertices on s's free list: what a warm
// Searcher holds for its next run. It stops growing once every run returns
// the vertices it took.
func (s *Searcher) FreeVertices() int { return len(s.free) }

// Run is the package Run on s's scratch. The result is s's own: it is valid
// until s's next Run, and its Release recycles Best's path into s's free
// list.
func (s *Searcher) Run(p *Problem, rep Representation) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return s.run(p, rep), nil
}

// run searches a validated problem.
func (s *Searcher) run(p *Problem, rep Representation) *Result {
	p.prepare()
	p.src = s
	e := s.prepare(p, rep)
	e.run(rep.Root(p))
	s.res.Stats.Consumed = s.bud.consumed()
	p.src = nil
	s.st.Used, s.st.Late = nil, nil
	s.bud = budget{}
	s.e = engine{}
	return &s.res
}

// position sets the path state at p's root, wired to s's buffers, with
// p's latest starts: Late, or derived into s's buffer.
func (s *Searcher) position(p *Problem) {
	if s.st.Late = p.Late; p.Late == nil {
		s.late = s.late[:0]
		for _, t := range p.Tasks {
			s.late = append(s.late, t.LateKey())
		}
		s.st.Late = s.late
	}
	s.st.Loads = RootLoads(p, s.st.Loads)
	if len(p.Tasks) > 0 {
		s.used.resize(len(p.Tasks))
		s.st.Used = &s.used
	} else {
		s.st.Used = nil
	}
	s.st.src = s
}

// prepare positions the scratch at p's root and returns the embedded engine,
// wired to the scratch state, the Searcher's result, and the candidate list
// for p's strategy, emptied.
func (s *Searcher) prepare(p *Problem, rep Representation) *engine {
	s.position(p)
	s.bud = budget{p: p}
	s.res = Result{src: s}
	s.e = engine{p: p, rep: rep, st: &s.st, budget: &s.bud, res: &s.res}
	if p.Strategy == BestFirst {
		s.bf.reset()
		s.e.cl = &s.bf
	} else {
		s.cl.items = s.cl.items[:0]
		s.e.cl = &s.cl
	}
	return &s.e
}

// engine is one sequential quantum-bounded search over the task space.
type engine struct {
	p      *Problem
	rep    Representation
	st     *PathState // positioned at the start vertex by the caller
	budget *budget
	cl     candidateList

	res *Result
	// step counts the moves so far; bestStep is the step at which Best
	// became current. Vertex.step stamps each vertex with its own.
	step, bestStep uint32
}

// run searches the subtree rooted at start. st must already be positioned
// at start.
func (e *engine) run(start *Vertex) {
	e.res.Best = start
	// Root may hand back a vertex an earlier run walked: restamp it, or it
	// would read as newer than Best and be freed.
	start.step = 0
	// Everything the walk leaves behind but Best's path is dead: the current
	// path below its branch point from Best's path, and the candidates,
	// which were never expanded.
	e.freePath(e.walk(start, e.cl), nil)
	for {
		v, ok := e.cl.pop()
		if !ok {
			return
		}
		e.st.FreeVertex(v)
	}
}

// freePath recycles the current path upward from v until it reaches stop or
// a vertex on Best's path. A path vertex is on Best's path exactly when it
// became current no later than Best did: it was on the path when Best was,
// since a vertex never re-enters the path once the walk has left it.
func (e *engine) freePath(v, stop *Vertex) {
	for v != stop && v.step > e.bestStep {
		parent := v.Parent
		e.st.FreeVertex(v)
		v = parent
	}
}

// walk runs the search loop from start and returns the current vertex at
// the stop.
func (e *engine) walk(start *Vertex, cl candidateList) *Vertex {
	cv := start
	for {
		if e.rep.IsLeaf(e.p, cv) {
			e.res.Stats.Leaf = true
			return cv
		}
		if e.p.MaxDepth > 0 && cv.Depth >= e.p.MaxDepth {
			e.res.Stats.DepthLimited = true
			return cv
		}
		if e.budget.expired() {
			e.res.Stats.Expired = true
			return cv
		}

		succs, generated := e.rep.Expand(e.p, cv, e.st)
		e.res.Stats.Expanded++
		e.res.Stats.Generated += generated
		e.budget.charge(generated)
		barren := len(succs) == 0

		if barren && cl.len() == 0 {
			e.res.Stats.DeadEnd = true
			return cv
		}
		cl.push(succs)
		e.st.PutSuccs(succs) // push copied the pointers; reuse the slice

		next, ok := cl.pop()
		if !ok {
			e.res.Stats.DeadEnd = true
			return cv
		}
		if next.Parent != cv {
			e.res.Stats.Backtracks++
			if e.p.MaxBacktracks > 0 && e.res.Stats.Backtracks > e.p.MaxBacktracks {
				e.res.Stats.BacktrackLimited = true
				e.st.FreeVertex(next) // popped but never walked
				return cv
			}
		}
		e.st.MoveTo(e.p, cv, next)
		if e.p.Strategy != BestFirst {
			// Depth-first, next's parent is on the path and every path
			// vertex below it has had all its children popped: the subtree
			// is exhausted. On a descend the loop frees nothing.
			e.freePath(cv, next.Parent)
		} else if barren {
			// Best-first's heap may hold children of any path vertex; only
			// a barren one is known to have none.
			e.freePath(cv, cv.Parent)
		}
		cv = next

		// Saturating: a run never nears 2^32 moves, and past it freePath
		// still spares Best's path while supersede stands down.
		if e.step < math.MaxUint32 {
			e.step++
		}
		cv.step = e.step
		if better(cv, e.res.Best) {
			if e.p.Strategy != BestFirst {
				e.supersede(cv)
			}
			e.res.Best, e.bestStep = cv, e.step
		}
	}
}

// supersede frees the part of Best's path that is off the current path,
// just before cv replaces Best. Depth-first, the walk has left those
// vertices for good, and only Best kept them. Stamps fall toward the root on
// both paths, so climbing whichever path is newer meets the other at their
// common ancestor. Saturated stamps no longer order the paths; the GC then
// takes what is left.
func (e *engine) supersede(cv *Vertex) {
	if e.step == math.MaxUint32 {
		return
	}
	for old := e.res.Best; old != cv; {
		if old.step > cv.step {
			parent := old.Parent
			e.st.FreeVertex(old)
			old = parent
		} else {
			cv = cv.Parent
		}
	}
}

// candidateList abstracts the CL ordering behind the search strategy.
type candidateList interface {
	push(succs []*Vertex)
	pop() (*Vertex, bool)
	len() int
}

// stackCL is the paper's DFS candidate list: successors are prepended
// best-first, and the front is expanded next.
type stackCL struct {
	items []*Vertex
}

func (s *stackCL) push(succs []*Vertex) {
	// Reverse in place so the best sibling lands at the slice tail (the
	// front of the list), then grow the stack with a single append. The
	// slice is the Searcher's scratch, so reversing it is safe.
	for i, j := 0, len(succs)-1; i < j; i, j = i+1, j-1 {
		succs[i], succs[j] = succs[j], succs[i]
	}
	s.items = append(s.items, succs...)
}

func (s *stackCL) pop() (*Vertex, bool) {
	if len(s.items) == 0 {
		return nil, false
	}
	v := s.items[len(s.items)-1]
	s.items[len(s.items)-1] = nil
	s.items = s.items[:len(s.items)-1]
	return v, true
}

func (s *stackCL) len() int { return len(s.items) }

// bestFirstCL orders the whole candidate list globally by cost, preferring
// smaller CE, then greater depth, then insertion order (for determinism).
type bestFirstCL struct {
	heap minHeap[rankedVertex]
	seq  int
}

type rankedVertex struct {
	v   *Vertex
	seq int
}

// reset empties the list for a new run, keeping the heap's capacity.
func (b *bestFirstCL) reset() {
	b.heap.items = b.heap.items[:0]
	b.heap.less = lessRanked
	b.seq = 0
}

func lessRanked(a, b rankedVertex) bool {
	if a.v.CE != b.v.CE {
		return a.v.CE < b.v.CE
	}
	if a.v.Depth != b.v.Depth {
		return a.v.Depth > b.v.Depth
	}
	return a.seq < b.seq
}

func (b *bestFirstCL) push(succs []*Vertex) {
	b.heap.Grow(len(succs))
	for _, v := range succs {
		b.heap.Push(rankedVertex{v: v, seq: b.seq})
		b.seq++
	}
}

func (b *bestFirstCL) pop() (*Vertex, bool) {
	rv, ok := b.heap.Pop()
	if !ok {
		return nil, false
	}
	return rv.v, true
}

func (b *bestFirstCL) len() int { return b.heap.Len() }

// better reports whether a is a better schedule than b: more assignments,
// or equally many with a smaller total execution time CE.
func better(a, b *Vertex) bool {
	if a.Depth != b.Depth {
		return a.Depth > b.Depth
	}
	return a.CE < b.CE
}

// budget tracks scheduling-time consumption against the quantum, in either
// virtual (per-vertex cost) or wall-clock mode.
type budget struct {
	p       *Problem
	virtual time.Duration
}

func (b *budget) charge(vertices int) {
	b.virtual += time.Duration(vertices) * b.p.VertexCost
}

func (b *budget) consumed() time.Duration {
	if b.p.Clock != nil {
		return b.p.Clock()
	}
	return b.virtual
}

func (b *budget) expired() bool {
	return b.consumed() >= b.p.Quantum
}

// Bitset is a fixed-capacity bitset over batch task indices, used to track
// which tasks the current path has already scheduled.
type Bitset struct {
	words []uint64
	n     int
}

// resize repositions the bitset at capacity n with every bit clear, growing
// the backing storage only when needed — the Searcher's scratch reuse path.
func (b *Bitset) resize(n int) {
	w := (n + 63) / 64
	if cap(b.words) < w {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
		clear(b.words)
	}
	b.n = n
}

// Reset clears every bit, keeping the backing storage.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Set marks index i.
func (b *Bitset) Set(i int) { b.words[i/64] |= 1 << uint(i%64) }

// Has reports whether index i is marked.
func (b *Bitset) Has(i int) bool { return b.words[i/64]&(1<<uint(i%64)) != 0 }

// Count returns the number of marked indices below n.
func (b *Bitset) Count(n int) (c int) {
	for i, w := range b.words[:(n+63)/64] {
		if i == n/64 {
			w &= 1<<(n%64) - 1
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// Len returns the bitset's capacity.
func (b *Bitset) Len() int { return b.n }
