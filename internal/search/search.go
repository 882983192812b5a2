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
// instead of an O(P) rescan. Vertices and successor slices are drawn from
// sync.Pools. A depth-first search returns to the pool every vertex it
// leaves that does not lead to the best schedule, and Result.Release
// returns that path, so in steady state a whole search — not just each
// expansion — allocates nothing.
package search

import (
	"fmt"
	"math"
	"sync"
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

// vertexPool recycles vertices: the engine returns every vertex it
// backtracks out of and every abandoned candidate, and representations
// return breadth-pruned successors. Vertices reachable from Result.Best are
// never recycled.
var vertexPool = sync.Pool{New: func() any { return new(Vertex) }}

// NewVertex returns a zeroed vertex from the pool. Callers must set every
// field they need; pooled vertices carry no state over.
func NewVertex() *Vertex { return vertexPool.Get().(*Vertex) }

// FreeVertex returns v to the pool. The caller must guarantee no live
// reference remains — in-engine that holds for candidates that were never
// expanded, for breadth-pruned successors, and for path vertices whose
// subtrees are exhausted and hold no part of Result.Best.
func FreeVertex(v *Vertex) {
	*v = Vertex{}
	vertexPool.Put(v)
}

// succPool recycles the successor slices representations hand to the
// engine; the engine returns each slice after copying it into the
// candidate list. The slice headers travel in boxes that shuttle between
// succPool and boxPool, so neither Get nor Put allocates in steady state
// (boxing a slice header into an interface directly would).
var (
	succPool = sync.Pool{New: func() any { return new([]*Vertex) }}
	boxPool  = sync.Pool{New: func() any { return new([]*Vertex) }}
)

// GetSuccs returns an empty successor slice (with retained capacity) from
// the pool.
func GetSuccs() []*Vertex {
	b := succPool.Get().(*[]*Vertex)
	s := *b
	*b = nil
	boxPool.Put(b)
	return s[:0]
}

// PutSuccs returns a successor slice to the pool. nil is a no-op.
func PutSuccs(s []*Vertex) {
	if s == nil {
		return
	}
	s = s[:cap(s)]
	for i := range s {
		s[i] = nil // release references for GC
	}
	b := boxPool.Get().(*[]*Vertex)
	*b = s[:0]
	succPool.Put(b)
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
	// Comm returns c_lk for a task on a worker.
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
	// BoundCE, when positive, is an incumbent cost bound from an anytime
	// optimizer that already holds a COMPLETE schedule of cost BoundCE:
	// every generated vertex with CE >= BoundCE is pruned, because CE is
	// monotone non-decreasing along a path (loads only grow), so no
	// descendant can beat the incumbent. The caller must fall back to its
	// incumbent when the pruned search returns something shallower — the
	// bound is only sound against a full-depth incumbent; with a partial
	// incumbent a pruned branch could still have reached greater depth.
	// Zero disables pruning.
	BoundCE time.Duration
	// Margin is the planning guard band every feasibility test keeps: a
	// schedule is feasible only if each task finishes Margin before its
	// deadline. Zero is the paper's test.
	Margin time.Duration

	// phaseEnd caches Now.Add(Quantum), the term every feasibility test
	// adds; Run computes it once before the engine starts.
	phaseEnd    simtime.Instant
	phaseEndSet bool
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
	if p.BoundCE < 0 {
		return fmt.Errorf("search: negative incumbent bound %v", p.BoundCE)
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

// Feasible applies the paper's feasibility test (§4.3, Figure 4) to
// extending a partial schedule whose worker-k completion offset is loadK
// with task t on worker k: t_c + RQs(j) + se_lk <= d_l, which — since
// t_c + RQs(j) is always the phase end — reduces to
// PhaseEnd + loadK + p_l + c_lk + Margin <= d_l (task.Fits). It returns the
// new completion offset, meaningful only when the extension is feasible.
// Saturated loads (a machine reporting a crashed worker as permanently busy)
// are always infeasible.
func (p *Problem) Feasible(t *task.Task, loadK, comm time.Duration) (time.Duration, bool) {
	end := loadK + t.Proc + comm
	return end, task.Fits(p.PhaseEnd(), end, p.Margin, t.Deadline)
}

// Hopeless reports that t cannot meet its deadline on any worker this
// phase, even an idle one with affinity: the finish bound is at least
// PhaseEnd + p_l regardless of placement, so a single comparison stands in
// for P per-processor probes. Representations use it to charge one
// generated candidate — not Workers — for tasks rejected without probing
// any processor.
func (p *Problem) Hopeless(t *task.Task) bool {
	return !task.Fits(p.PhaseEnd(), t.Proc, p.Margin, t.Deadline)
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

// rootLoadsPool recycles the transient load array NewRoot materializes to
// seed the root's cost; the array is dead as soon as FromLoads returns.
var rootLoadsPool = sync.Pool{New: func() any { return new([]time.Duration) }}

// NewRoot builds the root vertex — the empty schedule — costed by model.
func NewRoot(p *Problem, model CostModel) *Vertex {
	b := rootLoadsPool.Get().(*[]time.Duration)
	loads := RootLoads(p, (*b)[:0])
	v := NewVertex()
	v.CE = model.FromLoads(loads)
	*b = loads[:0]
	rootLoadsPool.Put(b)
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
// out of CE: counted in, it makes every vertex's CE the same constant, and an
// incumbent bound (Problem.BoundCE) then prunes the whole search at the root.
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

	path []*Vertex // rebuild scratch
}

// NewPathState returns a state positioned at the root of p's task space.
func NewPathState(p *Problem) *PathState {
	st := &PathState{Loads: make([]time.Duration, p.Workers)}
	if len(p.Tasks) > 0 {
		st.Used = NewBitset(len(p.Tasks))
	}
	st.Reset(p)
	return st
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
	// Root returns the root vertex (the empty schedule).
	Root(p *Problem) *Vertex
	// Expand generates v's feasible successors, best first, reading the
	// path's loads and used-task set from st (it must not mutate st). It
	// returns the successors and the number of vertices
	// generated-and-evaluated (including infeasible ones that were
	// discarded), which the engine charges against the quantum. The
	// returned slice should come from GetSuccs and its vertices from
	// NewVertex; the engine recycles both.
	Expand(p *Problem, v *Vertex, st *PathState) (succs []*Vertex, generated int)
	// IsLeaf reports whether v is a complete schedule.
	IsLeaf(p *Problem, v *Vertex) bool
}

// Stats describes one search run.
type Stats struct {
	Generated  int // vertices generated and evaluated
	Expanded   int // vertices whose successors were generated
	Backtracks int // expansions that did not extend the previous vertex
	// BoundPruned counts generated vertices discarded by the incumbent
	// cost bound (Problem.BoundCE); always 0 when no bound is set. Pruned
	// vertices are still charged as generated — the bound saves the
	// subtree below them, not their own evaluation.
	BoundPruned int
	DeadEnd     bool // the candidate list emptied before a leaf was reached
	Leaf        bool // a complete schedule was reached
	Expired     bool // the quantum ran out
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
}

// resultPool recycles Result objects between Run and Release so the
// steady-state phase loop allocates no result header per search.
var resultPool = sync.Pool{New: func() any { return new(Result) }}

// Release recycles the result and every vertex on its best path. Call it
// after the schedule has been extracted; the result and its vertices must
// not be touched afterwards. Without Release the best path's vertices — the
// one chain the engine can never recycle itself, because the caller still
// reads it — leak from the vertex pool one path per phase.
func (r *Result) Release() {
	for v := r.Best; v != nil; {
		parent := v.Parent
		FreeVertex(v)
		v = parent
	}
	*r = Result{}
	resultPool.Put(r)
}

// Schedule returns Best's assignments in path (root-to-leaf) order, which
// is also each worker's queue order.
func (r *Result) Schedule() []Assignment {
	var n int
	for v := r.Best; v != nil; v = v.Parent {
		if v.IsAssignment {
			n++
		}
	}
	out := make([]Assignment, n)
	for v := r.Best; v != nil; v = v.Parent {
		if v.IsAssignment {
			n--
			out[n] = v.Assign
		}
	}
	return out
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
func Run(p *Problem, rep Representation) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.prepare()
	rs := runScratchPool.Get().(*runScratch)
	e := rs.prepare(p, rep)
	e.run(rep.Root(p))
	e.res.Stats.Consumed = e.budget.consumed()
	res := e.res
	rs.release()
	return res, nil
}

// runScratch bundles every per-run allocation of the sequential engine —
// path state, used-task bitset, budget, DFS candidate stack, and the engine
// itself — into one poolable unit, so a steady-state phase loop recycles a
// single object instead of allocating six per search.
type runScratch struct {
	st   PathState
	used Bitset
	bud  budget
	cl   stackCL
	e    engine
}

var runScratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// prepare positions the scratch at p's root and returns the embedded engine,
// wired to the scratch state, a pooled result, and — for depth-first
// strategies — the scratch candidate stack (best-first still builds its heap
// per run).
func (rs *runScratch) prepare(p *Problem, rep Representation) *engine {
	rs.st.Loads = RootLoads(p, rs.st.Loads)
	if len(p.Tasks) > 0 {
		rs.used.resize(len(p.Tasks))
		rs.st.Used = &rs.used
	} else {
		rs.st.Used = nil
	}
	rs.bud = budget{p: p}
	rs.e = engine{p: p, rep: rep, st: &rs.st, budget: &rs.bud}
	if p.Strategy != BestFirst {
		rs.cl.items = rs.cl.items[:0]
		rs.e.cl = &rs.cl
	}
	return &rs.e
}

// release drops the scratch's problem references and returns it to the pool.
// The result survives: it was drawn from resultPool and is handed to the
// caller, who recycles it via Result.Release.
func (rs *runScratch) release() {
	rs.st.Used = nil
	rs.bud = budget{}
	rs.e = engine{}
	runScratchPool.Put(rs)
}

// engine is one sequential quantum-bounded search over the task space.
type engine struct {
	p      *Problem
	rep    Representation
	st     *PathState // positioned at the start vertex by the caller
	budget *budget
	// cl, when non-nil, is a caller-provided (pooled) candidate list; run
	// otherwise builds one for the problem's strategy.
	cl candidateList

	res *Result
	// step counts the moves so far; bestStep is the step at which Best
	// became current. Vertex.step stamps each vertex with its own.
	step, bestStep uint32
}

// run searches the subtree rooted at start. st must already be positioned
// at start.
func (e *engine) run(start *Vertex) {
	e.res = resultPool.Get().(*Result)
	*e.res = Result{Best: start}
	// Root may hand back a vertex an earlier run walked: restamp it, or it
	// would read as newer than Best and be freed.
	start.step = 0
	cl := e.cl
	if cl == nil {
		cl = newCandidateList(e.p.Strategy)
	}
	// Everything the walk leaves behind but Best's path is dead: the current
	// path below its branch point from Best's path, and the candidates,
	// which were never expanded.
	e.freePath(e.walk(start, cl), nil)
	for {
		v, ok := cl.pop()
		if !ok {
			return
		}
		FreeVertex(v)
	}
}

// freePath recycles the current path upward from v until it reaches stop or
// a vertex on Best's path. A path vertex is on Best's path exactly when it
// became current no later than Best did: it was on the path when Best was,
// since a vertex never re-enters the path once the walk has left it.
func (e *engine) freePath(v, stop *Vertex) {
	for v != stop && v.step > e.bestStep {
		parent := v.Parent
		FreeVertex(v)
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
		if e.p.BoundCE > 0 && len(succs) > 0 {
			// Incumbent bound: a successor whose CE already matches or
			// exceeds the complete incumbent's cost can never improve on
			// it (CE is monotone along a path), so its whole subtree is
			// dead. Filtering preserves order, so the surviving DFS is a
			// subsequence of the unpruned traversal.
			kept := succs[:0]
			for _, s := range succs {
				if s.CE >= e.p.BoundCE {
					e.res.Stats.BoundPruned++
					FreeVertex(s)
					continue
				}
				kept = append(kept, s)
			}
			succs = kept
		}
		barren := len(succs) == 0

		if barren && cl.len() == 0 {
			e.res.Stats.DeadEnd = true
			return cv
		}
		cl.push(succs)
		PutSuccs(succs) // push copied the pointers; recycle the slice

		next, ok := cl.pop()
		if !ok {
			e.res.Stats.DeadEnd = true
			return cv
		}
		if next.Parent != cv {
			e.res.Stats.Backtracks++
			if e.p.MaxBacktracks > 0 && e.res.Stats.Backtracks > e.p.MaxBacktracks {
				e.res.Stats.BacktrackLimited = true
				FreeVertex(next) // popped but never walked
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
			FreeVertex(old)
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

func newCandidateList(s Strategy) candidateList {
	if s == BestFirst {
		return newBestFirstCL()
	}
	return &stackCL{}
}

// stackCL is the paper's DFS candidate list: successors are prepended
// best-first, and the front is expanded next.
type stackCL struct {
	items []*Vertex
}

func (s *stackCL) push(succs []*Vertex) {
	// Reverse in place so the best sibling lands at the slice tail (the
	// front of the list), then grow the stack with a single append. The
	// slice is pool-scratch owned by the engine, so reversing it is safe.
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
	heap *minHeap[rankedVertex]
	seq  int
}

type rankedVertex struct {
	v   *Vertex
	seq int
}

func newBestFirstCL() *bestFirstCL {
	return &bestFirstCL{heap: newHeap(func(a, b rankedVertex) bool {
		if a.v.CE != b.v.CE {
			return a.v.CE < b.v.CE
		}
		if a.v.Depth != b.v.Depth {
			return a.v.Depth > b.v.Depth
		}
		return a.seq < b.seq
	})}
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

// NewBitset returns an empty bitset of capacity n.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Clone returns an independent copy.
func (b *Bitset) Clone() *Bitset {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitset{words: w, n: b.n}
}

// resize repositions the bitset at capacity n with every bit clear, growing
// the backing storage only when needed — the pooled-scratch reuse path.
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

// Len returns the bitset's capacity.
func (b *Bitset) Len() int { return b.n }
