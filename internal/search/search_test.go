package search

import (
	"math"
	"testing"
	"time"

	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

func zeroComm(*task.Task, int) time.Duration { return 0 }

func mkTask(id task.ID, proc time.Duration, deadline simtime.Instant) *task.Task {
	return &task.Task{ID: id, Proc: proc, Deadline: deadline}
}

func validProblem(tasks []*task.Task) *Problem {
	return &Problem{
		Now:        0,
		Quantum:    time.Millisecond,
		Tasks:      tasks,
		Workers:    2,
		BaseLoad:   make([]time.Duration, 2),
		Comm:       zeroComm,
		VertexCost: time.Microsecond,
	}
}

func TestProblemValidate(t *testing.T) {
	base := func() *Problem { return validProblem(nil) }
	if err := base().Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*Problem)
	}{
		{"no workers", func(p *Problem) { p.Workers = 0 }},
		{"load mismatch", func(p *Problem) { p.BaseLoad = nil }},
		{"negative quantum", func(p *Problem) { p.Quantum = -1 }},
		{"nil comm", func(p *Problem) { p.Comm = nil }},
		{"no budget", func(p *Problem) { p.VertexCost = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base()
			tt.mut(p)
			if err := p.Validate(); err == nil {
				t.Error("invalid problem accepted")
			}
		})
	}
	// A wall clock substitutes for VertexCost.
	p := base()
	p.VertexCost = 0
	p.Clock = func() time.Duration { return 0 }
	if err := p.Validate(); err != nil {
		t.Errorf("clock-budgeted problem rejected: %v", err)
	}
}

func TestPhaseEnd(t *testing.T) {
	p := validProblem(nil)
	p.Now = simtime.Instant(5 * time.Millisecond)
	p.Quantum = 2 * time.Millisecond
	if got := p.PhaseEnd(); got != simtime.Instant(7*time.Millisecond) {
		t.Errorf("PhaseEnd = %v", got)
	}
}

func TestFeasible(t *testing.T) {
	p := validProblem(nil)
	p.Quantum = time.Millisecond
	// Deadline exactly met: phaseEnd(1ms) + load(2ms) + proc(3ms) = 6ms.
	tk := mkTask(1, 3*time.Millisecond, simtime.Instant(6*time.Millisecond))
	end, ok := p.Feasible(tk, 2*time.Millisecond, 0)
	if !ok || end != 5*time.Millisecond {
		t.Errorf("Feasible = (%v,%v), want (5ms,true)", end, ok)
	}
	// One nanosecond tighter: infeasible.
	tk2 := mkTask(2, 3*time.Millisecond, simtime.Instant(6*time.Millisecond-1))
	if _, ok := p.Feasible(tk2, 2*time.Millisecond, 0); ok {
		t.Error("over-deadline extension accepted")
	}
	// Communication cost counts.
	tk3 := mkTask(3, 3*time.Millisecond, simtime.Instant(6*time.Millisecond))
	if _, ok := p.Feasible(tk3, 2*time.Millisecond, time.Nanosecond); ok {
		t.Error("communication cost ignored")
	}
}

// chainRep is a stub representation: a single path of fixed length with a
// configurable branching factor; used to exercise the engine in isolation.
type chainRep struct {
	length  int
	branch  int
	deadEnd int // depth at which every branch becomes infertile (-1: never)
}

func (c *chainRep) Name() string { return "chain" }

func (c *chainRep) Root(p *Problem) *Vertex { return &Vertex{} }

func (c *chainRep) IsLeaf(p *Problem, v *Vertex) bool { return v.Depth >= c.length }

func (c *chainRep) Expand(p *Problem, v *Vertex, st *PathState) ([]*Vertex, int) {
	if c.deadEnd >= 0 && v.Depth >= c.deadEnd {
		return nil, c.branch
	}
	succs := make([]*Vertex, c.branch)
	for i := range succs {
		succs[i] = &Vertex{
			Parent:       v,
			IsAssignment: true,
			Depth:        v.Depth + 1,
			CE:           v.CE + time.Duration(i), // first successor is best
		}
	}
	return succs, c.branch
}

func TestRunReachesLeaf(t *testing.T) {
	p := validProblem(nil)
	p.Quantum = time.Second
	rep := &chainRep{length: 10, branch: 3, deadEnd: -1}
	res, err := Run(p, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Leaf {
		t.Error("leaf not reached")
	}
	if res.Best.Depth != 10 {
		t.Errorf("best depth = %d, want 10", res.Best.Depth)
	}
	if res.Stats.Expanded != 10 {
		t.Errorf("expanded = %d, want 10", res.Stats.Expanded)
	}
	if res.Stats.Generated != 30 {
		t.Errorf("generated = %d, want 30", res.Stats.Generated)
	}
	if res.Stats.Backtracks != 0 {
		t.Errorf("backtracks = %d on a straight dive", res.Stats.Backtracks)
	}
	if res.Stats.Consumed != 30*time.Microsecond {
		t.Errorf("consumed = %v, want 30µs", res.Stats.Consumed)
	}
}

func TestRunQuantumExpires(t *testing.T) {
	p := validProblem(nil)
	p.Quantum = 10 * time.Microsecond // 10 vertex generations
	rep := &chainRep{length: 1000, branch: 2, deadEnd: -1}
	res, err := Run(p, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Expired {
		t.Error("quantum expiry not reported")
	}
	if res.Stats.Leaf {
		t.Error("leaf reported despite expiry")
	}
	if res.Stats.Consumed < p.Quantum {
		t.Errorf("consumed %v < quantum %v at expiry", res.Stats.Consumed, p.Quantum)
	}
	// The partial result must still be non-trivial.
	if res.Best.Depth == 0 {
		t.Error("no partial schedule produced")
	}
}

func TestRunDeadEnd(t *testing.T) {
	p := validProblem(nil)
	p.Quantum = time.Second
	rep := &chainRep{length: 10, branch: 1, deadEnd: 3}
	res, err := Run(p, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.DeadEnd {
		t.Error("dead-end not reported")
	}
	if res.Best.Depth != 3 {
		t.Errorf("best depth = %d, want 3", res.Best.Depth)
	}
}

func TestRunBacktracks(t *testing.T) {
	// Branch 2, dead end at depth 3: the search dives to depth 3, fails,
	// and must pop siblings from the candidate list (backtracks > 0).
	p := validProblem(nil)
	p.Quantum = time.Second
	rep := &chainRep{length: 10, branch: 2, deadEnd: 3}
	res, err := Run(p, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.DeadEnd {
		t.Error("dead-end not reported")
	}
	if res.Stats.Backtracks == 0 {
		t.Error("no backtracks recorded despite exhausted subtrees")
	}
}

func TestRunInvalidProblem(t *testing.T) {
	p := validProblem(nil)
	p.Workers = 0
	if _, err := Run(p, &chainRep{length: 1, branch: 1, deadEnd: -1}); err == nil {
		t.Error("Run accepted an invalid problem")
	}
}

func TestRunWallClockBudget(t *testing.T) {
	p := validProblem(nil)
	p.VertexCost = 0
	elapsed := time.Duration(0)
	p.Clock = func() time.Duration { elapsed += 3 * time.Microsecond; return elapsed }
	p.Quantum = 30 * time.Microsecond
	rep := &chainRep{length: 1000, branch: 1, deadEnd: -1}
	res, err := Run(p, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Expired {
		t.Error("wall-clock budget did not expire")
	}
}

func TestSchedulePathOrder(t *testing.T) {
	t1 := mkTask(1, time.Millisecond, simtime.Never)
	t2 := mkTask(2, time.Millisecond, simtime.Never)
	root := &Vertex{}
	v1 := &Vertex{Parent: root, IsAssignment: true, Depth: 1, Assign: Assignment{Task: t1, Proc: 0}}
	skip := &Vertex{Parent: v1, Depth: 1} // structural vertex, no assignment
	v2 := &Vertex{Parent: skip, IsAssignment: true, Depth: 2, Assign: Assignment{Task: t2, Proc: 1}}
	res := &Result{Best: v2}
	sched := res.Schedule()
	if len(sched) != 2 {
		t.Fatalf("schedule has %d assignments, want 2", len(sched))
	}
	if sched[0].Task.ID != 1 || sched[1].Task.ID != 2 {
		t.Errorf("schedule order wrong: %v then %v", sched[0].Task.ID, sched[1].Task.ID)
	}
}

func TestScheduleEmpty(t *testing.T) {
	res := &Result{Best: &Vertex{}}
	if got := res.Schedule(); len(got) != 0 {
		t.Errorf("empty schedule has %d assignments", len(got))
	}
}

func TestBetterPrefersDepthThenCost(t *testing.T) {
	shallow := &Vertex{Depth: 1, CE: 0}
	deep := &Vertex{Depth: 2, CE: 100}
	if !better(deep, shallow) {
		t.Error("deeper vertex not preferred")
	}
	cheap := &Vertex{Depth: 2, CE: 5}
	costly := &Vertex{Depth: 2, CE: 9}
	if !better(cheap, costly) || better(costly, cheap) {
		t.Error("cost tie-break wrong")
	}
}

func TestBitset(t *testing.T) {
	var b Bitset
	b.resize(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if b.Has(i) {
			t.Errorf("fresh bitset has %d", i)
		}
		b.Set(i)
		if !b.Has(i) {
			t.Errorf("Set(%d) not visible", i)
		}
	}
	if b.resize(70); b.Len() != 70 || b.Has(0) || b.Has(63) || b.Has(64) {
		t.Error("resize kept a bit or the old capacity")
	}
}

func TestStrategyString(t *testing.T) {
	if DFS.String() != "dfs" || BestFirst.String() != "best-first" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy has empty name")
	}
}

func TestBestFirstExpandsCheapestCandidate(t *testing.T) {
	// chainRep emits siblings with CE = parent CE + i, so best-first and
	// DFS coincide on a chain; verify via the CL directly instead.
	var cl bestFirstCL
	cl.reset()
	mk := func(ce time.Duration, depth int) *Vertex { return &Vertex{CE: ce, Depth: depth} }
	cl.push([]*Vertex{mk(5, 1), mk(3, 1), mk(3, 2), mk(9, 1)})
	want := []struct {
		ce    time.Duration
		depth int
	}{{3, 2}, {3, 1}, {5, 1}, {9, 1}}
	for i, w := range want {
		v, ok := cl.pop()
		if !ok || v.CE != w.ce || v.Depth != w.depth {
			t.Fatalf("pop %d = (%v, d=%d), want (%v, d=%d)", i, v.CE, v.Depth, w.ce, w.depth)
		}
	}
	if _, ok := cl.pop(); ok {
		t.Error("pop from empty best-first CL succeeded")
	}
}

func TestStackCLIsLIFOBestFirstAmongSiblings(t *testing.T) {
	var cl stackCL
	a := &Vertex{CE: 1}
	b := &Vertex{CE: 2}
	cl.push([]*Vertex{a, b}) // a is the better sibling
	if v, _ := cl.pop(); v != a {
		t.Error("DFS CL did not pop the best sibling first")
	}
	if v, _ := cl.pop(); v != b {
		t.Error("DFS CL lost the second sibling")
	}
}

func TestMaxDepthStopsSearch(t *testing.T) {
	p := validProblem(nil)
	p.Quantum = time.Second
	p.MaxDepth = 4
	rep := &chainRep{length: 100, branch: 2, deadEnd: -1}
	res, err := Run(p, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.DepthLimited {
		t.Error("depth limit not reported")
	}
	if res.Best.Depth != 4 {
		t.Errorf("best depth = %d, want 4", res.Best.Depth)
	}
	if res.Stats.Leaf {
		t.Error("leaf reported despite depth limit")
	}
}

func TestMaxBacktracksStopsSearch(t *testing.T) {
	p := validProblem(nil)
	p.Quantum = time.Second
	p.MaxBacktracks = 3
	rep := &chainRep{length: 100, branch: 2, deadEnd: 5}
	res, err := Run(p, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.BacktrackLimited {
		t.Error("backtrack limit not reported")
	}
	if res.Stats.Backtracks != 4 { // limit+1 triggers the stop
		t.Errorf("backtracks = %d, want 4", res.Stats.Backtracks)
	}
}

func TestBestFirstStillReachesLeaf(t *testing.T) {
	p := validProblem(nil)
	p.Quantum = time.Second
	p.Strategy = BestFirst
	rep := &chainRep{length: 10, branch: 2, deadEnd: -1}
	res, err := Run(p, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Leaf || res.Best.Depth != 10 {
		t.Errorf("best-first did not complete the chain: depth=%d leaf=%v",
			res.Best.Depth, res.Stats.Leaf)
	}
}

func TestFeasibleSaturatedLoadNeverWraps(t *testing.T) {
	p := validProblem(nil)
	tk := mkTask(1, time.Millisecond, simtime.Instant(100*time.Millisecond))
	// A crashed worker reports an enormous load; adding the task duration
	// must not wrap into feasibility.
	for _, load := range []time.Duration{1 << 56, 1<<62 - 1, math.MaxInt64} {
		if _, ok := p.Feasible(tk, load, 0); ok {
			t.Errorf("saturated load %d accepted as feasible", load)
		}
	}
}

// TestCostSkipsDeadWorkers: a dead worker's load, discounted by a phase or
// never freeing, is not part of CE — under either cost model.
func TestCostSkipsDeadWorkers(t *testing.T) {
	for _, dead := range []time.Duration{Unreachable, Unreachable - time.Millisecond, math.MaxInt64} {
		loads := []time.Duration{3 * time.Millisecond, dead, 5 * time.Millisecond}
		if got := (MaxCost{}).FromLoads(loads); got != 5*time.Millisecond {
			t.Errorf("MaxCost with dead load %d = %v, want 5ms", dead, got)
		}
		if got := (SumCost{}).FromLoads(loads); got != 8*time.Millisecond {
			t.Errorf("SumCost with dead load %d = %v, want 8ms", dead, got)
		}
	}
}
