package represent

import (
	"testing"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

const (
	ms = time.Millisecond
	us = time.Microsecond
)

// mkTask builds a task affine with the given workers.
func mkTask(id task.ID, proc time.Duration, deadline simtime.Instant, procs ...int) *task.Task {
	return &task.Task{ID: id, Proc: proc, Deadline: deadline, Affinity: affinity.NewSet(procs...)}
}

// problem builds a search problem over the given tasks with a remote cost
// of 1ms for non-affine workers.
func problem(workers int, quantum time.Duration, tasks ...*task.Task) *search.Problem {
	model := affinity.CostModel{Remote: ms}
	return &search.Problem{
		Now:      0,
		Quantum:  quantum,
		Tasks:    tasks,
		Workers:  workers,
		BaseLoad: make([]time.Duration, workers),
		Comm: func(t *task.Task, proc int) time.Duration {
			return model.Cost(t.Affinity, proc)
		},
		VertexCost: us,
	}
}

// expand positions a fresh PathState at v and expands it — the test-side
// stand-in for the engine's incremental state maintenance.
func expand(rep search.Representation, p *search.Problem, v *search.Vertex) ([]*search.Vertex, int) {
	st := search.NewPathState(p)
	st.RebuildTo(p, v)
	return rep.Expand(p, v, st)
}

func TestRootLoadsClampedByQuantum(t *testing.T) {
	p := problem(3, 2*ms)
	p.BaseLoad = []time.Duration{ms, 2 * ms, 5 * ms}
	for _, rep := range []search.Representation{NewAssignment(), NewSequence(3)} {
		root := rep.Root(p)
		loads := search.PathLoads(p, root)
		want := []time.Duration{0, 0, 3 * ms} // max(0, load - quantum)
		for k, w := range want {
			if loads[k] != w {
				t.Errorf("%s: root load[%d] = %v, want %v", rep.Name(), k, loads[k], w)
			}
		}
		if root.CE != 3*ms {
			t.Errorf("%s: root CE = %v, want 3ms", rep.Name(), root.CE)
		}
	}
}

func TestAssignmentExpandOrdersByCost(t *testing.T) {
	// Worker 1 is pre-loaded; the task is affine with both. Assigning to
	// worker 0 balances load (lower CE) and must come first.
	p := problem(2, 0, mkTask(1, ms, simtime.Instant(100*ms), 0, 1))
	p.BaseLoad = []time.Duration{0, 5 * ms}
	rep := NewAssignment()
	root := rep.Root(p)
	succs, generated := expand(rep, p, root)
	if generated != 2 {
		t.Fatalf("generated = %d, want 2", generated)
	}
	if len(succs) != 2 {
		t.Fatalf("got %d successors, want 2", len(succs))
	}
	if succs[0].Assign.Proc != 0 {
		t.Errorf("best successor on worker %d, want 0", succs[0].Assign.Proc)
	}
	if succs[0].CE >= succs[1].CE {
		t.Errorf("successors not cost-ordered: %v then %v", succs[0].CE, succs[1].CE)
	}
}

func TestAssignmentPrefersAffineWorker(t *testing.T) {
	// Equal loads; the task is affine only with worker 1, so worker 1
	// avoids the remote cost and must rank first.
	p := problem(2, 0, mkTask(1, ms, simtime.Instant(100*ms), 1))
	rep := NewAssignment()
	succs, _ := expand(rep, p, rep.Root(p))
	if len(succs) != 2 {
		t.Fatalf("got %d successors", len(succs))
	}
	if succs[0].Assign.Proc != 1 || succs[0].Assign.Comm != 0 {
		t.Errorf("best successor = proc %d comm %v, want affine proc 1",
			succs[0].Assign.Proc, succs[0].Assign.Comm)
	}
	if succs[1].Assign.Comm != ms {
		t.Errorf("remote successor comm = %v, want 1ms", succs[1].Assign.Comm)
	}
}

func TestAssignmentSkipsInfeasibleTask(t *testing.T) {
	// First task is already hopeless; the representation must fall through
	// to the second.
	hopeless := mkTask(1, 10*ms, simtime.Instant(ms), 0)
	viable := mkTask(2, ms, simtime.Instant(100*ms), 0)
	p := problem(1, 0, hopeless, viable)
	rep := NewAssignment()
	succs, generated := expand(rep, p, rep.Root(p))
	if len(succs) != 1 || succs[0].Assign.Task.ID != 2 {
		t.Fatalf("expected to skip to task 2, got %v", succs)
	}
	if generated != 2 { // one evaluation per task × one worker
		t.Errorf("generated = %d, want 2", generated)
	}
	if succs[0].Cursor != 2 {
		t.Errorf("cursor = %d, want 2", succs[0].Cursor)
	}
	if succs[0].Depth != 1 {
		t.Errorf("depth = %d, want 1 (skips are not assignments)", succs[0].Depth)
	}

	// With skipping disabled the same expansion dead-ends.
	strict := &Assignment{SkipInfeasible: false}
	succs, _ = expand(strict, p, strict.Root(p))
	if len(succs) != 0 {
		t.Errorf("strict variant produced successors for an infeasible head task")
	}
}

func TestAssignmentBreadthCap(t *testing.T) {
	p := problem(4, 0, mkTask(1, ms, simtime.Instant(100*ms), 0, 1, 2, 3))
	rep := &Assignment{SkipInfeasible: true, Breadth: 2}
	succs, generated := expand(rep, p, rep.Root(p))
	if len(succs) != 2 {
		t.Errorf("breadth cap ignored: %d successors", len(succs))
	}
	if generated != 4 {
		t.Errorf("generated = %d, want 4 (all workers evaluated)", generated)
	}
}

func TestAssignmentLeaf(t *testing.T) {
	tk := mkTask(1, ms, simtime.Instant(100*ms), 0)
	p := problem(1, 0, tk)
	rep := NewAssignment()
	root := rep.Root(p)
	if rep.IsLeaf(p, root) {
		t.Error("root is not a leaf")
	}
	succs, _ := expand(rep, p, root)
	if len(succs) != 1 || !rep.IsLeaf(p, succs[0]) {
		t.Error("assigning the only task should produce a leaf")
	}
}

func TestSequenceRoundRobin(t *testing.T) {
	t1 := mkTask(1, ms, simtime.Instant(100*ms), 0, 1, 2)
	t2 := mkTask(2, ms, simtime.Instant(100*ms), 0, 1, 2)
	t3 := mkTask(3, ms, simtime.Instant(100*ms), 0, 1, 2)
	p := problem(3, 0, t1, t2, t3)
	rep := NewSequence(3)
	v := rep.Root(p)
	for level := 0; level < 3; level++ {
		succs, _ := expand(rep, p, v)
		if len(succs) == 0 {
			t.Fatalf("level %d: no successors", level)
		}
		if got := succs[0].Assign.Proc; got != level%3 {
			t.Errorf("level %d assigned to worker %d, want %d", level, got, level%3)
		}
		v = succs[0]
	}
	if !rep.IsLeaf(p, v) {
		t.Error("all tasks scheduled but not a leaf")
	}
}

func TestSequenceExaminesByDeadlineOrder(t *testing.T) {
	// Tasks pre-sorted EDF; the first successor must be the most urgent
	// feasible task.
	urgent := mkTask(1, ms, simtime.Instant(20*ms), 0)
	lax := mkTask(2, ms, simtime.Instant(100*ms), 0)
	p := problem(1, 0, urgent, lax)
	rep := NewSequence(1)
	succs, _ := expand(rep, p, rep.Root(p))
	if len(succs) == 0 || succs[0].Assign.Task.ID != 1 {
		t.Fatalf("first successor is not the most urgent task: %+v", succs)
	}
}

func TestSequenceUsedTasksNotRepeated(t *testing.T) {
	t1 := mkTask(1, ms, simtime.Instant(100*ms), 0, 1)
	t2 := mkTask(2, ms, simtime.Instant(100*ms), 0, 1)
	p := problem(2, 0, t1, t2)
	rep := NewSequence(2)
	v := rep.Root(p)
	succs, _ := expand(rep, p, v)
	first := succs[0]
	succs, _ = expand(rep, p, first)
	for _, s := range succs {
		if s.Assign.Task.ID == first.Assign.Task.ID {
			t.Fatalf("task %d scheduled twice on one path", s.Assign.Task.ID)
		}
	}
}

func TestSequenceDeadEndOnStuckProcessor(t *testing.T) {
	// Worker 1's turn, but the only remaining task can't run there in
	// time (remote cost pushes it past the deadline) — a structural
	// dead-end the representation cannot route around.
	tight := mkTask(1, ms, simtime.Instant(ms+500*us), 0)
	p := problem(2, 0, tight)
	rep := NewSequence(2)
	root := rep.Root(p)
	// Force the cursor to worker 1's level.
	root.Cursor = 1
	succs, generated := expand(rep, p, root)
	if len(succs) != 0 {
		t.Fatalf("expected dead-end, got %d successors", len(succs))
	}
	if generated != 1 {
		t.Errorf("generated = %d, want 1 feasibility test", generated)
	}
}

func TestSequenceBreadthCharging(t *testing.T) {
	var tasks []*task.Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, mkTask(task.ID(i), ms, simtime.Instant(100*ms), 0))
	}
	p := problem(1, 0, tasks...)
	rep := &Sequence{Breadth: 3}
	succs, generated := expand(rep, p, rep.Root(p))
	if len(succs) != 3 {
		t.Errorf("breadth cap ignored: %d successors", len(succs))
	}
	// Examination stops once the cap is filled: 3 feasible tests charged.
	if generated != 3 {
		t.Errorf("generated = %d, want 3", generated)
	}
}

func TestSequenceAllowIdleAddsSkip(t *testing.T) {
	tight := mkTask(1, ms, simtime.Instant(ms+500*us), 0)
	p := problem(2, 0, tight)
	rep := &Sequence{Breadth: 2, AllowIdle: true}
	root := rep.Root(p)
	root.Cursor = 1 // stuck worker's level
	succs, _ := expand(rep, p, root)
	if len(succs) != 1 {
		t.Fatalf("expected a single skip successor, got %d", len(succs))
	}
	skip := succs[0]
	if skip.IsAssignment || skip.Depth != root.Depth || skip.Cursor != root.Cursor+1 {
		t.Errorf("skip vertex malformed: %+v", skip)
	}
	// Consecutive skips are bounded by the worker count.
	v := skip
	for i := 0; i < 2; i++ {
		succs, _ = expand(rep, p, v)
		if len(succs) == 0 {
			break
		}
		v = succs[len(succs)-1]
	}
	if v.Cursor-root.Cursor > p.Workers {
		t.Errorf("idle chain exceeded the worker count: %d levels", v.Cursor-root.Cursor)
	}
}

// runToCompletion drives the full engine with a representation and checks
// the §4.3 guarantee on every assignment of the returned schedule.
func runToCompletion(t *testing.T, rep search.Representation, p *search.Problem) *search.Result {
	t.Helper()
	res, err := search.Run(p, rep)
	if err != nil {
		t.Fatal(err)
	}
	perWorker := map[int]time.Duration{}
	seen := map[task.ID]bool{}
	for k, l := range p.BaseLoad {
		if rem := l - p.Quantum; rem > 0 {
			perWorker[k] = rem
		}
	}
	for _, a := range res.Schedule() {
		if seen[a.Task.ID] {
			t.Fatalf("%s: task %d scheduled twice", rep.Name(), a.Task.ID)
		}
		seen[a.Task.ID] = true
		perWorker[a.Proc] += a.Task.Proc + a.Comm
		if perWorker[a.Proc] != a.EndOffset {
			t.Fatalf("%s: task %d end offset %v, recomputed %v",
				rep.Name(), a.Task.ID, a.EndOffset, perWorker[a.Proc])
		}
		finish := p.PhaseEnd().Add(a.EndOffset)
		if finish.After(a.Task.Deadline) {
			t.Fatalf("%s: task %d finish bound %v after deadline %v",
				rep.Name(), a.Task.ID, finish, a.Task.Deadline)
		}
	}
	return res
}

func TestFullSearchBothRepresentations(t *testing.T) {
	tasks := []*task.Task{
		mkTask(1, 2*ms, simtime.Instant(25*ms), 0),
		mkTask(2, ms, simtime.Instant(26*ms), 1),
		mkTask(3, 3*ms, simtime.Instant(60*ms), 0, 2),
		mkTask(4, ms, simtime.Instant(40*ms), 2),
		mkTask(5, 2*ms, simtime.Instant(80*ms), 1),
		mkTask(6, ms, simtime.Instant(90*ms), 0, 1, 2),
	}
	task.SortEDF(tasks)
	for _, rep := range []search.Representation{NewAssignment(), NewSequence(3)} {
		p := problem(3, 10*ms, tasks...)
		res := runToCompletion(t, rep, p)
		if res.Best.Depth != len(tasks) {
			t.Errorf("%s: scheduled %d of %d tasks (leaf=%v deadEnd=%v expired=%v)",
				rep.Name(), res.Best.Depth, len(tasks),
				res.Stats.Leaf, res.Stats.DeadEnd, res.Stats.Expired)
		}
	}
}

func TestAssignmentBeatsSequenceWhenStuck(t *testing.T) {
	// Tasks all affine with worker 0 and too tight to run remotely (the
	// remote cost alone blows the deadline). The sequence representation
	// stalls on worker 1's level; the assignment representation schedules
	// everything on worker 0.
	mkProblem := func() *search.Problem {
		var tasks []*task.Task
		for i := 0; i < 4; i++ {
			tasks = append(tasks, mkTask(task.ID(i), ms, simtime.Instant(6*ms), 0))
		}
		p := problem(2, ms, tasks...)
		p.Comm = func(t *task.Task, proc int) time.Duration {
			return affinity.CostModel{Remote: 100 * ms}.Cost(t.Affinity, proc)
		}
		return p
	}
	resA := runToCompletion(t, NewAssignment(), mkProblem())
	resS := runToCompletion(t, NewSequence(2), mkProblem())
	if resA.Best.Depth <= resS.Best.Depth {
		t.Errorf("assignment depth %d should exceed sequence depth %d",
			resA.Best.Depth, resS.Best.Depth)
	}
	if !resS.Stats.DeadEnd && !resS.Stats.Expired {
		t.Error("sequence representation neither dead-ended nor expired")
	}
}

func TestNames(t *testing.T) {
	if NewAssignment().Name() != "assignment-oriented" {
		t.Error("assignment name wrong")
	}
	if NewSequence(2).Name() != "sequence-oriented" {
		t.Error("sequence name wrong")
	}
}

func TestSequenceLeastLoadedPicksIdlestProc(t *testing.T) {
	t1 := mkTask(1, ms, simtime.Instant(100*ms), 0, 1, 2)
	p := problem(3, 0, t1)
	p.BaseLoad = []time.Duration{5 * ms, 2 * ms, 9 * ms}
	rep := &Sequence{Breadth: 3, LeastLoaded: true}
	succs, _ := expand(rep, p, rep.Root(p))
	if len(succs) == 0 {
		t.Fatal("no successors")
	}
	if succs[0].Assign.Proc != 1 {
		t.Errorf("least-loaded order chose worker %d, want 1", succs[0].Assign.Proc)
	}
}

func TestCostFunctionOverride(t *testing.T) {
	// With the sum cost, putting a second task on an already-loaded worker
	// costs the same as on an idle one (sum is placement-invariant for
	// equal durations), so the tie-break (earliest completion) decides;
	// with the default max cost, the idle worker strictly wins.
	tk := mkTask(1, ms, simtime.Instant(100*ms), 0, 1)
	p := problem(2, 0, tk)
	p.BaseLoad = []time.Duration{3 * ms, 0}

	rep := &Assignment{SkipInfeasible: true, Cost: search.SumCost{}}
	root := rep.Root(p)
	if root.CE != 3*ms {
		t.Fatalf("sum-cost root CE = %v, want 3ms", root.CE)
	}
	succs, _ := expand(rep, p, root)
	if len(succs) != 2 {
		t.Fatalf("got %d successors", len(succs))
	}
	// Both successors have the same sum cost (4ms); completion tie-break
	// picks the idle worker 1.
	if succs[0].CE != 4*ms || succs[1].CE != 4*ms {
		t.Errorf("sum costs = %v, %v, want 4ms both", succs[0].CE, succs[1].CE)
	}
	if succs[0].Assign.Proc != 1 {
		t.Errorf("tie-break chose worker %d, want idle worker 1", succs[0].Assign.Proc)
	}

	seq := &Sequence{Breadth: 2, Cost: search.SumCost{}}
	sroot := seq.Root(p)
	if sroot.CE != 3*ms {
		t.Errorf("sequence sum-cost root CE = %v", sroot.CE)
	}
}

func TestHopelessTaskChargesOneVertex(t *testing.T) {
	// A task hopeless on every worker (PhaseEnd + proc > deadline
	// regardless of placement) is rejected with one comparison, charging
	// one generated vertex — not one per worker. The earlier full-copy
	// core charged p.Workers for it, over-charging the §4.2 quantum
	// budget for work never performed.
	hopeless := mkTask(1, 10*ms, simtime.Instant(ms), 0, 1)
	viable := mkTask(2, ms, simtime.Instant(100*ms), 0, 1)
	p := problem(2, 0, hopeless, viable)
	rep := NewAssignment()
	succs, generated := expand(rep, p, rep.Root(p))
	if len(succs) != 2 || succs[0].Assign.Task.ID != 2 {
		t.Fatalf("expected task 2 on both workers, got %v", succs)
	}
	if generated != 3 { // 1 quick-reject + 2 probes for the viable task
		t.Errorf("generated = %d, want 3", generated)
	}

	// The charge shows up in the engine's stats too: one expansion covers
	// both tasks (the skip and the assignment), then the leaf stops. A
	// real quantum is needed here — the zero quantum above expires at the
	// root before the engine expands anything.
	p = problem(2, ms, hopeless, viable)
	res, err := search.Run(p, rep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Generated != 3 {
		t.Errorf("Stats.Generated = %d, want 3", res.Stats.Generated)
	}
}

func TestLeastLoadBoundAtTheEdge(t *testing.T) {
	// The least-loaded worker (1, 2ms) holds the task's data, so the task
	// fits there exactly when 2ms + p + margin <= deadline. At that edge it
	// must be assigned; one ns past it the bound rules the task out on
	// every worker unprobed — yet charges all three candidates, as the
	// probes would have.
	const margin = 25 * us
	edge := simtime.Instant(3*ms + margin)
	for _, c := range []struct {
		deadline simtime.Instant
		succs    int
	}{{edge, 1}, {edge - 1, 0}} {
		p := problem(3, 0, mkTask(1, ms, c.deadline, 1))
		p.BaseLoad = []time.Duration{4 * ms, 2 * ms, 6 * ms}
		p.Margin = margin
		rep := NewAssignment()
		succs, generated := expand(rep, p, rep.Root(p))
		if len(succs) != c.succs || generated != 3 {
			t.Fatalf("deadline %v: %d successors, %d generated; want %d, 3", c.deadline, len(succs), generated, c.succs)
		}
		if c.succs == 1 && (succs[0].Assign.Proc != 1 || succs[0].Assign.EndOffset != 3*ms) {
			t.Errorf("deadline %v: assigned %+v, want worker 1 ending at 3ms", c.deadline, succs[0].Assign)
		}
	}
}
