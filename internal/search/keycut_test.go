package search_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/represent"
	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// The key cuts: a representation rules a task out by its latest start
// against Problem.Cut, reading the task only when it passes. These tests pin
// the cuts to the task-based reference (Problem.Room, Hopeless, Feasible).
// Every value sits on a 1 µs grid, so a latest start equal to a cut — the
// edge a `<` written as `<=` gets wrong — comes up often.

const grid = time.Microsecond

// keyCutTasks draws n tasks around a phase that ends at end: deadlines
// before and after it, zero and positive Procs, with never set a share of
// Never deadlines, and with edges set, tasks missed at every instant (a
// negative Proc, or a d - p that wraps). A negative Proc comes with a
// deadline before the phase end: the sequence reference probes with
// Problem.Feasible, which does not check p >= 0 as Hopeless and Sequence's
// room cut do, so past the phase end the two would part on a task the purge
// always removes before a phase.
func keyCutTasks(r *rand.Rand, n, workers int, end simtime.Instant, never, edges bool) []*task.Task {
	ts := make([]*task.Task, n)
	for i := range ts {
		t := &task.Task{
			ID:       task.ID(i),
			Proc:     time.Duration(r.IntN(9)) * grid,
			Deadline: end.Add(time.Duration(r.IntN(46)-6) * grid),
			Affinity: affinity.NewSet(r.IntN(workers)),
		}
		switch k := r.IntN(40); {
		case k < 2 && never:
			t.Deadline = simtime.Never
		case k == 2 && edges:
			t.Proc, t.Deadline = -grid, end.Add(-grid)
		case k == 3 && edges:
			t.Proc, t.Deadline = math.MaxInt64, math.MinInt64+simtime.Instant(grid)
		}
		ts[i] = t
	}
	return ts
}

// keyCutProblem is one phase over tasks on the grid: base loads that leave
// the root loads on the grid, and with dead set, a share of dead
// (Unreachable) workers.
func keyCutProblem(r *rand.Rand, tasks []*task.Task, workers int, now simtime.Instant, quantum, margin time.Duration, dead bool) *search.Problem {
	p := &search.Problem{
		Now:      now,
		Quantum:  quantum,
		Tasks:    tasks,
		Workers:  workers,
		BaseLoad: make([]time.Duration, workers),
		Comm: func(t *task.Task, k int) time.Duration {
			return affinity.CostModel{Remote: 2 * grid}.Cost(t.Affinity, k)
		},
		VertexCost: time.Nanosecond,
		Margin:     margin,
	}
	for k := range p.BaseLoad {
		p.BaseLoad[k] = time.Duration(r.IntN(16)) * grid
		if dead && r.IntN(6) == 0 {
			p.BaseLoad[k] = search.Unreachable
		}
	}
	return p
}

// Property: for every task and load, a finite LateKey passes Cut(load)
// exactly when the task fits a worker of that completion offset at c_lk = 0
// by the Room reference, and passes Cut(0) exactly when it is not Hopeless;
// a Never key passes every cut. Loads include Unreachable and offsets that
// overflow the cut; margins include negative ones; phases ending before
// zero have no exact cut and pass everything.
func TestCutMatchesRoom(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	edges := 0
	for trial := 0; trial < 400; trial++ {
		now := simtime.Instant(r.IntN(4)) * simtime.Instant(grid)
		if trial%50 == 49 {
			now = -simtime.Instant(r.IntN(20)+1) * simtime.Instant(grid)
		}
		margin := time.Duration(r.IntN(4)) * grid
		switch trial % 10 {
		case 8:
			margin = -grid
		case 9:
			margin = math.MaxInt64 - time.Duration(r.IntN(4))*grid
		}
		p := keyCutProblem(r, keyCutTasks(r, 30, 3, now.Add(4*grid), true, true), 3, now, time.Duration(r.IntN(6))*grid, margin, true)
		for _, tk := range p.Tasks {
			late := tk.LateKey()
			for _, load := range []time.Duration{0, grid, time.Duration(r.IntN(40)) * grid, search.Unreachable, math.MaxInt64} {
				room := p.Room(tk)
				fits := task.InRoom(tk.Proc, room) && load <= room-tk.Proc
				cut := p.Cut(load)
				if late == cut {
					edges++
				}
				switch {
				case p.PhaseEnd() < 0 || late == simtime.Never:
					if late < cut {
						t.Fatalf("trial %d: %v with key %d is cut at load %v (cut %d); it must be tested itself", trial, tk, late, load, cut)
					}
				case (late >= cut) != fits:
					t.Fatalf("trial %d: %v key %d against Cut(%v) = %d passes %v, Room %v says fits %v",
						trial, tk, late, load, cut, late >= cut, room, fits)
				case load == 0 && (late >= cut) == p.Hopeless(tk):
					t.Fatalf("trial %d: %v key %d against Cut(0) = %d passes %v, Hopeless %v", trial, tk, late, cut, late >= cut, p.Hopeless(tk))
				}
			}
		}
	}
	if edges < 100 {
		t.Fatalf("a key equalled its cut %d times; the fixture does not reach the edge", edges)
	}
}

// Property: on random grid batches — deadlines before the phase end, Never
// deadlines, dead workers, margins — both representations, reading the
// latest starts a purged task.Batch holds or the view the search derives,
// drive the engine exactly as the full-copy references that test every task
// with Problem.Feasible and Hopeless: same schedule, same Stats, Generated
// included. The derived-view runs also carry tasks missed at every instant,
// which the view sends to the task-based test. Never deadlines and dead
// workers come in alternate trials: a Never task fits a dead worker, and
// there the delta cost (CostModel.Extend) counts the dead load that the
// references' FromLoads leaves out, a disagreement outside the cuts.
func TestKeyCutsMatchTaskReference(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	type rep struct {
		name string
		cut  search.Representation
		ref  func() search.Representation
	}
	reps := func(workers int) []rep {
		return []rep{
			{"assignment", represent.NewAssignment(), func() search.Representation { return newFullCopy() }},
			{"assignment/no-skip", &represent.Assignment{}, func() search.Representation {
				f := newFullCopy()
				f.noSkip = true
				return f
			}},
			{"assignment/breadth", &represent.Assignment{SkipInfeasible: true, Breadth: 2}, func() search.Representation {
				f := newFullCopy()
				f.breadth = 2
				return f
			}},
			{"sequence", represent.NewSequence(workers), func() search.Representation { return newFullCopySequence() }},
			{"sequence/least-loaded", &represent.Sequence{Breadth: workers, LeastLoaded: true}, func() search.Representation {
				f := newFullCopySequence()
				f.leastLoaded = true
				return f
			}},
			{"sequence/idle", &represent.Sequence{Breadth: workers, AllowIdle: true}, func() search.Representation {
				f := newFullCopySequence()
				f.allowIdle = true
				return f
			}},
			{"sequence/breadth", &represent.Sequence{Breadth: 2}, func() search.Representation {
				f := newFullCopySequence()
				f.breadth = 2
				return f
			}},
		}
	}
	for trial := 0; trial < 300; trial++ {
		workers := 1 + r.IntN(4)
		now := simtime.Instant(r.IntN(4)) * simtime.Instant(grid)
		quantum := time.Duration(2+r.IntN(6)) * grid
		margin := time.Duration(r.IntN(3)) * grid
		dead := trial%2 == 1
		tasks := keyCutTasks(r, 1+r.IntN(30), workers, now.Add(quantum), !dead, true)
		seed := r.Uint64()

		// The batch's view: tasks purged at now and put in EDF order.
		b := task.NewBatch(tasks...)
		b.Order(task.EDF)
		b.PurgeMissed(now)
		views := []struct {
			name  string
			tasks []*task.Task
			late  []simtime.Instant
		}{
			{"batch", b.Tasks(), b.LatestStarts()},
			{"derived", tasks, nil},
		}
		for _, view := range views {
			for _, rp := range reps(workers) {
				problem := func(late []simtime.Instant) *search.Problem {
					p := keyCutProblem(rand.New(rand.NewPCG(seed, 1)), view.tasks, workers, now, quantum, margin, dead)
					p.Late = late
					return p
				}
				p1, p2 := problem(view.late), problem(nil)
				got, err := search.Run(p1, rp.cut)
				if err != nil {
					t.Fatal(err)
				}
				want, err := search.Run(p2, rp.ref())
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("trial %d %s view %s", trial, rp.name, view.name)
				if !reflect.DeepEqual(flatten(got.Schedule()), flatten(want.Schedule())) {
					t.Fatalf("%s: schedules differ:\n%v\nvs\n%v", name, flatten(got.Schedule()), flatten(want.Schedule()))
				}
				if got.Stats != want.Stats {
					t.Fatalf("%s: stats differ: %+v vs %+v", name, got.Stats, want.Stats)
				}
			}
		}
	}
}

// A Late view of the wrong length is refused before the search reads it.
func TestProblemValidateLate(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 16))
	p := keyCutProblem(r, keyCutTasks(r, 3, 2, 0, false, false), 2, 0, grid, 0, false)
	p.Late = make([]simtime.Instant, 2)
	if _, err := search.Run(p, represent.NewAssignment()); err == nil {
		t.Fatal("a Late view of 2 entries for 3 tasks was accepted")
	}
}
