package core

import (
	"testing"
	"time"

	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// TestSlackGuard: the wrapped planner sees deadlines shrunk by the band —
// a task with less slack than the band is not scheduled — and the schedule
// comes back holding the real tasks, deadlines untouched.
func TestSlackGuard(t *testing.T) {
	greedy, err := NewEDFGreedy(SearchConfig{
		Workers:    1,
		Comm:       func(*task.Task, int) time.Duration { return 0 },
		VertexCost: time.Microsecond,
		Policy:     Fixed{D: 10 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if NewSlackGuard(greedy, 0) != greedy {
		t.Error("a zero band wrapped the planner")
	}
	// The phase ends at 10µs, so the tight task finishes at 110µs: 2µs of
	// slack, under the 5µs band.
	tight := &task.Task{ID: 1, Proc: 100 * time.Microsecond, Deadline: simtime.Instant(112 * time.Microsecond)}
	roomy := &task.Task{ID: 2, Proc: 100 * time.Microsecond, Deadline: simtime.Instant(time.Second)}
	in := func() PhaseInput {
		return PhaseInput{Batch: []*task.Task{tight, roomy}, Loads: []time.Duration{0}}
	}
	if res, err := greedy.PlanPhase(in()); err != nil || len(res.Schedule) != 2 {
		t.Fatalf("unguarded: %d scheduled, err %v; want both", len(res.Schedule), err)
	}
	res, err := NewSlackGuard(greedy, 5*time.Microsecond).PlanPhase(in())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule) != 1 || res.Schedule[0].Task != roomy {
		t.Fatalf("guarded schedule %+v, want the roomy task alone, as itself", res.Schedule)
	}
	if tight.Deadline != simtime.Instant(112*time.Microsecond) || roomy.Deadline != simtime.Instant(time.Second) {
		t.Error("the guard changed a real task's deadline")
	}
}
