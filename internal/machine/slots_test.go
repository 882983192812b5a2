package machine

import (
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/core"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// TestTaskSlotsRecycle drives a host's slots by hand: a released slot comes
// back zeroed and is the next one handed out; each of the five terminal
// methods releases its task's slot once; and after every task settled, the
// free list holds each carved slot exactly once.
func TestTaskSlotsRecycle(t *testing.T) {
	var h Host
	h.Reset(Config{Workers: 2, Planner: plannerFor(t, 2, core.NewRTSADS)})
	if c, l := h.TaskSlots(); c != 0 || l != 0 {
		t.Fatalf("fresh host TaskSlots = %d, %d; want 0, 0", c, l)
	}

	a := mkTask(7, at(1*us), 5*us, at(100*us), 0)
	sa := h.Take(a)
	if sa == a || *sa != *a {
		t.Fatalf("Take returned %p = %+v; want a copy of %+v", sa, *sa, *a)
	}
	a.Proc = 99 * us // the driver's task is its own again
	if sa.Proc != 5*us {
		t.Fatalf("the slot follows the driver's task: Proc %v", sa.Proc)
	}
	h.Arrive(sa, sa.Arrival)
	h.Bounce(sa, admission.QueueFull, at(2*us))
	if *sa != (task.Task{}) {
		t.Fatalf("a released slot holds %+v; want it zeroed", *sa)
	}
	if c, l := h.TaskSlots(); c != 1 || l != 0 {
		t.Fatalf("after one bounce TaskSlots = %d, %d; want 1, 0", c, l)
	}
	b := mkTask(8, at(3*us), 4*us, at(200*us), 1)
	if sb := h.Take(b); sb != sa || *sb != *b {
		t.Fatalf("Take after a release returned %p = %+v; want the freed slot %p holding %+v", sb, *sb, sa, *b)
	}
	h.Exec(sa, 1, at(3*us), at(7*us), true)

	// One task per terminal method, all held at once.
	const n = 5
	var held []*task.Task
	for i := range n {
		held = append(held, h.Take(mkTask(task.ID(10+i), 0, us, at(time.Duration(1000+i)*us), 0)))
	}
	if c, l := h.TaskSlots(); c != n || l != n {
		t.Fatalf("holding %d tasks TaskSlots = %d, %d; want %d, %d", n, c, l, n, n)
	}
	h.Exec(held[0], 0, 0, at(us), true)
	h.Purge(held[1], at(2*ms))
	h.Shed(held[2], admission.Hopeless, at(us))
	h.Bounce(held[3], admission.Infeasible, at(us))
	h.Lose(held[4], 0, at(us))
	for i, s := range held {
		if *s != (task.Task{}) {
			t.Errorf("task %d's slot holds %+v after its terminal booking; want it zeroed", i, *s)
		}
	}
	if c, l := h.TaskSlots(); c != n || l != 0 {
		t.Fatalf("after every terminal booking TaskSlots = %d, %d; want %d, 0", c, l, n)
	}
	// A slot released twice would come back twice here; one never released
	// would not come back, and Take would carve a new one.
	var again []*task.Task
	for i := range n {
		again = append(again, h.Take(mkTask(task.ID(20+i), 0, us, at(ms), 0)))
	}
	if c, _ := h.TaskSlots(); c != n {
		t.Errorf("re-taking %d tasks carved %d slots; want the %d freed ones", n, c, n)
	}
	freed := make(map[*task.Task]bool, n)
	for _, s := range held {
		freed[s] = true
	}
	for _, s := range again {
		if !freed[s] {
			t.Errorf("the free list handed out %p, not a released slot or for the second time", s)
		}
		delete(freed, s)
	}

}

// at is the virtual instant d after the epoch.
func at(d time.Duration) simtime.Instant { return simtime.Instant(d) }

// TestRunLeavesWorkloadUntouched: machine.Run holds the workload's own
// tasks, takes no slot, and releases nothing — every task reads byte for
// byte as it did before the run.
func TestRunLeavesWorkloadUntouched(t *testing.T) {
	p := workload.DefaultParams(3)
	p.NumTransactions = 200
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]task.Task, len(w.Tasks))
	for i, tk := range w.Tasks {
		before[i] = *tk
	}
	m, err := New(Config{Workers: 3, Planner: plannerFor(t, 3, core.NewRTSADS), FailAt: map[int]simtime.Instant{2: at(20 * ms)}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(w.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits == 0 || res.Purged+res.LostToFailure == 0 {
		t.Fatalf("want hits, and purges or losses, to exercise the terminal methods: %s", res)
	}
	for i, tk := range w.Tasks {
		if *tk != before[i] {
			t.Fatalf("task %d reads %+v after the run; want %+v", i, *tk, before[i])
		}
	}
	if c, l := m.h.TaskSlots(); c != 0 || l != 0 {
		t.Errorf("machine.Run's host TaskSlots = %d, %d; want 0, 0", c, l)
	}
}
