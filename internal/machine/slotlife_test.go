package machine

import (
	"testing"

	"rtsads/internal/admission"
	"rtsads/internal/core"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// TestTakenTasksBookedOnce drives a host as a shard does: every arrival is
// copied into a slot (Take), booked, and run through a gate whose short
// queue turns tasks away; a router stand-in reads each turned-away task
// through CheckTask, as the federation's callbacks do, and takes every
// other one; a worker crashes midway. Every task must end with exactly one
// terminal journal entry under its own ID, and every slot free: a book
// that reads its task after releasing the slot journals a zeroed ID, and
// under -tags slotcheck a read or a second booking of a released slot
// panics.
func TestTakenTasksBookedOnce(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 400
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	gate, err := admission.New(admission.Config{QueueCap: 120, RejectHopeless: true})
	if err != nil {
		t.Fatal(err)
	}
	var h Host
	h.Reset(Config{Workers: 4, Planner: plannerFor(t, 4, core.NewRTSADS), MinAdvance: DefaultMinAdvance,
		MaxPhases: DefaultMaxPhases, Obs: obs.New(1 << 14), FailAt: map[int]simtime.Instant{3: at(2 * ms)}})
	offered := 0
	router := func(x *task.Task, _ admission.Reason, _ simtime.Instant) bool {
		CheckTask(x)
		offered++
		return offered%2 == 0
	}
	now := simtime.Instant(0)
	for next := 0; ; {
		for ; next < len(w.Tasks) && !w.Tasks[next].Arrival.After(now); next++ {
			s := h.Take(w.Tasks[next])
			h.Arrive(s, s.Arrival)
			h.Admit(s, now, gate, router)
		}
		wake, err := h.Step(now)
		if err != nil {
			t.Fatal(err)
		}
		if next < len(w.Tasks) {
			wake = wake.Min(w.Tasks[next].Arrival.Max(h.BusyUntil()))
		}
		if wake == simtime.Never {
			break
		}
		now = wake
	}
	terminal := map[string]bool{"exec": true, "purge": true, "shed": true, "bounce": true, "lost": true}
	booked, kinds := map[int]int{}, map[string]int{}
	for _, e := range h.cfg.Obs.Journal().Snapshot() {
		if terminal[e.Type] {
			booked[e.Task]++
			kinds[e.Type]++
		}
	}
	for _, tk := range w.Tasks {
		if n := booked[int(tk.ID)]; n != 1 {
			t.Fatalf("task %d has %d terminal journal entries, want 1", tk.ID, n)
		}
	}
	if len(booked) != len(w.Tasks) {
		t.Fatalf("terminal entries name %d tasks, the workload has %d", len(booked), len(w.Tasks))
	}
	if _, live := h.TaskSlots(); live != 0 {
		t.Fatalf("%d slots still live after every task settled", live)
	}
	for kind := range terminal {
		if kinds[kind] == 0 {
			t.Errorf("no %s entry: the test needs every terminal booking (%v)", kind, kinds)
		}
	}
}
