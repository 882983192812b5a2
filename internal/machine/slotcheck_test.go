//go:build slotcheck

package machine

import (
	"strings"
	"testing"

	"rtsads/internal/admission"
	"rtsads/internal/core"
	"rtsads/internal/task"
)

// TestSlotCheckPoisonsReleasedSlots: under the slotcheck tag a released
// slot is poisoned until its next Take, which bumps its generation; a read
// through CheckTask or a second terminal booking of a poisoned slot panics.
func TestSlotCheckPoisonsReleasedSlots(t *testing.T) {
	var h Host
	h.Reset(Config{Workers: 2, Planner: plannerFor(t, 2, core.NewRTSADS)})
	panics := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), want) {
				t.Errorf("%s: recovered %v, want a panic naming %q", what, r, want)
			}
		}()
		f()
	}
	s := h.Take(mkTask(1, 0, us, at(ms), 0))
	CheckTask(s)
	h.Arrive(s, 0)
	h.Bounce(s, admission.QueueFull, at(us))
	panics("read after release", "generation 1) read after its release", func() { CheckTask(s) })
	panics("booked twice", "generation 1) released twice", func() { h.Purge(s, at(us)) })
	if again := h.Take(mkTask(2, 0, us, at(ms), 1)); again != s {
		t.Fatalf("Take handed out %p, not the released slot %p", again, s)
	}
	CheckTask(s) // live again, generation 2
	h.Arrive(s, 0)
	h.Exec(s, 0, 0, at(us), true)
	panics("read after the second release", "generation 2) read after its release", func() { CheckTask(s) })
	CheckTask(&task.Task{}) // a task no host took is never poisoned
}
