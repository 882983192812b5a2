package machine

import "rtsads/internal/task"

// slots holds the tasks a host takes by value: pointer-free chunks the GC
// never scans, carved in order, and the free list of slots the books
// released. The chunks grow with the batch and the tasks in flight, not with
// the run, and a pooled host keeps them from run to run.
type slots struct {
	chunks [][]task.Task
	carved int
	free   []*task.Task
}

const slotChunk = 256

// Take copies t into a slot the host owns and returns the copy. Exec, Purge,
// Shed, Bounce and Lose zero the slot and free it for the next Take, so
// nothing may read a task after its terminal booking. A host that takes one
// task must take every task it books; one that takes none frees nothing.
func (h *Host) Take(t *task.Task) *task.Task {
	s := &h.slots
	var slot *task.Task
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
	} else {
		if s.carved == len(s.chunks)*slotChunk {
			s.chunks = append(s.chunks, make([]task.Task, slotChunk))
		}
		slot = &s.chunks[s.carved/slotChunk][s.carved%slotChunk]
		s.carved++
	}
	*slot = *t
	taken(slot)
	return slot
}

func (s *slots) release(t *task.Task) {
	if s.chunks != nil {
		released(t)
		*t = task.Task{}
		s.free = append(s.free, t)
	}
}

// TaskSlots reports the slots the host has carved — the most tasks it has
// held at once — and how many of them hold a task now.
func (h *Host) TaskSlots() (carved, live int) {
	return h.slots.carved, h.slots.carved - len(h.slots.free)
}
