//go:build slotcheck

package machine

import (
	"fmt"
	"sync"

	"rtsads/internal/task"
)

// Under the slotcheck build tag a released slot is poisoned: it is marked,
// with the generation its last Take gave it, in a table the next Take
// clears. Releasing a poisoned slot, or handing one to CheckTask, panics, so
// a task read after its terminal booking fails loudly instead of reading
// zeros or another task. The slot's bytes are zeroed as in the default
// build, which compiles none of this (slotcheck_off.go).
var slotTable struct {
	sync.Mutex
	gen map[*task.Task]uint64 // generation<<1, | 1 while poisoned
}

// taken gives slot a new generation, unpoisoned.
func taken(slot *task.Task) {
	slotTable.Lock()
	defer slotTable.Unlock()
	if slotTable.gen == nil {
		slotTable.gen = make(map[*task.Task]uint64)
	}
	slotTable.gen[slot] = (slotTable.gen[slot]>>1 + 1) << 1
}

// released poisons slot; one already poisoned was booked twice.
func released(slot *task.Task) {
	slotTable.Lock()
	defer slotTable.Unlock()
	g := slotTable.gen[slot]
	if g&1 != 0 {
		panic(fmt.Sprintf("machine: task slot %p (generation %d) released twice", slot, g>>1))
	}
	slotTable.gen[slot] = g | 1
}

// CheckTask panics if t is a slot a host has released.
func CheckTask(t *task.Task) {
	slotTable.Lock()
	g := slotTable.gen[t]
	slotTable.Unlock()
	if g&1 != 0 {
		panic(fmt.Sprintf("machine: task slot %p (generation %d) read after its release", t, g>>1))
	}
}
