//go:build !slotcheck

package machine

import "rtsads/internal/task"

func taken(*task.Task)    {}
func released(*task.Task) {}

// CheckTask panics, in a build with the slotcheck tag (slotcheck.go), if t
// is a task slot a host has released; here it does nothing.
func CheckTask(*task.Task) {}
