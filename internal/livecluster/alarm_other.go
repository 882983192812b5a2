//go:build !linux

package livecluster

// newKernelTimer: no timer here parks a goroutine without a thread, so every
// alarm runs on runtime timers.
func newKernelTimer() kernelTimer { return nil }
